"""Byte-for-byte CLI output of small seed-1 runs, against recorded files.

Each case's stdout is stored under ``tests/golden/`` with the case name as file
name.  A change that alters any output bit rewrites the affected files and
says in CHANGES.md which rows changed and why.
"""

from pathlib import Path

import pytest

from monoapprox.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SEED = ["--seed", "1"]

CASES = {
    "approximate-det.csv": [
        "approximate", "--algo", "det", "--d", "2", "--m", "8", "--family", "boxbslash",
        "--replications", "2", "--n-probe", "500", *_SEED],
    "approximate-det.json": [
        "approximate", "--algo", "det", "--d", "3", "--m", "4", "--family", "levelset:t=2,b=3,p=0.4",
        "--replications", "2", "--n-probe", "300", "--format", "json", *_SEED],
    "approximate-mc-sign.csv": [
        "approximate", "--algo", "mc", "--d", "2", "--eps", "0.5", "--family", "levelset:t=1,b=2,p=0.4",
        "--mode", "sign", "--replications", "2", "--n-cap", "2000", "--n-probe", "300", *_SEED],
    "approximate-mc-generalized.csv": [
        "approximate", "--algo", "mc", "--d", "2", "--eps", "0.5", "--family", "step:m=4",
        "--mode", "generalized", "--replications", "3", "--n-cap", "3000", "--n-probe", "200", *_SEED],
    "approximate-mc-generalized.json": [
        "approximate", "--algo", "mc", "--d", "3", "--k", "2", "--r", "2", "--n", "600", "--family", "affine",
        "--replications", "2", "--n-probe", "200", "--format", "json", *_SEED],
    "approximate-mc-linear.csv": [
        "approximate", "--algo", "mc", "--d", "3", "--k", "2", "--r", "3", "--n", "1000", "--family", "affine",
        "--mode", "linear", "--n-probe", "300", *_SEED],
    "convergence-det.csv": [
        "convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", "16,32,64",
        "--n-probe", "2000", *_SEED],
    "convergence-mc.json": [
        "convergence", "--algo", "mc", "--d", "2", "--family", "levelset:t=1,b=2,p=0.5", "--k", "1", "--r", "1",
        "--n-grid", "32,128,512", "--replications", "2", "--mode", "sign", "--n-probe", "300",
        "--format", "json", *_SEED],
    "bounds.csv": ["bounds", *_SEED],
    "bounds.json": ["bounds", "--eps-grid", "1/15,0.5,0.6", "--d-grid", "10,100", "--format", "json", *_SEED],
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
