"""The benchmark's own tests: tiny-shape smoke runs, the failure gate, the exit contract.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from workloads import L1_REPS, WORKLOADS

cli = worker.cli  # imported by worker from the checkout's src/

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EVAL_OF = {"mc-sign-d4": "eval_sign", "mc-gen-d2": "eval_generalized",
           "mc-linear-d4": "eval_linear", "det-grid-d4": "eval_grid"}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(EVAL_OF) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_check(name, trace):
    result = worker.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= L1_REPS
    if trace:
        assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])
        assert 0.5 < result["metrics"]["trace.covered_frac"] <= 1.0


def test_l1_err_mean_repeats_for_a_fixed_seed():
    first = worker.run("mc-gen-d2", seed=5, seconds=0, trace=False, tiny=True)
    second = worker.run("mc-gen-d2", seed=5, seconds=0, trace=False, tiny=True)
    assert first["metrics"]["l1_err.mean"] == second["metrics"]["l1_err.mean"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_model_output_is_counted_failed(name, monkeypatch):
    original = getattr(cli, EVAL_OF[name])
    calls = []

    def corrupted(model, x):
        calls.append(1)
        # Only the very first query of the run is off, and only by 1e-6.
        return original(model, x) + (1e-6 if len(calls) == 1 else 0.0)

    monkeypatch.setattr(cli, EVAL_OF[name], corrupted)
    result = worker.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert list(result["failures"]) == ["0"]
    assert result["metrics"]["failed_frac"] == 1 / result["attempted"]


def _run_script(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "det-grid-d4", "--seed", "1",
           "--seconds", "0", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_the_gated_metrics_last():
    done = _run_script(HERE.parent, "--tiny")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert list(summary["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name in ("setup_s", "rep_s.p50", "reps_per_s", "l1_err.mean", "rss_peak_mb", "failed_frac"):
        assert name in done.stdout


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_script(tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
