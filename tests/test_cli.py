import json
import math
import re
from unittest import mock

import pytest

from monoapprox import cli
from monoapprox.cli import main
from monoapprox.verify import CHECKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_approximate_det_reports_error_below_bound(capsys):
    code, out = run_cli(
        capsys,
        "approximate", "--algo", "det", "--d", "2", "--m", "8",
        "--family", "boxbslash", "--n-probe", "50000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "replication,n_used,error,std_error,bound"
    mean_row = lines[-1].split(",")
    assert mean_row[0] == "mean"
    assert float(mean_row[2]) <= float(mean_row[4]) == 0.25


def test_approximate_mc_runs_and_reports_bound(capsys):
    code, out = run_cli(
        capsys,
        "approximate", "--algo", "mc", "--d", "2", "--eps", "0.5",
        "--family", "levelset:t=1,b=2,p=0.4", "--seed", "7",
        "--replications", "2", "--mode", "sign",
        "--n-cap", "2000", "--n-probe", "500",
    )
    assert code == 0
    lines = out.strip().splitlines()
    mean_row = lines[-1].split(",")
    assert float(mean_row[2]) <= float(mean_row[4])


def test_approximate_missing_family_is_usage_error(capsys):
    code = main(["approximate", "--algo", "det", "--d", "2", "--m", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "monoapprox: error: the following arguments are required: --family\n"


def test_identical_config_and_seed_give_identical_output(capsys, tmp_path):
    argv = [
        "approximate", "--algo", "mc", "--d", "2", "--eps", "0.5",
        "--family", "levelset:t=1,b=2,p=0.4", "--seed", "3",
        "--mode", "generalized", "--n-cap", "500", "--n-probe", "400",
        "--format", "json",
    ]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_budget_violation_exits_nonzero(capsys):
    code = main([
        "approximate", "--algo", "det", "--d", "3", "--m", "200",
        "--family", "boxbslash", "--budget-cells", "1000",
    ])
    assert code == 1
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("family, d, budget, requested", [
    ("step:m=100000", 2, None, "10000000000 perturbation bits"),  # 74.5 GiB of int64 bits
    ("step:m=4", 2, "10", "16 perturbation bits"),
    ("levelset:t=15", 30, None, "155117520 weight-t vertices"),
    ("levelset:t=2", 6, "10", "15 weight-t vertices"),
])
def test_family_enumeration_exceeding_budget_is_one_line(capsys, monkeypatch, family, d, budget, requested):
    # The family is refused before its bits or vertices are enumerated, and
    # --budget-cells sets the limit as it does for the grid.
    monkeypatch.delenv("MONOAPPROX_BUDGET_CELLS", raising=False)  # the default cap, 2**22
    argv = ["approximate", "--algo", "det", "--d", str(d), "--m", "2", "--family", family]
    code = main(argv + (["--budget-cells", budget] if budget else []))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"budget exceeded: {requested} requested")
    assert len(captured.err.splitlines()) == 1


def test_help_is_short_and_names_no_private_function(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0 and out.startswith("usage: monoapprox")
    assert "_score" not in out and "_probe_eval" not in out
    assert not re.search(r"(?<![\w-])_[A-Za-z]", out)


def test_convergence_mc_reports_rows(capsys):
    code, out = run_cli(
        capsys,
        "convergence", "--algo", "mc", "--d", "2", "--family", "levelset:t=1,b=2,p=0.5",
        "--k", "1", "--r", "1", "--n-grid", "32,128,512", "--replications", "2",
        "--n-probe", "400", "--mode", "sign",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,error,std_error,bound"
    assert len(lines) == 5  # three grid rows plus the slope footer
    assert lines[-1].startswith("slope,")


def test_convergence_det_slope_footer(capsys):
    # The second run is acceptance criterion 10's d = 2 sweep through the
    # command line; the registry's grid-rate check holds its slopes.
    for flags, target, tolerance in ((["--d", "1", "--m-grid", "16,32,64,128", "--n-probe", "20000"], -1.0, 0.1),
                                     (["--d", "2", "--n-probe", "30000", "--seed", "0"], -0.5, 0.15)):
        code, out = run_cli(capsys, "convergence", "--algo", "det", "--family", "affine", *flags)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,error,std_error,bound"
        footer = lines[-1].split(",")
        assert footer[0] == "slope"
        assert abs(float(footer[1]) - target) <= tolerance, flags


def test_bounds_table_reference_rows(capsys):
    code, out = run_cli(
        capsys,
        "bounds", "--eps-grid", "1/15,0.5,0.6", "--d-grid", "10,100",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    rows = {(row["eps"], row["d"]): row for row in payload["rows"]}
    assert rows[(1 / 15, 100)]["n_lower"] == pytest.approx(108.0, rel=1e-9)
    assert rows[(0.5, 10)]["n_det_curse"] == 512.0
    assert rows[(0.6, 10)]["n_det_curse"] is None  # outside the asserted range
    # 2**1024 is past the float range: the floor reads inf, as n_ran_upper does.
    code, out = run_cli(capsys, "bounds", "--eps-grid", "0.5", "--d-grid", "1024,1025", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0 and [row["n_det_curse"] for row in rows] == [2.0**1023, math.inf]
    assert payload["certificate"]["value"] == pytest.approx(0.0666667, abs=1e-3)
    assert payload["config"]["seed"] == 0
    assert "version" in payload


# The verify tests stub the entries they name: the acceptance suite runs each entry once.
def _passes():
    return True, "stub"


def test_verify_only_named_check(capsys):
    with mock.patch.dict(CHECKS, {"tail-mass": _passes}):
        code, out = run_cli(capsys, "verify", "--only", "tail-mass")
    assert code == 0
    assert out.startswith("tail-mass: PASS") and out.endswith("1/1 checks passed\n")


def test_verify_unknown_check(capsys):
    code = main(["verify", "--only", "tail-mass,not-a-check"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "monoapprox: error: unknown check not-a-check; see `monoapprox verify --list`\n"


def test_verify_check_that_raises_is_a_fail(capsys):
    # A check that raises fails with the exception named, and the rest still run.
    with mock.patch.dict(CHECKS, {"index-count": mock.Mock(side_effect=RecursionError("too deep")),
                                  "certificate": _passes}):
        code, out = run_cli(capsys, "verify", "--only", "index-count,certificate")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("index-count: FAIL") and lines[1] == "  RecursionError: too deep"
    assert any(line.startswith("certificate: PASS") for line in lines)
    assert lines[-1] == "1/2 checks passed"


def test_verify_list(capsys):
    code, out = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "certificate" in out.split()


def test_config_file_supplies_flags(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("d=1\nfamily=affine\nm-grid=16,32,64\nn-probe=5000\n")
    code, out = run_cli(
        capsys, "convergence", "--config", str(config), "--algo", "det",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,error,std_error,bound"


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys,
        "approximate", "--algo", "det", "--d", "1", "--m", "4",
        "--family", "affine", "--n-probe", "1000", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("replication,")


_DET = ["approximate", "--algo", "det", "--d", "2", "--m", "4", "--family", "affine"]
_MC = ["approximate", "--algo", "mc", "--d", "2", "--family", "affine"]


@pytest.mark.parametrize(
    "argv",
    [
        _MC + ["--eps", "0.5", "--replications", "0"],
        ["convergence", "--algo", "mc", "--d", "2", "--family", "affine",
         "--k", "1", "--r", "1", "--replications", "0"],
        _DET + ["--config"],
        _DET + ["--config", "no-such-file.cfg"],
        _DET + ["--n-probe", "1"],
        ["approximate", "--algo", "det", "--d", "2", "--m", "1", "--family", "affine"],
        _MC + ["--k", "1", "--r", "1", "--n", "0"],
        _MC + ["--k", "3", "--r", "1", "--n", "8"],
        _MC + ["--eps", "0"],
        _MC + ["--k", "1", "--r", "63", "--n", "10"],
        _MC + ["--k", "1", "--r", "64", "--n", "10"],
        _MC + ["--eps", "1e-18"],  # the formula's r is 65
        ["convergence", "--algo", "mc", "--d", "2", "--family", "affine", "--k", "1", "--r", "1",
         "--eps", "0.5"],
        ["convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", "16,32"],
        ["convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", "4,4,8"],
        ["convergence", "--algo", "mc", "--d", "2", "--family", "affine", "--k", "1", "--r", "1", "--n-grid", "8,8,8"],
        ["verify", "--only", ","],
        _DET[:-1] + ["bogus"],
        _DET[:-1] + ["step:m=x"],
        _DET[:-1] + ["levelset:q=1"],
        _DET[:-1] + ["step:m=0"],
        _DET[:-1] + ["step:m=-1"],
        _DET[:-1] + ["levelset:t=-1"],
        _DET[:-1] + ["affine:x=1"],
        _DET[:-1] + [""],
        _DET[:-1] + ["step:m=2,m=3"],
        _DET[:-1] + ["levelset:t=1,t=2"],
        ["approximate", "--algo", "det", "--d", "2", "--family", "affine"],
        _MC,
        _MC + ["--k", "1", "--r", "1"],
        ["convergence", "--algo", "mc", "--d", "2", "--family", "affine", "--k", "1"],
        ["approximate", "--algo", "det", "--d", "x", "--m", "4", "--family", "affine"],
        _DET + ["--bogus-flag", "1"],
        ["approximate", "--algo", "det", "--d", "2", "--m", "4"],
        ["bounds", "--c0", "0"],
        ["bounds", "--c0", "-1"],
        ["bounds", "--c0", "0.5"],  # the certificate fails: epshat(100) = 0.0646 <= 1/15
        ["bounds", "--eps-grid", "0"],
        ["bounds", "--eps-grid", "1.5"],
        ["bounds", "--eps-grid", "1/0"],
        ["bounds", "--eps-grid", "0/0"],
        ["bounds", "--eps-grid", "1/"],
        ["convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", "2,x"],
        ["bounds", "--d-grid", "0"],
        ["bounds", "--upper-c", "nan"],
        ["bounds", "--out", "no-such-dir/x.csv"],
        ["bounds", "--out", "."],
        _MC + ["--eps", "0.5", "--out", "no-such-dir/x.csv"],
        _DET + ["--out", "."],
        ["bounds", "--eps-grid", ","],
        ["bounds", "--d-grid", ","],
        ["convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", ","],
        ["convergence", "--algo", "mc", "--d", "1", "--family", "affine", "--k", "1", "--r", "2", "--n-grid", ","],
        ["convergence", "--algo", "mc", "--d", "2", "--family", "affine", "--k", "1", "--r", "1",
         "--n-grid", "4,8,100000000000000000000"],
        _MC + ["--eps", "0.5", "--n-probe", "100000000000000000000"],
        _DET + ["--n-probe", "1000000000000000000"],  # 2 * 10^18 coordinates, 8 bytes each
        _DET + ["--budget-cells", "-5"],
    ],
    ids=["replications-0", "convergence-replications-0", "config-without-path",
         "config-missing-file", "n-probe-1", "m-1", "n-0", "k-above-d", "eps-0",
         "r-63", "r-64", "formula-r-65", "convergence-eps",
         "two-grid-sizes", "two-distinct-m-grid-sizes", "one-distinct-n-grid-size",
         "verify-only-names-no-check", "family-unknown",
         "family-bad-int", "family-unknown-argument", "family-m-0", "family-m-negative",
         "family-t-negative", "family-argument-of-affine",
         "family-empty", "family-repeated-m", "family-repeated-t",
         "det-without-m", "mc-without-eps", "mc-without-n", "mc-convergence-without-r",
         "d-not-an-int", "unknown-flag", "missing-family",
         "c0-0", "c0-negative", "c0-uncertified", "eps-grid-0", "eps-grid-1.5",
         "eps-grid-zero-denominator", "eps-grid-0/0", "eps-grid-1/", "m-grid-2,x", "d-grid-0", "upper-c-nan",
         "out-missing-dir", "out-directory", "mc-out-missing-dir", "det-out-directory",
         "eps-grid-names-no-entry", "d-grid-names-no-entry", "m-grid-names-no-entry", "n-grid-names-no-entry",
         "n-grid-past-one-array", "n-probe-past-one-array", "n-probe-bytes-past-one-array",
         "budget-cells-negative"],
)
def test_bad_flags_give_one_line_and_exit_2(capsys, argv):
    # Each is refused before any fit runs.
    fitting = AssertionError("a fit ran")
    with mock.patch.object(cli, "fit", side_effect=fitting), mock.patch.object(cli, "fit_grid", side_effect=fitting):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("monoapprox: error: ")
    assert len(captured.err.strip().splitlines()) == 1
    # A bad family parameter is named in the reason, not only in the echoed spec.
    for spec, named in (("step:m=-1", "m=-1"), ("levelset:t=-1", "t=-1")):
        if spec in argv:
            assert named in captured.err.partition("': ")[2]
    # A bad list entry's reason is printed after its flag, not argparse's
    # "invalid <type function> value".
    # A list flag of commas alone is named, not run on the default grid.
    if "," in argv:
        assert captured.err.strip() == f"monoapprox: error: {argv[argv.index(',') - 1]} names no entry"
    for entry, reason in (("1/0", "--eps-grid: zero denominator in '1/0'"),
                          ("1/", "--eps-grid: not a number or a fraction p/q: '1/'"),
                          ("2,x", "--m-grid: not a list of integers: '2,x'")):
        if entry in argv:
            assert captured.err.strip() == f"monoapprox: error: argument {reason}"


@pytest.mark.parametrize("argv", [_DET, _MC[:-1] + ["step:m=4", "--eps", "0.5"]], ids=["det-grid", "mc-step-family"])
def test_bad_budget_variable_gives_one_line_and_exit_2(capsys, monkeypatch, argv):
    # Named as the variable it is, before a grid or a family reads it as its budget.
    monkeypatch.setenv("MONOAPPROX_BUDGET_CELLS", "abc")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "monoapprox: error: MONOAPPROX_BUDGET_CELLS must be a positive integer, got 'abc'\n"


def test_formula_n_past_the_float_range(capsys):
    # At d = 144, eps = 0.5 the formula asks for about 10**627 samples, past
    # the float range.  Capped, the fit runs and JSON reports that n; uncapped,
    # the run is refused in one line.
    argv = ["approximate", "--algo", "mc", "--d", "144", "--eps", "0.5", "--family", "boxbslash",
            "--n-probe", "20"]
    code, out = run_cli(capsys, *argv, "--n-cap", "50", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["rows"][0]["n_used"] == 50
    assert 10**627 < payload["params"]["n"] < 10**628
    code = main(argv + ["--n-cap", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("monoapprox: error: ") and len(captured.err.strip().splitlines()) == 1
