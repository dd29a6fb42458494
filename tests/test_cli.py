import json

import pytest

from monoapprox.cli import main


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
    with pytest.raises(SystemExit) as excinfo:
        main(["approximate", "--algo", "det", "--d", "2", "--m", "4"])
    assert excinfo.value.code == 2


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
    code, out = run_cli(
        capsys,
        "convergence", "--algo", "det", "--d", "1", "--family", "affine",
        "--m-grid", "16,32,64,128", "--n-probe", "20000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,error,std_error,bound"
    footer = lines[-1].split(",")
    assert footer[0] == "slope"
    assert abs(float(footer[1]) + 1.0) <= 0.1


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
    assert payload["certificate"]["value"] == pytest.approx(0.0666667, abs=1e-3)
    assert payload["config"]["seed"] == 0
    assert "version" in payload


def test_verify_only_named_check(capsys):
    code, out = run_cli(capsys, "verify", "--only", "tail-mass")
    assert code == 0
    assert "tail-mass: PASS" in out


def test_verify_unknown_check(capsys):
    code = main(["verify", "--only", "not-a-check"])
    assert code == 2


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
        ["convergence", "--algo", "det", "--d", "1", "--family", "affine", "--m-grid", "16,32"],
    ],
    ids=["replications-0", "convergence-replications-0", "config-without-path",
         "config-missing-file", "n-probe-1", "m-1", "n-0", "k-above-d", "eps-0",
         "two-grid-sizes"],
)
def test_bad_flags_give_one_line_and_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
