"""Batch experiment runner and bound calculator.

Subcommands: ``approximate`` fits one algorithm on one family and reports the
empirical error against its bound; ``convergence`` sweeps a size grid and fits
a log-log rate; ``bounds`` tabulates the complexity bounds on an (eps, d)
grid; ``verify`` runs the property-check suite.  Output is CSV or JSON on
stdout or a file; identical (config, seed) pairs produce byte-identical
output.

Seeds: replication ``i`` of a run with master seed ``s`` derives its
randomness from ``numpy.random.SeedSequence((s, i, stream))`` where stream 0
is the fit, stream 1 the family draw and stream 2 the error probe, so results
do not depend on scheduling.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .approx_det import eval_grid, fit_grid, grid_error_bound
from .approx_mc import WaveletModel, eval_generalized, eval_linear, eval_sign, fit
from .bounds import (
    BERRY_ESSEEN_UPPER,
    DEFAULT_UPPER_C,
    McParams,
    choose_params,
    default_lb_params,
    lb_curve,
    lb_epshat,
    n_det_curse,
    n_ran_upper_breakdown,
    ub_error_breakdown,
    with_berry_esseen,
)
from .budget import BudgetExceededError
from .functions import family_from_spec
from .metrics import fit_rate, l1_mc
from .verify import CHECKS, run_checks

SEED_SCHEME = "SeedSequence((master_seed, replication, stream)); streams: 0 fit, 1 family, 2 probe"


@dataclass
class ExperimentConfig:
    """Echoable record of one run; (config, seed) determines every output."""

    subcommand: str
    d: int = 2
    eps: float | None = None
    m: int | None = None
    n: int | None = None
    k: int | None = None
    r: int | None = None
    seed: int = 0
    replications: int = 1
    family: str | None = None
    algo: str | None = None
    mode: str = "generalized"
    n_probe: int = 2000
    n_cap: int = 200_000
    fmt: str = "csv"
    out: str | None = None
    budget_cells: int | None = None
    m_grid: list[int] = field(default_factory=list)
    n_grid: list[int] = field(default_factory=list)
    eps_grid: list[float] = field(default_factory=list)
    d_grid: list[int] = field(default_factory=list)
    det_branch: str = "theorem"
    c0: float = BERRY_ESSEEN_UPPER
    upper_c: float = DEFAULT_UPPER_C
    only: list[str] = field(default_factory=list)


def _seed(cfg: ExperimentConfig, replication: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((cfg.seed, replication, stream))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    fields = list(rows[0])
    stream.write(",".join(fields) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(row.get(f)) for f in fields) + "\n")


def _emit(cfg: ExperimentConfig, rows: list[dict], extra: dict | None = None) -> None:
    if cfg.fmt == "json":
        payload = {
            "version": __version__,
            "seed_scheme": SEED_SCHEME,
            "config": asdict(cfg),
            "rows": rows,
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        buffer = io.StringIO()
        _write_csv(rows, buffer)
        text = buffer.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class _ModelOracle:
    """Pointwise adapter from a fitted wavelet model to an oracle callable."""

    def __init__(self, model: WaveletModel):
        self.model = model
        self._eval = {
            "linear": eval_linear,
            "sign": eval_sign,
            "generalized": eval_generalized,
        }[model.mode]

    def __call__(self, x) -> float:
        return self._eval(self.model, x)


def _mc_params(cfg: ExperimentConfig) -> McParams:
    if cfg.eps is not None:
        return choose_params(cfg.eps, cfg.d)
    if cfg.k is None or cfg.r is None or cfg.n is None:
        raise SystemExit("mc runs need either --eps or all of --k, --r, --n")
    return McParams(cfg.d, cfg.k, cfg.r, cfg.n, cfg.eps if cfg.eps else 0.5)


def cmd_approximate(cfg: ExperimentConfig) -> list[dict]:
    if not cfg.family:
        raise SystemExit(2)
    rows = []
    errors = []
    if cfg.algo == "det":
        if cfg.m is None:
            raise SystemExit("det runs need --m")
        bound = grid_error_bound(cfg.d, cfg.m)
        for rep in range(cfg.replications):
            truth = family_from_spec(cfg.family, cfg.d, _seed(cfg, rep, 1))
            model = fit_grid(truth, cfg.d, cfg.m, cfg.budget_cells)
            err = l1_mc(truth, lambda x: eval_grid(model, x), cfg.d, cfg.n_probe, _seed(cfg, rep, 2))
            errors.append(err.value)
            rows.append(
                {
                    "replication": rep,
                    "n_used": (cfg.m - 1) ** cfg.d,
                    "error": err.value,
                    "std_error": err.std_error,
                    "bound": bound,
                }
            )
    elif cfg.algo == "mc":
        params = _mc_params(cfg)
        bound = ub_error_breakdown(params).total
        n_used = min(params.n, cfg.n_cap) if cfg.n_cap else params.n
        for rep in range(cfg.replications):
            truth = family_from_spec(cfg.family, cfg.d, _seed(cfg, rep, 1))
            model = fit(truth, cfg.d, params.k, params.r, n_used, _seed(cfg, rep, 0), cfg.mode)
            err = l1_mc(truth, _ModelOracle(model), cfg.d, cfg.n_probe, _seed(cfg, rep, 2))
            errors.append(err.value)
            rows.append(
                {
                    "replication": rep,
                    "n_used": n_used,
                    "error": err.value,
                    "std_error": err.std_error,
                    "bound": bound,
                }
            )
    else:
        raise SystemExit("--algo must be det or mc")
    mean = float(np.mean(errors))
    rows.append(
        {
            "replication": "mean",
            "n_used": rows[-1]["n_used"],
            "error": mean,
            "std_error": float(np.std(errors, ddof=1) / np.sqrt(len(errors))) if len(errors) > 1 else 0.0,
            "bound": bound,
        }
    )
    return rows


# Sweeps sit in the asymptotic window: at d = 2 the m <= 8 grids are still
# boundary-dominated and the fitted slope would understate the limit rate.
_DEFAULT_M_GRIDS = {1: [16, 32, 64, 128, 256], 2: [16, 32, 64, 128]}


def cmd_convergence(cfg: ExperimentConfig) -> list[dict]:
    if not cfg.family:
        raise SystemExit(2)
    rows = []
    points = []
    if cfg.algo == "det":
        m_grid = cfg.m_grid or _DEFAULT_M_GRIDS.get(cfg.d, [2, 4, 8])
        truth = family_from_spec(cfg.family, cfg.d, _seed(cfg, 0, 1))
        for m in m_grid:
            model = fit_grid(truth, cfg.d, m, cfg.budget_cells)
            err = l1_mc(truth, lambda x: eval_grid(model, x), cfg.d, cfg.n_probe, _seed(cfg, m, 2))
            n = (m - 1) ** cfg.d
            points.append((n, err.value))
            rows.append(
                {"n": n, "error": err.value, "std_error": err.std_error, "bound": grid_error_bound(cfg.d, m)}
            )
    elif cfg.algo == "mc":
        if cfg.k is None or cfg.r is None:
            raise SystemExit("mc convergence needs --k and --r")
        n_grid = cfg.n_grid or [64, 256, 1024, 4096]
        for n in n_grid:
            errs = []
            for rep in range(cfg.replications):
                truth = family_from_spec(cfg.family, cfg.d, _seed(cfg, rep, 1))
                model = fit(truth, cfg.d, cfg.k, cfg.r, n, _seed(cfg, n * cfg.replications + rep, 0), cfg.mode)
                errs.append(
                    l1_mc(truth, _ModelOracle(model), cfg.d, cfg.n_probe, _seed(cfg, n * cfg.replications + rep, 2)).value
                )
            mean = float(np.mean(errs))
            std = float(np.std(errs, ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
            bound = ub_error_breakdown(McParams(cfg.d, cfg.k, cfg.r, n, cfg.eps or 0.5)).total
            points.append((n, mean))
            rows.append({"n": n, "error": mean, "std_error": std, "bound": bound})
    else:
        raise SystemExit("--algo must be det or mc")
    # A zero error (target reproduced exactly) makes the log-log fit undefined.
    slope = fit_rate(points) if all(e > 0 for _, e in points) else None
    rows.append({"n": "slope", "error": slope, "std_error": None, "bound": None})
    return rows


def cmd_bounds(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    eps_grid = cfg.eps_grid or [1 / 15, 0.1, 0.25, 0.5]
    d_grid = cfg.d_grid or [2, 10, 100]
    params = with_berry_esseen(default_lb_params(), cfg.c0)
    rows = []
    for eps in eps_grid:
        for d in d_grid:
            upper = n_ran_upper_breakdown(eps, d, cfg.upper_c, cfg.det_branch)
            curve = lb_curve(params, eps, d)
            rows.append(
                {
                    "eps": eps,
                    "d": d,
                    "n_ran_upper": upper.value,
                    "log_stochastic_branch": upper.log_stochastic_branch,
                    "log_deterministic_branch": upper.log_deterministic_branch,
                    "branch_taken": upper.branch_taken,
                    "n_det_curse": n_det_curse(eps, d) if eps <= 0.5 else None,
                    "lb_valid": curve.valid,
                    "lb_regime": curve.regime,
                    "lb_tau": curve.tau if curve.valid else None,
                    "n_lower": curve.n_lower if curve.valid else None,
                }
            )
    certificate = asdict(lb_epshat(params, params.d0))
    extra = {
        "certificate": certificate,
        "upper_c": cfg.upper_c,
        "det_branch": cfg.det_branch,
        "c0": cfg.c0,
    }
    return rows, extra


def cmd_verify(cfg: ExperimentConfig) -> int:
    try:
        results = run_checks(cfg.only or None)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    failed = 0
    for name, ok, seconds, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({seconds:.2f}s)")
        if not ok or name == "certificate":
            print(f"  {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float(text: str) -> float:
    if "/" in text:
        numerator, denominator = text.split("/")
        return float(numerator) / float(denominator)
    return float(text)


def _float_list(text: str) -> list[float]:
    return [_float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monoapprox", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="file of key=value lines mirroring flags")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--budget-cells", type=int, default=None)

    approx = sub.add_parser("approximate", help="fit one algorithm, report error vs bound")
    common(approx)
    approx.add_argument("--algo", choices=("det", "mc"), required=True)
    approx.add_argument("--d", type=int, required=True)
    approx.add_argument("--family", required=True)
    approx.add_argument("--m", type=int)
    approx.add_argument("--eps", type=float)
    approx.add_argument("--k", type=int)
    approx.add_argument("--r", type=int)
    approx.add_argument("--n", type=int)
    approx.add_argument("--mode", choices=("linear", "sign", "generalized"), default="generalized")
    approx.add_argument("--replications", type=int, default=1)
    approx.add_argument("--n-probe", type=int, default=2000)
    approx.add_argument("--n-cap", type=int, default=200_000,
                        help="cap on the sample size of mc fits (0 disables)")

    conv = sub.add_parser("convergence", help="size sweep with fitted log-log slope")
    common(conv)
    conv.add_argument("--algo", choices=("det", "mc"), required=True)
    conv.add_argument("--d", type=int, required=True)
    conv.add_argument("--family", required=True)
    conv.add_argument("--m-grid", type=_int_list, default=[])
    conv.add_argument("--n-grid", type=_int_list, default=[])
    conv.add_argument("--k", type=int)
    conv.add_argument("--r", type=int)
    conv.add_argument("--eps", type=float)
    conv.add_argument("--mode", choices=("linear", "sign", "generalized"), default="generalized")
    conv.add_argument("--replications", type=int, default=4)
    conv.add_argument("--n-probe", type=int, default=2000)

    bnd = sub.add_parser("bounds", help="tabulate complexity bounds on an (eps, d) grid")
    common(bnd)
    bnd.add_argument("--eps-grid", type=_float_list, default=[])
    bnd.add_argument("--d-grid", type=_int_list, default=[])
    bnd.add_argument("--det-branch", choices=("theorem", "proof"), default="theorem")
    bnd.add_argument("--c0", type=float, default=BERRY_ESSEEN_UPPER)
    bnd.add_argument("--upper-c", type=float, default=DEFAULT_UPPER_C)

    ver = sub.add_parser("verify", help="run the property-check suite")
    ver.add_argument("--config", help="file of key=value lines mirroring flags")
    ver.add_argument("--only", type=lambda s: [v for v in s.split(",") if v], default=[])
    ver.add_argument("--list", action="store_true", dest="list_checks")
    return parser


class _UsageError(Exception):
    """A malformed command line; reported in one line with exit status 2."""


# The smallest value of each numeric flag a run can produce a row for; grid
# flags apply the bound to every entry.
_FLAG_MINIMUM = {
    "d": 1, "k": 1, "r": 1, "n": 1, "m": 2, "replications": 1, "n_probe": 2,
    "n_cap": 0, "m_grid": 2, "n_grid": 1,
}


def _check_flags(cfg: ExperimentConfig) -> None:
    for name, low in _FLAG_MINIMUM.items():
        value = getattr(cfg, name)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and v < low:
                raise _UsageError(f"--{name.replace('_', '-')} must be at least {low}, got {v}")
    if cfg.k is not None and cfg.k > cfg.d:
        raise _UsageError(f"--k must be at most --d = {cfg.d}, got {cfg.k}")
    if cfg.eps is not None and not 0.0 < cfg.eps < 1.0:
        raise _UsageError(f"--eps must lie in (0, 1), got {cfg.eps}")
    if any(0 < len(grid) < 3 for grid in (cfg.m_grid, cfg.n_grid)):
        raise _UsageError("a fitted slope needs at least three grid sizes")


def _apply_config_file(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise _UsageError("--config needs a file path")
    injected = []
    try:
        with open(argv[at + 1], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read --config file: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        injected += [f"--{key.strip()}", value.strip()]
    # Config-provided flags go right after the subcommand so explicit
    # command-line flags still win.
    return argv[:1] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
        cfg = ExperimentConfig(**{k: v for k, v in vars(args).items() if k in known and v is not None})
        _check_flags(cfg)
    except _UsageError as exc:
        print(f"monoapprox: error: {exc}", file=sys.stderr)
        return 2

    if cfg.subcommand == "verify":
        if getattr(args, "list_checks", False):
            for name in CHECKS:
                print(name)
            return 0
        return cmd_verify(cfg)
    try:
        if cfg.subcommand == "approximate":
            _emit(cfg, cmd_approximate(cfg))
        elif cfg.subcommand == "convergence":
            _emit(cfg, cmd_convergence(cfg))
        elif cfg.subcommand == "bounds":
            rows, extra = cmd_bounds(cfg)
            _emit(cfg, rows, extra)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
