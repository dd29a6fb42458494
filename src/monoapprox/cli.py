"""Batch experiment runner and bound calculator.

Subcommands: ``approximate`` fits one algorithm on one family and reports the
empirical error against its bound; ``convergence`` sweeps a size grid and fits
a log-log rate; ``bounds`` tabulates the complexity bounds on an (eps, d)
grid; ``verify`` runs the property-check suite.  Output is CSV or JSON on
stdout or a file; identical (config, seed) pairs produce byte-identical
output.  Both algorithms run through one scoring function, ``_score``: det
fits the grid at ``m = size``, mc the wavelet model at ``n = size``, and the
error is measured by ``l1_mc`` on one batch of probe points, the fitted model
evaluated by its ``eval_*`` function in two calls, the first probe alone and
then the rest (see ``_probe_eval``).

Every malformed input (an unknown flag or a bad value, a ``--family`` the
family parser rejects, det without ``--m``, mc without ``--eps`` or all of
``--k --r --n``) prints one ``monoapprox: error:`` line to stderr and exits
2; a budget violation exits 1.  Flag defaults are those of
``ExperimentConfig``; only ``convergence --replications`` defaults to 4.

Seeds: replication ``i`` of a run with master seed ``s`` derives its
randomness from ``numpy.random.SeedSequence((s, i, stream))`` where stream 0
is the fit, stream 1 the family draw and stream 2 the error probe, so results
do not depend on scheduling.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .approx_det import eval_grid, fit_grid, grid_error_bound
from .approx_mc import MAX_RESOLUTION, MODES, eval_generalized, eval_linear, eval_sign, fit
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


def _probe_eval(evaluate, model):
    """The callable ``l1_mc`` evaluates ``model`` through.

    The first probe gets a call of its own and the rest share one more, so
    the first call of ``evaluate`` answers exactly one query.
    ``perfbench/test_perfbench.py`` offsets the result of that call to plant
    one wrong model output; the same offset on a whole batch leaves the mean
    L1 error unchanged whenever as many outputs lie above the truth as below.
    """

    def evaluate_probes(points):
        return np.concatenate([evaluate(model, points[:1]), evaluate(model, points[1:])])

    return evaluate_probes


class _UsageError(Exception):
    """A malformed command line; reported in one line with exit status 2."""


def _mc_params(cfg: ExperimentConfig) -> McParams:
    if cfg.eps is not None:
        params = choose_params(cfg.eps, cfg.d)
        if params.r > MAX_RESOLUTION:
            raise _UsageError(f"--eps {cfg.eps} at --d {cfg.d} needs r = {params.r}, above {MAX_RESOLUTION}")
        return params
    if cfg.k is None or cfg.r is None or cfg.n is None:
        raise _UsageError("mc runs need either --eps or all of --k, --r, --n")
    return McParams(cfg.d, cfg.k, cfg.r, cfg.n, 0.5)


def _truth(cfg: ExperimentConfig, replication: int):
    """The family member of a replication; a malformed ``--family`` is a usage error."""
    try:
        return family_from_spec(cfg.family, cfg.d, _seed(cfg, replication, 1), cfg.budget_cells)
    except ValueError as exc:
        raise _UsageError(f"--family {cfg.family!r}: {exc}") from None


def _score(cfg: ExperimentConfig, truth, size: int, slot: int, params: McParams | None = None):
    """The ``l1_mc`` error of one fit on ``truth``.

    det fits the grid at ``m = size``; mc fits the wavelet model of
    ``params.k`` and ``params.r`` at ``n = size``.  ``slot`` is the
    replication index of the fit and probe seeds.  The fit and evaluation
    functions are looked up on every call, so a replaced module attribute
    takes effect.  Models are callable, but the mode dict, ``_probe_eval`` and
    the ``eval_*`` names stay: the benchmark's tracer wraps ``cli.eval_*``,
    and its corrupted-output test needs the first call to answer one query.
    """
    if cfg.algo == "det":
        model, evaluate = fit_grid(truth, cfg.d, size, cfg.budget_cells), eval_grid
    else:
        model = fit(truth, cfg.d, params.k, params.r, size, _seed(cfg, slot, 0), cfg.mode)
        evaluate = {"linear": eval_linear, "sign": eval_sign, "generalized": eval_generalized}[cfg.mode]
    return l1_mc(truth, _probe_eval(evaluate, model), cfg.d, cfg.n_probe, _seed(cfg, slot, 2))


def _std_error(errors: list[float]) -> float:
    return float(np.std(errors, ddof=1) / np.sqrt(len(errors))) if len(errors) > 1 else 0.0


def cmd_approximate(cfg: ExperimentConfig) -> list[dict]:
    params = None
    if cfg.algo == "det":
        if cfg.m is None:
            raise _UsageError("det runs need --m")
        size, n_used, bound = cfg.m, (cfg.m - 1) ** cfg.d, grid_error_bound(cfg.d, cfg.m)
    else:
        params = _mc_params(cfg)
        bound = ub_error_breakdown(params).total
        size = n_used = min(params.n, cfg.n_cap) if cfg.n_cap else params.n
        if n_used * cfg.d > sys.maxsize:
            raise _UsageError(
                f"n = 10^{math.log10(n_used):.1f} samples do not fit in one array; cap them with --n-cap")
    rows = []
    for rep in range(cfg.replications):
        err = _score(cfg, _truth(cfg, rep), size, rep, params)
        rows.append({"replication": rep, "n_used": n_used, "error": err.value, "std_error": err.std_error,
                     "bound": bound})
    errors = [row["error"] for row in rows]
    rows.append({"replication": "mean", "n_used": n_used, "error": float(np.mean(errors)),
                 "std_error": _std_error(errors), "bound": bound})
    return rows


# Sweeps sit in the asymptotic window: at d = 2 the m <= 8 grids are still
# boundary-dominated and the fitted slope would understate the limit rate.
_DEFAULT_M_GRIDS = {1: [16, 32, 64, 128, 256], 2: [16, 32, 64, 128]}


def cmd_convergence(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    if cfg.algo == "det":
        truth = _truth(cfg, 0)
        for m in cfg.m_grid or _DEFAULT_M_GRIDS.get(cfg.d, [2, 4, 8]):
            err = _score(cfg, truth, m, m)
            rows.append({"n": (m - 1) ** cfg.d, "error": err.value, "std_error": err.std_error,
                         "bound": grid_error_bound(cfg.d, m)})
    else:
        if cfg.k is None or cfg.r is None:
            raise _UsageError("mc convergence needs --k and --r")
        for n in cfg.n_grid or [64, 256, 1024, 4096]:
            params = McParams(cfg.d, cfg.k, cfg.r, n, 0.5)
            errs = [_score(cfg, _truth(cfg, rep), n, n * cfg.replications + rep, params).value
                    for rep in range(cfg.replications)]
            rows.append({"n": n, "error": float(np.mean(errs)), "std_error": _std_error(errs),
                         "bound": ub_error_breakdown(params).total})
    points = [(row["n"], row["error"]) for row in rows]
    # A zero error (target reproduced exactly) makes the log-log fit undefined.
    slope = fit_rate(points) if all(e > 0 for _, e in points) else None
    rows.append({"n": "slope", "error": slope, "std_error": None, "bound": None})
    return rows


def cmd_bounds(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    eps_grid = cfg.eps_grid or [1 / 15, 0.1, 0.25, 0.5]
    d_grid = cfg.d_grid or [2, 10, 100]
    params = replace(default_lb_params(), c0=cfg.c0)
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
    results = run_checks(cfg.only)
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


def _check_names(text: str) -> list[str]:
    names = [v for v in text.split(",") if v]
    if not names:
        raise _UsageError("--only names no check; see `monoapprox verify --list`")
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise _UsageError(f"unknown check {', '.join(unknown)}; see `monoapprox verify --list`")
    return names


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ``_UsageError`` instead of printing usage and exiting."""

    def error(self, message: str):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command line; an omitted flag leaves its ``ExperimentConfig`` default."""
    parser = _Parser(prog="monoapprox", description="L1 approximation of monotone functions on [0,1]^d.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="file of key=value lines mirroring flags")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--budget-cells", type=int)

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
    approx.add_argument("--mode", choices=MODES)
    approx.add_argument("--replications", type=int)
    approx.add_argument("--n-probe", type=int)
    approx.add_argument("--n-cap", type=int, help="cap on the sample size of mc fits (0 disables)")

    conv = sub.add_parser("convergence", help="size sweep with fitted log-log slope")
    common(conv)
    conv.add_argument("--algo", choices=("det", "mc"), required=True)
    conv.add_argument("--d", type=int, required=True)
    conv.add_argument("--family", required=True)
    conv.add_argument("--m-grid", type=_int_list)
    conv.add_argument("--n-grid", type=_int_list)
    conv.add_argument("--k", type=int)
    conv.add_argument("--r", type=int)
    conv.add_argument("--mode", choices=MODES)
    conv.add_argument("--replications", type=int, default=4)
    conv.add_argument("--n-probe", type=int)

    bnd = sub.add_parser("bounds", help="tabulate complexity bounds on an (eps, d) grid")
    common(bnd)
    bnd.add_argument("--eps-grid", type=_float_list)
    bnd.add_argument("--d-grid", type=_int_list)
    bnd.add_argument("--det-branch", choices=("theorem", "proof"))
    bnd.add_argument("--c0", type=float)
    bnd.add_argument("--upper-c", type=float)

    ver = sub.add_parser("verify", help="run the property-check suite")
    ver.add_argument("--config", help="file of key=value lines mirroring flags")
    ver.add_argument("--only", type=_check_names)
    ver.add_argument("--list", action="store_true", dest="list_checks")
    return parser


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
    if cfg.r is not None and cfg.r > MAX_RESOLUTION:
        raise _UsageError(f"--r must be at most {MAX_RESOLUTION}, got {cfg.r}")
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
        if cfg.subcommand == "verify":
            if args.list_checks:
                for name in CHECKS:
                    print(name)
                return 0
            return cmd_verify(cfg)
        if cfg.subcommand == "approximate":
            rows = cmd_approximate(cfg)
            # JSON also records the parameters, so a capped fit shows the formula's n.
            _emit(cfg, rows, {"params": asdict(_mc_params(cfg))} if cfg.algo == "mc" else None)
        elif cfg.subcommand == "convergence":
            _emit(cfg, cmd_convergence(cfg))
        else:
            _emit(cfg, *cmd_bounds(cfg))
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"monoapprox: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
