"""Acceptance suite: the whole check registry, plus the end-to-end criteria.

Criteria 1-9 and 11 are entries of the ``monoapprox verify`` registry
(``monoapprox.verify.CHECKS``): each numbered test runs its entry and prints
an ``ACCEPTANCE NN: PASS`` line, so every criterion keeps a test id of its
own, and ``test_registry_check`` runs every other entry, so the suite runs
each check once.  Criterion 10 goes through
``cli.cmd_convergence`` and criterion 12 fits end to end; neither has a
registry entry.  ``test_planted_fault_fails_its_check`` shows that the
checks can fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including timings.
"""

import dataclasses
import time
from unittest import mock

import numpy as np
import pytest

from monoapprox import approx_det, approx_mc, bounds, functions, haar_basis, metrics
from monoapprox.approx_mc import eval_sign, fit
from monoapprox.bounds import choose_params, ub_error, ub_error_breakdown
from monoapprox.cli import ExperimentConfig, cmd_convergence
from monoapprox.functions import (
    level_set_function,
    random_delta,
    sample_U,
    step_function,
    threshold,
)
from monoapprox.metrics import l1_mc
from monoapprox.verify import CHECKS

#: Sample cap for the end-to-end run; the parameter formula requests around
#: 7e5 samples at (eps=0.5, d=2) and 4e11 at (eps=0.5, d=4), the latter far
#: beyond any desk budget.  The fit uses min(formula n, cap); the bound it is
#: compared against is the one for the formula parameters.
END_TO_END_SAMPLE_CAP = 200_000

#: The numbered criteria that are registry checks.
CRITERIA = {
    "certificate": 1, "lb-numbers": 2, "curse": 3, "chi-table": 4, "sign-collapse": 5,
    "tail-mass": 6, "parseval": 7, "estimator": 8, "grid-guarantee": 9, "bakhvalov": 11,
}


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def accept(name: str, within: float | None = None) -> None:
    """Run one registry check as its numbered criterion, optionally under a wall-time limit."""
    start = time.perf_counter()
    ok, detail = CHECKS[name]()
    elapsed = time.perf_counter() - start
    assert ok, detail
    if within is not None:
        assert elapsed < within
    report(CRITERIA[name], f"{detail.splitlines()[0]} ({elapsed:.2f} s)")


def test_criterion_01_certificate_reference_value():
    accept("certificate", within=1.0)


def test_criterion_02_lower_bound_curve_values():
    accept("lb-numbers", within=1.0)


def test_criterion_03_deterministic_curse_floor():
    accept("curse")


def test_criterion_04_chi_equals_brute_force_exhaustively():
    accept("chi-table", within=30.0)


def test_criterion_05_generalized_collapses_to_sign():
    accept("sign-collapse")


def test_criterion_06_tail_mass_bound():
    accept("tail-mass")


def test_criterion_07_parseval():
    accept("parseval")


def test_criterion_08_estimator_statistics():
    accept("estimator")


def test_criterion_09_grid_guarantee():
    accept("grid-guarantee")


def test_criterion_10_deterministic_convergence_rates():
    slopes = {}
    for d, target, tolerance in ((1, -1.0, 0.1), (2, -0.5, 0.15)):
        cfg = ExperimentConfig(
            subcommand="convergence", algo="det", d=d, family="affine",
            n_probe=30000, seed=0,
        )
        rows = cmd_convergence(cfg)
        assert rows[-1]["n"] == "slope"
        slope = rows[-1]["error"]
        assert slope == pytest.approx(target, abs=tolerance)
        slopes[d] = slope
    report(10, f"slopes {slopes[1]:.3f} (d=1), {slopes[2]:.3f} (d=2)")


def test_criterion_11_bakhvalov_average_error_equality():
    accept("bakhvalov")


@pytest.mark.parametrize("name", [name for name in CHECKS if name not in CRITERIA])
def test_registry_check(name):
    ok, detail = CHECKS[name]()
    assert ok, detail


def _upper_corner(model, columns):
    """``GridModel.on_columns`` answering the upper-corner knowledge instead of the midpoint."""
    m = model.m
    cells = np.broadcast_arrays(*[np.minimum((c * m).astype(np.int64), m - 1) for c in columns])
    on_high = np.any([c == m - 1 for c in cells], axis=0)
    return np.where(on_high, 1.0, model.lattice_values[tuple(np.minimum(c, m - 2) for c in cells)])


def _lower_median(model, points):
    """``eval_generalized`` at k = d answering the lower median of x's cell instead of the upper."""
    values, keys = model.samples.values, model.samples.digit_keys
    cells = (np.sort(values[(keys == row).all(axis=1)]) for row in approx_mc._query_keys(model, points))
    return np.array([y[(len(y) - 1) // 2] + 0.0 if len(y) else 1.0 for y in cells])


def _altered(function, change):
    """``function`` with ``change`` applied to its result."""
    return lambda *args, **kwargs: change(function(*args, **kwargs))


# One planted fault per row: (check, module, attribute, replacement).
FAULTS = [
    ("orthonormality", haar_basis, "psi_d", _altered(haar_basis.psi_d, lambda v: 1.01 * v)),
    ("index-count", haar_basis, "index_set_size",
     _altered(haar_basis.index_set_size, lambda size: size._replace(exact=size.exact + 1))),
    ("chi-table", approx_mc, "chi_table",
     _altered(approx_mc.chi_table, lambda table: tuple(v + 1 for v in table))),
    ("flip-recursion", approx_mc, "_run_flips",
     _altered(approx_mc._run_flips, lambda rows: ((-s_0, *rest) for s_0, *rest in rows))),
    ("sign-collapse", approx_mc, "eval_generalized", _altered(approx_mc.eval_generalized, lambda v: -v)),
    ("cell-statistics", approx_mc, "eval_generalized", _lower_median),
    ("grid-guarantee", approx_det.GridModel, "on_columns", _upper_corner),
    ("lattice-route", functions.StepFamily, "on_columns",
     _altered(functions.StepFamily.on_columns, lambda v: v + 1e-12)),
    ("lattice-route", approx_det.GridModel, "on_columns",
     _altered(approx_det.GridModel.on_columns, lambda v: v + 1e-12)),
    ("parseval", metrics, "coefficient_tensor", _altered(metrics.coefficient_tensor, lambda v: 1.001 * v)),
    ("bakhvalov", metrics, "bakhvalov_step_error", _altered(metrics.bakhvalov_step_error, lambda v: v + 1e-9)),
    ("curse", bounds, "n_det_curse", _altered(bounds.n_det_curse, lambda v: 2 * v)),
    ("certificate", bounds, "lb_epshat",
     _altered(bounds.lb_epshat, lambda cert: dataclasses.replace(cert, value=0.07))),
]


# A check's first row is named after it, a further row after its owner too.
FAULT_IDS = [name if all(row[0] != name for row in FAULTS[:i]) else f"{name}-{owner.__name__}"
             for i, (name, owner, *_) in enumerate(FAULTS)]


@pytest.mark.parametrize("name, module, attribute, fault", FAULTS, ids=FAULT_IDS)
def test_planted_fault_fails_its_check(name, module, attribute, fault):
    with mock.patch.object(module, attribute, fault):
        ok, _ = CHECKS[name]()
    assert ok is False


def _end_to_end_truth(d: int, rep: int):
    """Replication ``rep``'s sign-valued target: a level set or a cut step function."""
    if rep % 2:
        t = 1 + rep % 2
        return level_set_function(d, t, d, sample_U(d, t, 0.35, (d, rep)))
    cut = np.random.default_rng((57, d, rep)).uniform(-0.8, 0.8)
    return threshold(step_function(d, 4, random_delta(d, 4, (58, d, rep))), cut)


def test_criterion_12_end_to_end_error_below_bound():
    start = time.perf_counter()
    details = []
    for d in (2, 4):
        params = choose_params(0.5, d)
        bound = ub_error(params)
        n_used = min(params.n, END_TO_END_SAMPLE_CAP)
        errors = []
        for rep in range(20):
            truth = _end_to_end_truth(d, rep)
            model = fit(truth, d, params.k, params.r, n_used,
                        np.random.SeedSequence((55, d, rep)), "sign")
            err = l1_mc(truth, lambda points: eval_sign(model, points), d, 1000,
                        np.random.SeedSequence((56, d, rep)))
            errors.append(err.value)
        mean_error = float(np.mean(errors))
        assert mean_error <= bound
        details.append(
            f"d={d}: mean error {mean_error:.4f} <= bound {bound:.4f} "
            f"(k={params.k}, r={params.r}, n={n_used} of {params.n})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(12, "; ".join(details) + f" ({elapsed:.0f} s)")


def test_criterion_12_formula_n_error_below_exact_tail_bound():
    # ub_error charges the tail term 4 sqrt(d r)/(k+1) even at k = d, where
    # the truncation drops nothing; at d = 2 that bound is 4.94, above the
    # L1 distance 2 of any two [-1, 1]-valued functions, so criterion 12
    # cannot fail there.  With the exact tail 0 the bound is resolution plus
    # estimation, which the constant predictor exceeds.
    start = time.perf_counter()
    d = 2
    params = choose_params(0.5, d)
    assert params.k == d
    parts = ub_error_breakdown(params)
    bound = parts.resolution_term + parts.estimation_term
    errors, constant = [], []
    for rep in range(20):
        truth = _end_to_end_truth(d, rep)
        model = fit(truth, d, params.k, params.r, params.n,
                    np.random.SeedSequence((55, d, rep)), "sign")
        probe_seed = np.random.SeedSequence((56, d, rep))
        errors.append(l1_mc(truth, lambda points: eval_sign(model, points), d, 1000, probe_seed).value)
        constant.append(l1_mc(truth, lambda points: np.ones(len(points)), d, 1000, probe_seed).value)
    mean_error, mean_constant = float(np.mean(errors)), float(np.mean(constant))
    assert mean_error <= bound
    assert mean_constant > bound
    elapsed = time.perf_counter() - start
    report(12, f"d={d}, n={params.n}: mean error {mean_error:.4f} <= {bound:.4f} "
               f"< constant +1 predictor {mean_constant:.4f} ({elapsed:.1f} s)")
