"""Acceptance suite: the whole check registry, plus the end-to-end criteria.

Criteria 1-11 are entries of the ``monoapprox verify`` registry
(``monoapprox.verify.CHECKS``): each numbered test runs its entry and prints
an ``ACCEPTANCE NN: PASS`` line, so every criterion keeps a test id of its
own, and ``test_registry_check`` runs every other entry, so the suite runs
each check once.  Criterion 10 is the ``grid-rate`` entry; its command-line
sweep is ``test_cli.py::test_convergence_det_slope_footer``.  Criterion 12
fits end to end and has no registry entry; at d = 4, where the sample cap
binds, it asserts that the fit is no better than the constant +1 predictor,
and ``test_criterion_12_capped_regime_check_fails_on_a_fitting_shape`` shows
that assert can fail.  ``test_planted_fault_fails_its_check`` shows that the
checks can fail, every check with at least one planted fault.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including timings.
"""

import dataclasses
import math
import time
from unittest import mock

import numpy as np
import pytest

from monoapprox import approx_det, approx_mc, bounds, functions, haar_basis, metrics
from monoapprox.approx_mc import fit
from monoapprox.bounds import choose_params, ub_error, ub_error_breakdown
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
    "tail-mass": 6, "parseval": 7, "estimator": 8, "grid-guarantee": 9, "grid-rate": 10, "bakhvalov": 11,
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
    accept("grid-rate")


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


def _tail_from_k(f, d, k, r, budget=None, tail_mass=metrics.tail_mass):
    """``tail_mass`` off by one: the mass of indices with at least k active coordinates."""
    return tail_mass(f, d, max(k - 1, 0), r, budget)


def _capped_fit(truth, d, m, *rest, fit_grid=approx_det.fit_grid):
    """``fit_grid`` that stops refining at m = 32, so its error stops falling there."""
    return fit_grid(truth, d, min(m, 32), *rest)


def _estimation_at_sqrt_n(p, ub_error_breakdown=bounds.ub_error_breakdown):
    """``ub_error_breakdown`` charging the estimation term at ``isqrt(n)`` samples, so it falls slower than 1/n."""
    return ub_error_breakdown(dataclasses.replace(p, n=math.isqrt(p.n)))


def _unmasked_is_monotone(values):
    """``lattice_is_monotone`` without its boundary mask: every flat pair ``s`` apart counts."""
    flat, stride = np.ravel(values), np.size(values)
    for size in np.shape(values):
        stride //= size
        if size > 1 and not (flat[stride:] >= flat[:-stride]).all():
            return False
    return True


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
    ("grid-rate", approx_det, "fit_grid", _capped_fit),
    ("families-monotone", functions, "lattice_is_monotone", _unmasked_is_monotone),
    ("lattice-route", functions.StepFamily, "on_columns",
     _altered(functions.StepFamily.on_columns, lambda v: v + 1e-12)),
    ("lattice-route", approx_det.GridModel, "on_columns",
     _altered(approx_det.GridModel.on_columns, lambda v: v + 1e-12)),
    ("parseval", metrics, "coefficient_tensor", _altered(metrics.coefficient_tensor, lambda v: 1.001 * v)),
    ("tail-mass", metrics, "tail_mass", _tail_from_k),
    ("bakhvalov", metrics, "bakhvalov_step_error", _altered(metrics.bakhvalov_step_error, lambda v: v + 1e-9)),
    ("curse", bounds, "n_det_curse", _altered(bounds.n_det_curse, lambda v: 2 * v)),
    ("certificate", bounds, "lb_epshat",
     _altered(bounds.lb_epshat, lambda cert: dataclasses.replace(cert, value=0.07))),
    ("normalization", haar_basis, "psi_d", _altered(haar_basis.psi_d, lambda v: math.sqrt(2) * v)),
    ("generalized-bounded", approx_mc, "eval_generalized", _altered(approx_mc.eval_generalized, lambda v: 2 * v)),
    ("estimator", approx_mc, "estimate_coefficients",
     _altered(approx_mc.estimate_coefficients, lambda table: {index: 1.1 * v for index, v in table.items()})),
    ("grid-sandwich", approx_det.GridModel, "on_columns", _altered(approx_det.GridModel.on_columns, lambda v: -v)),
    ("threshold-monotone", functions, "threshold",
     lambda oracle, t, threshold=functions.threshold: threshold(oracle, -t)),
    ("l1mc-vs-exact", metrics, "l1_mc",
     _altered(metrics.l1_mc, lambda est: dataclasses.replace(est, value=1.1 * est.value))),
    ("lb-numbers", bounds, "lb_curve",
     _altered(bounds.lb_curve, lambda curve: dataclasses.replace(curve, n_lower=1.001 * curve.n_lower))),
    ("certificate-scaling", bounds, "scaled_band", lambda p, tau: (p.alpha0, p.beta0)),  # the band left unscaled
    ("gamma-floor", bounds, "lb_epshat",
     _altered(bounds.lb_epshat, lambda cert: dataclasses.replace(cert, log_gamma=-cert.log_gamma))),
    ("ub-monotone", bounds, "ub_error_breakdown", _estimation_at_sqrt_n),
    # The upper envelope's log is at least 100 times the lower bound's on the
    # check's grid, so only a gross fault crosses it: n_lower where its log belongs.
    ("no-cross", bounds, "lb_curve",
     _altered(bounds.lb_curve, lambda curve: dataclasses.replace(curve, log_n_lower=curve.n_lower))),
]


# A check's first row is named after it, a further row after its owner too.
FAULT_IDS = [name if all(row[0] != name for row in FAULTS[:i]) else f"{name}-{owner.__name__}"
             for i, (name, owner, *_) in enumerate(FAULTS)]


@pytest.mark.parametrize("name, module, attribute, fault", FAULTS, ids=FAULT_IDS)
def test_planted_fault_fails_its_check(name, module, attribute, fault):
    with mock.patch.object(module, attribute, fault):
        ok, _ = CHECKS[name]()
    assert ok is False


def test_every_check_has_a_planted_fault():
    assert sorted(CHECKS) == sorted({name for name, *_ in FAULTS})


def _end_to_end_truth(d: int, rep: int):
    """Replication ``rep``'s sign-valued target: a level set or a cut step function."""
    if rep % 2:
        t = 1 + rep % 2
        return level_set_function(d, t, d, sample_U(d, t, 0.35, (d, rep)))
    cut = np.random.default_rng((57, d, rep)).uniform(-0.8, 0.8)
    return threshold(step_function(d, 4, random_delta(d, 4, (58, d, rep))), cut)


def _criterion_12_fits(d: int, k: int, r: int, n: int) -> np.ndarray:
    """Rows (error, its standard error, constant error, occupied) of sign fits on criterion 12's 20 replications.

    Each fit is scored on 1000 probes (``l1_mc``), and so is the constant +1
    predictor; ``occupied`` counts the probes whose resolution-r cell holds
    a sample.
    """
    rows = []
    for rep in range(20):
        truth = _end_to_end_truth(d, rep)
        model = fit(truth, d, k, r, n, np.random.SeedSequence((55, d, rep)), "sign")
        probe_seed = np.random.SeedSequence((56, d, rep))
        probes = np.random.default_rng(probe_seed).random((1000, d))  # the points l1_mc draws
        cells = np.sort(approx_mc._subset_codes(model.samples.digit_keys, range(d), r))
        queries = approx_mc._subset_codes(approx_mc._cell_keys(probes, r), range(d), r)
        error = l1_mc(truth, model, d, 1000, probe_seed)
        rows.append((error.value, error.std_error,
                     l1_mc(truth, lambda points: np.ones(len(points)), d, 1000, probe_seed).value,
                     (cells[np.minimum(np.searchsorted(cells, queries), len(cells) - 1)] == queries).sum()))
    return np.array(rows)


def _fits_no_better_than_constant(rows: np.ndarray) -> bool:
    """At most 1% of the probes in an occupied cell, and a mean error within 3 SE of the constant's.

    The standard error is that of the mean error, from each fit's ``l1_mc``
    standard error.
    """
    errors, std_errors, constant, occupied = rows.T
    std_error = np.sqrt((std_errors**2).sum()) / len(rows)
    return occupied.sum() <= 0.01 * 1000 * len(rows) and abs(errors.mean() - constant.mean()) <= 3 * std_error


def test_criterion_12_end_to_end_error_below_bound():
    # Both bounds are above 2, the largest L1 distance between two
    # [-1, 1]-valued functions, so the bound asserts cannot fail.  At d = 4
    # the cap binds: the formula's (k, r) = (4, 7) leaves about 200 000 of
    # 2**28 cells occupied, so the fit is the constant +1 predictor almost
    # everywhere, and that is asserted instead of any bound.
    start = time.perf_counter()
    details = []
    for d in (2, 4):
        params = choose_params(0.5, d)
        bound = ub_error(params)
        n_used = min(params.n, END_TO_END_SAMPLE_CAP)
        rows = _criterion_12_fits(d, params.k, params.r, n_used)
        mean_error = float(rows[:, 0].mean())
        assert mean_error <= bound
        details.append(
            f"d={d}: mean error {mean_error:.4f} <= bound {bound:.4f} "
            f"(k={params.k}, r={params.r}, n={n_used} of {params.n})"
        )
        if d == 4:
            assert (params.k, params.r, n_used) == (4, 7, END_TO_END_SAMPLE_CAP)
            assert _fits_no_better_than_constant(rows)
            details.append(f"capped: {rows[:, 3].mean() / 1000:.4f} of probes in occupied cells, "
                           f"constant +1 predictor {rows[:, 2].mean():.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(12, "; ".join(details) + f" ({elapsed:.0f} s)")


def test_criterion_12_capped_regime_check_fails_on_a_fitting_shape():
    # Criterion 12's families are constant on the 4-grid, so at d = 4 the
    # fit at (k, r) = (4, 3) reads them almost exactly: the check that finds
    # the formula's capped fit no better than the constant must fail here.
    rows = _criterion_12_fits(4, 4, 3, END_TO_END_SAMPLE_CAP)
    assert rows[:, 0].mean() < 0.05 < 0.9 < rows[:, 2].mean()
    assert not _fits_no_better_than_constant(rows)


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
    errors, _, constant, _ = _criterion_12_fits(d, params.k, params.r, params.n).T
    mean_error, mean_constant = float(np.mean(errors)), float(np.mean(constant))
    assert mean_error <= bound
    assert mean_constant > bound
    elapsed = time.perf_counter() - start
    report(12, f"d={d}, n={params.n}: mean error {mean_error:.4f} <= {bound:.4f} "
               f"< constant +1 predictor {mean_constant:.4f} ({elapsed:.1f} s)")
