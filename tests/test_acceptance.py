"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including timings.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from monoapprox.approx_det import eval_grid, fit_grid, grid_error_bound
from monoapprox.approx_mc import (
    chi_value,
    draw_samples,
    estimate_coefficients,
    eval_generalized,
    eval_sign,
    fit,
)
from monoapprox.bounds import (
    BERRY_ESSEEN_UPPER,
    choose_params,
    default_lb_params,
    lb_curve,
    lb_epshat,
    n_det_curse,
    ub_error,
    ub_error_breakdown,
)
from monoapprox.cli import ExperimentConfig, cmd_convergence
from monoapprox.functions import (
    boxbslash,
    level_set_function,
    random_delta,
    sample_U,
    snap_to_grid,
    step_function,
    threshold,
)
from monoapprox.haar_basis import MultiIndex, cell_of_point, enumerate_indices
from monoapprox.metrics import (
    bakhvalov_step_error,
    coefficient_tensor,
    exact_coefficient,
    l1_exact_dyadic,
    l1_mc,
    tail_mass,
)

#: Sample cap for the end-to-end run; the parameter formula requests around
#: 7e5 samples at (eps=0.5, d=2) and 4e11 at (eps=0.5, d=4), the latter far
#: beyond any desk budget.  The fit uses min(formula n, cap); the bound it is
#: compared against is the one for the formula parameters.
END_TO_END_SAMPLE_CAP = 200_000


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_criterion_01_certificate_reference_value():
    start = time.perf_counter()
    params = default_lb_params()
    cert = lb_epshat(params, 100)
    elapsed = time.perf_counter() - start
    assert abs(cert.value - 0.0666667) <= 1e-3
    assert params.c0 == BERRY_ESSEEN_UPPER == 0.4748
    assert elapsed < 1.0
    report(1, f"epshat(d=100) = {cert.value:.9f} (C0 = {params.c0}, {elapsed * 1e3:.1f} ms)")


def test_criterion_02_lower_bound_curve_values():
    start = time.perf_counter()
    params = default_lb_params()
    at_100 = lb_curve(params, 1 / 15, 100)
    at_400 = lb_curve(params, 1 / 15, 400)
    elapsed = time.perf_counter() - start
    assert at_100.valid and at_100.n_lower == pytest.approx(108.0, rel=1e-12)
    expected_400 = 108.0 * math.exp(10.0)
    assert at_400.valid
    assert abs(at_400.n_lower - expected_400) <= 32 * np.spacing(expected_400)
    assert elapsed < 1.0
    report(2, f"n_lower = {at_100.n_lower:.6f} at d=100, {at_400.n_lower:.6e} at d=400")


def test_criterion_03_deterministic_curse_floor():
    for d in range(1, 31):
        assert n_det_curse(0.5, d) == float(2 ** (d - 1))
    report(3, "n_det_curse(1/2, d) = 2**(d-1) exactly for d = 1..30")


def _psi_half(alpha: int, z: float, cache={}) -> int:
    key = (alpha, z)
    if key not in cache:
        level = alpha.bit_length() - 1
        shift = alpha - (1 << level)
        child = cell_of_point(z, level + 1)
        if child == 2 * shift + 1:
            cache[key] = 1
        elif child == 2 * shift:
            cache[key] = -1
        else:
            cache[key] = 0
    return cache[key]


def _brute_pair_sum(indices, sample, x) -> int:
    total = 0
    for index in indices:
        term = 1
        for alpha, sj, xj in zip(index.alphas, sample, x):
            if alpha == 0:
                continue
            term *= _psi_half(alpha, sj) * _psi_half(alpha, xj) * (1 << (alpha.bit_length() - 1))
            if term == 0:
                break
        total += term
    return total


def test_criterion_04_chi_equals_brute_force_exhaustively():
    start = time.perf_counter()
    checked = 0
    for d in range(1, 5):
        for r in range(1, 4):
            for k in range(0, d + 1):
                indices = list(enumerate_indices(d, k, r))
                table = [chi_value(b, d, k, r) for b in range(d + 1)]
                for pattern in product((True, False), repeat=d):
                    sample = [0.1] * d
                    x = [0.1 if matched else 0.9 for matched in pattern]
                    b = sum(pattern)
                    assert table[b] == _brute_pair_sum(indices, sample, x)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"{checked} (d, r, k, match-pattern) cases, exact integer equality ({elapsed:.1f} s)")


def test_criterion_05_generalized_collapses_to_sign():
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(20):
        d = 2 + trial % 5  # dimensions 2..6
        if trial % 2:
            truth = boxbslash(d)
        else:
            truth = level_set_function(d, 1, d, sample_U(d, 1, 0.4, 100 + trial))
        k = 1 + trial % 2
        r = 1 + trial % 2
        n = 50 + 37 * trial
        seed = 10_000 + trial
        sign_model = fit(truth, d, k, r, n, seed, "sign")
        gen_model = fit(truth, d, k, r, n, seed, "generalized")
        xs = rng.random((1000, d))
        assert np.array_equal(eval_sign(sign_model, xs), eval_generalized(gen_model, xs))
        checked += len(xs)
    report(5, f"{checked} probe evaluations, exact sign agreement on 20 fits")


def test_criterion_06_tail_mass_bound():
    rng = np.random.default_rng(4321)
    violations = 0
    for trial in range(100):
        d = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        if trial % 2:
            m = 2 if r == 1 else int(rng.choice([2, 4]))
            bits = rng.integers(0, 2, size=(m,) * d)
            truth = step_function(d, m, bits)
        else:
            t = int(rng.integers(1, d + 1))
            truth = level_set_function(d, t, d, sample_U(d, t, 0.5, 200 + trial))
        for k in range(0, d + 1):
            if tail_mass(truth, d, k, r) > math.sqrt(d * r) / (k + 1):
                violations += 1
    assert violations == 0
    report(6, "tail mass <= sqrt(dr)/(k+1) on 100 random functions, all k, zero violations")


def test_criterion_07_parseval():
    rng = np.random.default_rng(86)
    worst = 0.0
    for d in (1, 2, 3):
        for r in (1, 2):
            scale = 1 << r
            cells = rng.uniform(-1.0, 1.0, size=(scale,) * d)

            def oracle(points, cells=cells, scale=scale):
                return cells[tuple(np.minimum((points * scale).astype(np.int64), scale - 1).T)]

            tensor = coefficient_tensor(oracle, d, r)
            l2_squared = float((cells**2).sum()) / scale**d
            worst = max(worst, abs(float((tensor**2).sum()) - l2_squared))
    assert worst <= 1e-10
    report(7, f"coefficient mass equals the exact squared L2 norm (worst gap {worst:.2e})")


def test_criterion_08_estimator_statistics():
    d, r, k, n, replications = 3, 2, 2, 256, 500
    truth = snap_to_grid(boxbslash(d), d, r)
    chosen = [
        MultiIndex.of(0, 0, 0),
        MultiIndex.of(1, 0, 0),
        MultiIndex.of(0, 2, 0),
        MultiIndex.of(3, 0, 0),
        MultiIndex.of(1, 1, 0),
    ]
    exact = {index: exact_coefficient(truth, index, d, r) for index in chosen}
    estimates = {index: np.empty(replications) for index in chosen}
    for rep in range(replications):
        samples = draw_samples(d, n, truth, np.random.SeedSequence((777, rep)))
        table = estimate_coefficients(samples, d, k, r)
        for index in chosen:
            estimates[index][rep] = table[index]
    for index in chosen:
        values = estimates[index]
        std_error = values.std(ddof=1) / math.sqrt(replications)
        assert abs(values.mean() - exact[index]) <= 4 * std_error
        assert values.var(ddof=1) <= 1.2 / n
    report(8, f"5 coefficients over {replications} replications: unbiased within 4 SE, variance <= 1.2/n")


def test_criterion_09_grid_guarantee():
    violations = 0
    for bits in product((0, 1), repeat=4):
        truth = step_function(2, 2, np.array(bits).reshape(2, 2))
        model = fit_grid(truth, 2, 2)
        err = l1_exact_dyadic(truth, lambda points: eval_grid(model, points), 2, 1)
        if err.value > grid_error_bound(2, 2) + 1e-12:
            violations += 1
    for trial in range(50):
        truth = level_set_function(3, 1, 3, sample_U(3, 1, 0.4, 300 + trial))
        for m in (2, 4):
            model = fit_grid(truth, 3, m)
            err = l1_exact_dyadic(truth, lambda points: eval_grid(model, points), 3, m.bit_length() - 1)
            if err.value > grid_error_bound(3, m) + 1e-12:
                violations += 1
    assert violations == 0
    report(9, "exact L1 error <= d/m on every tested monotone truth (116 fits)")


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
    d = m = 2
    denominator = d * (m - 1) + 1
    cells = list(product(range(m), repeat=d))
    subsets = [[], [(0, 0)], [(0, 1)], [(0, 0), (1, 1)], [(1, 0), (0, 1), (1, 1)], cells]
    for sampled in subsets:
        j = len(set(map(tuple, sampled)))
        closed = bakhvalov_step_error(d, m, sampled)
        assert closed == pytest.approx((1 - j / m**d) / denominator, abs=1e-15)
        # Independent route: enumerate all perturbations, integrate the exact
        # error of the optimal midpoint-on-unseen-cells algorithm.
        total = 0.0
        revealed = set(map(tuple, sampled))
        for bits in product((0, 1), repeat=len(cells)):
            delta = dict(zip(cells, bits))
            err = 0.0
            for cell in cells:
                if cell in revealed:
                    continue
                value = 2.0 * (sum(cell) + delta[cell]) / denominator - 1.0
                midpoint = (2.0 * sum(cell) + 1.0) / denominator - 1.0
                err += abs(value - midpoint) / m**d
            total += err
        assert abs(closed - total / 2 ** len(cells)) <= 1e-12
    report(11, "closed form equals the brute-force average over all 16 perturbations")


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
