"""The check registry: each fact of the paper, derived once.

Each check re-derives an expected value by an independent route (brute-force
enumeration, exact integer arithmetic, closed forms) and compares it against
the library implementation, returning ``(ok, detail)``.  The registry backs
``monoapprox verify``, and the acceptance suite runs every entry, so a check
runs at one scale: the sizes, seeds and tolerances the tests hold the library
to.  ``pair_kernel``, ``brute_average_error`` and ``family_rule`` are the
exact references the tests import as well; ``family_rule`` is the one
vectorised statement of each family's defining rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import lru_cache
from itertools import accumulate, product
from typing import Callable

import numpy as np

from . import approx_det, approx_mc, bounds, functions, haar_basis, metrics

CheckResult = tuple[bool, str]


@lru_cache(maxsize=4096)
def _half(alpha: int, z: float) -> int:
    # psi_alpha(z) / 2**(level/2): +1 on the upper half of the support, -1 on
    # the lower half, 0 outside.
    level = alpha.bit_length() - 1
    shift = alpha - (1 << level)
    child = haar_basis.cell_of_point(float(z), level + 1)
    if child == 2 * shift + 1:
        return 1
    if child == 2 * shift:
        return -1
    return 0


def pair_kernel(indices, sample, x) -> int:
    """Exact integer ``sum_alpha psi_alpha(sample) psi_alpha(x)`` over ``indices``.

    Each nonzero product is a signed power of two, so the sum is an integer;
    floating psi products can land at +-1e-16 around an exact zero.
    """
    total = 0
    for index in indices:
        term = 1
        for alpha, sj, xj in zip(index.alphas, sample, x):
            if alpha:
                term *= _half(alpha, sj) * _half(alpha, xj) * (1 << (alpha.bit_length() - 1))
                if term == 0:
                    break
        total += term
    return total


def _check_orthonormality() -> CheckResult:
    # Midpoint sums at resolution r are exact inner products for basis
    # functions with every level below r.
    worst = 0.0
    for d, r in ((1, 3), (2, 2), (2, 3)):
        scale = 1 << r
        points = list(product((np.arange(scale) + 0.5) / scale, repeat=d))
        basis = np.array([[haar_basis.psi_d(index, x) for x in points]
                          for index in haar_basis.enumerate_indices(d, d, r)])
        gram = basis @ basis.T / scale**d
        worst = max(worst, float(np.abs(gram - np.eye(len(basis))).max()))
    return worst <= 1e-12, f"max |gram - identity| = {worst:.2e}"


def _check_normalization() -> CheckResult:
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        index = haar_basis.MultiIndex(tuple(int(a) for a in rng.integers(0, 8, size=d)))
        x = rng.random(d)
        value = haar_basis.psi_d(index, x)
        if value != 0.0 and abs(value**2 * index.support_volume - 1.0) > 1e-12:
            return False, f"psi^2 * volume != 1 at {index}"
    return True, "psi^2 * support volume = 1 wherever psi != 0"


def _check_index_count() -> CheckResult:
    for d in range(1, 6):
        for r in range(1, 4):
            for k in range(0, d + 1):
                size = haar_basis.index_set_size(d, k, r)
                count = sum(1 for _ in haar_basis.enumerate_indices(d, k, r))
                if count != size.exact or size.exact > size.bound:
                    return False, f"count mismatch at d={d} k={k} r={r}"
    return True, "enumerated counts match the closed form, exact <= bound"


def _check_chi_table() -> CheckResult:
    # Every (d <= 4, r <= 3, k) and every pattern of matching coordinates.
    checked = 0
    for d in range(1, 5):
        for r in range(1, 4):
            for k in range(0, d + 1):
                indices = list(haar_basis.enumerate_indices(d, k, r))
                table = approx_mc.chi_table(d, k, r)
                for pattern in product((True, False), repeat=d):
                    x = [0.1 if matched else 0.9 for matched in pattern]
                    expected = pair_kernel(indices, [0.1] * d, x)
                    if table[sum(pattern)] != expected:
                        return False, f"chi({sum(pattern)}; d={d} k={k} r={r}) != {expected}"
                    checked += 1
    return True, f"{checked} (d, r, k, match-pattern) cases, exact integer equality"


def _check_flip_recursion() -> CheckResult:
    # The flips eval_generalized reads at k < d, rebuilt into s_0..s_n,
    # against the sign of n g_i = S - 2 T_i, with T_i the exact prefix sums
    # of pair_kernel over the samples in the model's value order.  A sample
    # set keeps no points, so the check draws them as draw_samples does.
    d, k, r = 3, 1, 2
    indices = list(haar_basis.enumerate_indices(d, k, r))
    rng = np.random.default_rng(11)
    for truth, n, seed, queries in ((functions.boxbslash(d), 40, rng, rng),
                                    (functions.Affine(d), 30, 77, np.random.default_rng(10))):
        points = np.random.default_rng(seed).random((n, d))
        model = approx_mc.WaveletModel(k, "generalized", approx_mc.SampleSet(points, truth(points), r))
        xs = queries.random((20, d))
        for x, (s_0, s_n, at, before) in zip(xs, approx_mc._run_flips(model, approx_mc._cell_keys(xs, r))):
            prefix = [0, *accumulate(pair_kernel(indices, points[i], x) for i in model.order)]
            expected = [1.0 if prefix[-1] - 2 * t >= 0 else -1.0 for t in prefix]
            signs = s_0 * (-1.0) ** np.searchsorted(at, np.arange(n + 1), side="right")
            if signs.tolist() != expected or signs[-1] != s_n or not np.array_equal(signs[at - 1], before):
                return False, f"threshold-cut signs differ from the exact prefix sums at {x}"
    return True, "every threshold-cut sign at k < d equals that of the exact double sum"


def _check_sign_collapse() -> CheckResult:
    def fits():
        rng = np.random.default_rng(5)
        for _ in range(4):
            d = int(rng.integers(2, 5))
            truth = functions.level_set_function(d, 1, d, functions.sample_U(d, 1, 0.5, int(rng.integers(2**31))))
            yield truth, d, 1, 2, 64, int(rng.integers(2**31)), rng.random((100, d))
        rng = np.random.default_rng(1234)
        for trial in range(20):
            d = 2 + trial % 5
            if trial % 2:
                truth = functions.boxbslash(d)
            else:
                truth = functions.level_set_function(d, 1, d, functions.sample_U(d, 1, 0.4, 100 + trial))
            yield truth, d, 1 + trial % 2, 1 + trial % 2, 50 + 37 * trial, 10_000 + trial, rng.random((1000, d))

    probes = pairs = 0
    for truth, d, k, r, n, seed, xs in fits():
        sign = approx_mc.eval_sign(approx_mc.fit(truth, d, k, r, n, seed, "sign"), xs)
        generalized = approx_mc.eval_generalized(approx_mc.fit(truth, d, k, r, n, seed, "generalized"), xs)
        if not np.array_equal(sign, generalized):
            return False, f"sign/generalized outputs differ at {xs[sign != generalized][0]}"
        probes, pairs = probes + len(xs), pairs + 1
    return True, f"{probes} probe evaluations, exact sign agreement on {pairs} pairs of fits"


def _check_cell_statistics() -> CheckResult:
    # At k = d only the full cell's c_T is nonzero: against a brute-force
    # sort of each query cell, linear is 2**(r d) S/n, sign is sgn S and
    # generalized is the upper median (+1 when empty, +0.0 for a zero).
    # Values are multiples of 1/8, so every sum is exact in any order; d = 8,
    # r = 8 and d = 10, r = 9 (64 and 90 bits) read coordinate runs in every
    # mode, the others read the tables and the full-cell runs.
    rng = np.random.default_rng(41)
    routes = set()
    for d, r, n in ((1, 2, 1), (2, 2, 60), (3, 1, 40), (2, 6, 400), (8, 8, 300), (10, 9, 300)):
        base = rng.random((max(n // 5, 1), d))
        points = np.concatenate([base[rng.integers(0, len(base), n - n // 10)], rng.random((n // 10, d))])
        keys = approx_mc._cell_keys(points, r)
        for sign_valued in (False, True):
            values = rng.choice([-1.0, 1.0], n) if sign_valued else rng.integers(-8, 9, n) / 8
            if not sign_valued:
                values[(keys == keys[0]).all(axis=1)] = -0.0
            samples = approx_mc.SampleSet(points, values, resolution=r)
            models = {mode: approx_mc.WaveletModel(d, mode, samples) for mode in approx_mc.MODES}
            routes.add("runs" if models["sign"].tables is None else "tables")
            queries = np.concatenate([points, rng.random((20, d))])
            linear = approx_mc.eval_linear(models["linear"], queries)
            sign = approx_mc.eval_sign(models["sign"], queries)
            generalized = approx_mc.eval_generalized(models["generalized"], queries)
            for x, cell, got in zip(queries, approx_mc._cell_keys(queries, r), zip(linear, sign, generalized)):
                y = sorted(values[(keys == cell).all(axis=1)])
                median = y[len(y) // 2] if y else 1.0
                expected = (2.0 ** (r * d) * sum(y) / n, 1.0 if sum(y) >= 0 else -1.0, median if median else 0.0)
                if np.array(got).tobytes() != np.array(expected).tobytes():
                    return False, f"(linear, sign, generalized) = {got}, want {expected} at {x} (d={d}, r={r})"
    return True, f"cell mean, sign and upper median at k = d on the {' and '.join(sorted(routes))} routes"


def _check_generalized_bounded() -> CheckResult:
    for n, seed, probe_seed in ((50, 99, 13), (60, 8, 9)):
        model = approx_mc.fit(functions.Affine(3), 3, 2, 2, n, seed, "generalized")
        values = approx_mc.eval_generalized(model, np.random.default_rng(probe_seed).random((200, 3)))
        escaped = ~(np.abs(values) <= 1.0)  # NaN escapes too
        if escaped.any():
            return False, f"output {values[escaped][0]} escapes [-1, 1]"
    return True, "generalized outputs stay in [-1, 1]"


def _check_estimator() -> CheckResult:
    r = k = 2
    cases = ((2, 128, 200, 321, [(0, 0), (1, 0), (2, 1)]),
             (3, 256, 500, 777, [(0, 0, 0), (1, 0, 0), (0, 2, 0), (3, 0, 0), (1, 1, 0)]))
    for d, n, reps, seed, alphas in cases:
        chosen = [haar_basis.MultiIndex(a) for a in alphas]
        truth = functions.snap_to_grid(functions.boxbslash(d), d, r)
        estimates = np.empty((reps, len(chosen)))
        for rep in range(reps):
            samples = approx_mc.draw_samples(d, n, truth, np.random.SeedSequence((seed, rep)))
            table = approx_mc.estimate_coefficients(samples, d, k, r)
            estimates[rep] = [table[index] for index in chosen]
        for index, values in zip(chosen, estimates.T):
            std_error = values.std(ddof=1) / math.sqrt(reps)
            if abs(values.mean() - metrics.exact_coefficient(truth, index, d, r)) > 4 * std_error:
                return False, f"mean of estimates off by >4 SE at {index} (d={d})"
            if values.var(ddof=1) > 1.2 / n:
                return False, f"estimator variance exceeds 1.2/n at {index} (d={d})"
    return True, "8 coefficients over 200 and 500 replications: unbiased within 4 SE, variance <= 1.2/n"


def _check_grid_guarantee() -> CheckResult:
    def fits():
        for bits in product((0, 1), repeat=4):
            yield functions.step_function(2, 2, np.array(bits).reshape(2, 2)), 2, 2
        for seed in (*range(20), *range(300, 350)):
            truth = functions.level_set_function(3, 1, 3, functions.sample_U(3, 1, 0.4, seed))
            for m in (2, 4):
                yield truth, 3, m

    worst, count = 0.0, 0
    for truth, d, m in fits():
        model = approx_det.fit_grid(truth, d, m)
        err = metrics.l1_exact_dyadic(truth, model, d, m.bit_length() - 1)
        if err.value > approx_det.grid_error_bound(d, m):
            return False, f"error {err.value} exceeds d/m = {d}/{m}"
        worst, count = max(worst, err.value * m / d), count + 1
    return True, f"exact L1 error <= d/m on {count} monotone truths (worst {worst:.3f} d/m)"


def _check_grid_sandwich() -> CheckResult:
    cases = ((functions.level_set_function(3, 1, 3, functions.sample_U(3, 1, 0.5, 4)), 3, 17),
             (functions.step_function(2, 4, functions.random_delta(2, 4, 1)), 2, 5))
    m = 4
    for truth, d, seed in cases:
        model = approx_det.fit_grid(truth, d, m)
        xs = np.random.default_rng(seed).random((200, d))
        for x, out in zip(xs, model(xs)):
            cell = [min(int(xj * m), m - 1) for xj in x]
            lower = -1.0 if 0 in cell else float(model.lattice_values[tuple(c - 1 for c in cell)])
            upper = 1.0 if m - 1 in cell else float(model.lattice_values[tuple(cell)])
            if not min(lower, upper) - 1e-12 <= out <= max(lower, upper) + 1e-12:
                return False, f"output escapes corner knowledge at {x}"
    return True, "outputs sandwiched between corner knowledge"


def _check_grid_rate() -> CheckResult:
    slopes = []
    for d, n_probe, seed_head, target, tolerance in ((1, 20000, 2, -1.0, 0.1), (1, 30000, 1, -1.0, 0.15),
                                                     (2, 30000, 2, -0.5, 0.15)):
        truth = functions.Affine(d)
        points = []
        for m in (16, 32, 64, 128):
            model = approx_det.fit_grid(truth, d, m)
            err = metrics.l1_mc(truth, model, d, n_probe, (seed_head, m))
            points.append(((m - 1) ** d, err.value))
        slope = metrics.fit_rate(points)
        slopes.append(f"{slope:.3f} (d={d})")
        if abs(slope - target) > tolerance:
            return False, f"d={d} slope {slope:.3f}, want {target} +- {tolerance}"
    return True, "slopes " + ", ".join(slopes)


def _check_families_monotone() -> CheckResult:
    cases = [
        (functions.boxbslash(3), 3, 4),
        (functions.step_function(2, 3, functions.random_delta(2, 3, 0)), 2, 3),
        (functions.level_set_function(4, 2, 3, functions.sample_U(4, 2, 0.4, 1)), 4, 2),
        (functions.Affine(2), 2, 5),
    ]
    for oracle, d, res in cases:
        if not functions.is_monotone_on_grid(oracle, d, res):
            return False, f"{type(oracle).__name__} fails the lattice check"
    return True, "all family members pass the lattice monotonicity check"


def family_rule(oracle, points: np.ndarray) -> np.ndarray:
    """A family's or grid model's values at an (n, d) batch by its defining rule, not its kernel."""
    d = points.shape[1]
    if isinstance(oracle, approx_det.GridModel):  # the midpoint of the corner knowledge
        m, values = oracle.m, oracle.lattice_values
        cells = np.minimum((points * m).astype(np.intp), m - 1)
        lower = np.where((cells == 0).any(axis=1), -1.0, values[tuple(np.maximum(cells - 1, 0).T)])
        upper = np.where((cells == m - 1).any(axis=1), 1.0, values[tuple(np.minimum(cells, m - 2).T)])
        return 0.5 * (lower + upper)
    if isinstance(oracle, functions.StepFamily):
        cells = np.minimum((points * oracle.m).astype(np.intp), oracle.m - 1)
        return 2.0 * (cells.sum(axis=1) + oracle.delta[tuple(cells.T)]) / oracle.denominator - 1.0
    if isinstance(oracle, functions.LevelSetFunction):
        bits = points >= 0.5
        masks = bits.astype(np.intp) @ (1 << np.arange(d))
        covered = bits.sum(axis=1) > oracle.b
        for u in oracle.members:
            covered |= (masks & u) == u
        return np.where(covered, 1.0, -1.0)
    if isinstance(oracle, functions.Affine):
        return 2.0 * points.sum(axis=1) / d - 1.0
    if isinstance(oracle, functions.Boxbslash):
        return np.where(points.sum(axis=1) - d / 2.0 >= 0.0, 1.0, -1.0)
    if isinstance(oracle, functions._Thresholded):
        return np.where(family_rule(oracle.oracle, points) >= oracle.t, 1.0, -1.0)
    scale = 1 << oracle.r  # a _Snapped oracle
    return family_rule(oracle.oracle, (np.minimum((points * scale).astype(np.int64), scale - 1) + 0.5) / scale)


def _check_lattice_route() -> CheckResult:
    # (2, 200) takes 199 slabs of one axis each; the others are one slab.
    for d, m in ((4, 5), (9, 3), (2, 200)):
        step = functions.step_function(d, 3, functions.random_delta(d, 3, d))
        oracles = (step, functions.level_set_function(d, 1, max(1, d // 2), functions.sample_U(d, 1, 0.5, d)),
                   functions.Affine(d), functions.boxbslash(d), functions.threshold(step, 0.1),
                   functions.snap_to_grid(functions.Affine(d), d, 2), approx_det.fit_grid(functions.Affine(d), d, 4))
        coords = np.arange(1, m) / m
        points = np.stack(np.meshgrid(*[coords] * d, indexing="ij"), axis=-1).reshape(-1, d)
        for oracle in oracles:
            rule = family_rule(oracle, points).tobytes()
            by_columns = functions.lattice_values(oracle, coords, d).tobytes()
            by_points = functions.lattice_values(lambda batch: oracle(batch), coords, d).tobytes()
            if not by_columns == by_points == rule:
                return False, f"{type(oracle).__name__} at d={d}, m={m}: lattice bytes differ between routes"
    return True, ("every family and a fitted grid model by columns and by points, and every wrapper, "
                  "gives the lattice bytes of its rule")


def _check_threshold_monotone() -> CheckResult:
    rng = np.random.default_rng(23)
    oracle = functions.step_function(2, 4, functions.random_delta(2, 4, 3))
    for _ in range(200):
        x = rng.random((1, 2))
        t0, t1 = sorted(rng.uniform(-1.2, 1.2, size=2))
        if functions.threshold(oracle, t0)(x)[0] < functions.threshold(oracle, t1)(x)[0]:
            return False, f"threshold output increased in t at {x}"
    return True, "threshold outputs nonincreasing in t"


def _check_parseval() -> CheckResult:
    worst = 0.0
    for seed, shapes in ((29, ((1, 3), (2, 2), (3, 2))), (77, ((1, 3), (2, 2), (3, 2))),
                         (86, tuple(product((1, 2, 3), (1, 2))))):
        rng = np.random.default_rng(seed)
        for d, r in shapes:
            scale = 1 << r
            values = rng.uniform(-1, 1, size=(scale,) * d)

            def oracle(points, values=values, scale=scale):
                return values[tuple(np.minimum((points * scale).astype(np.int64), scale - 1).T)]

            tensor = metrics.coefficient_tensor(oracle, d, r)
            l2_squared = float((values**2).sum()) / scale**d
            worst = max(worst, abs(float((tensor**2).sum()) - l2_squared))
    return worst <= 1e-10, f"coefficient mass equals the exact squared L2 norm (worst gap {worst:.2e})"


def _check_tail_mass() -> CheckResult:
    def truths():
        # Step functions on random bits and level sets of random width ...
        rng = np.random.default_rng(4321)
        for trial in range(100):
            d, r = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            if trial % 2:
                m = 2 if r == 1 else int(rng.choice([2, 4]))
                yield d, r, functions.step_function(d, m, rng.integers(0, 2, size=(m,) * d))
            else:
                t = int(rng.integers(1, d + 1))
                yield d, r, functions.level_set_function(d, t, d, functions.sample_U(d, t, 0.5, 200 + trial))
        # ... and perturbed steps and width-1 level sets.
        for seed, trials in ((11, 30), (31, 20)):
            rng = np.random.default_rng(seed)
            for trial in range(trials):
                d, r = int(rng.integers(2, 4)), int(rng.integers(1, 3))
                if trial % 2:
                    yield d, r, functions.step_function(d, 2, functions.random_delta(d, 2, trial))
                else:
                    yield d, r, functions.level_set_function(d, 1, d, functions.sample_U(d, 1, 0.5, trial))

    count = 0
    for d, r, truth in truths():
        for k in range(0, d + 1):
            mass = metrics.tail_mass(truth, d, k, r)
            if mass > math.sqrt(d * r) / (k + 1):
                return False, f"tail mass {mass} exceeds sqrt(dr)/(k+1) at d={d} r={r} k={k}"
        count += 1
    return True, f"tail mass <= sqrt(dr)/(k+1) on {count} random monotone functions, every k"


def brute_average_error(d: int, m: int, sampled) -> float:
    """Average exact error of the best algorithm over all perturbations.

    For each assignment of bits the optimal output copies revealed cells and
    takes the midpoint of the two candidate values elsewhere; its error is
    integrated exactly cell by cell.
    """
    revealed = set(map(tuple, sampled))
    denominator = d * (m - 1) + 1
    cells = list(product(range(m), repeat=d))
    total = 0.0
    for bits in product((0, 1), repeat=len(cells)):
        err = 0.0
        for cell, bit in zip(cells, bits):
            if cell not in revealed:
                value = 2.0 * (sum(cell) + bit) / denominator - 1.0
                midpoint = (2.0 * sum(cell) + 1.0) / denominator - 1.0
                err += abs(value - midpoint) / m**d
        total += err
    return total / 2 ** len(cells)


def _check_bakhvalov() -> CheckResult:
    d = m = 2
    cells = list(product(range(m), repeat=d))
    subsets = ([], [(0, 0)], [(0, 1)], [(0, 0), (1, 1)], [(1, 0), (0, 1)], [(0, 0), (1, 1), (0, 1)],
               [(1, 0), (0, 1), (1, 1)], cells)
    for sampled in subsets:
        closed = metrics.bakhvalov_step_error(d, m, sampled)
        if abs(closed - (1 - len(set(sampled)) / m**d) / (d * (m - 1) + 1)) > 1e-15:
            return False, f"closed form mismatch for {sampled}"
        if abs(closed - brute_average_error(d, m, sampled)) > 1e-12:
            return False, f"brute-force average mismatch for {sampled}"
    return True, f"closed form equals the brute-force average over all {2 ** len(cells)} perturbations"


def _check_l1mc_vs_exact() -> CheckResult:
    details = []
    for delta_seed, p, u_seed, n_probe, seed in ((8, 0.6, 9, 20000, 10), (4, 0.5, 5, 40000, 6)):
        f = functions.step_function(2, 2, functions.random_delta(2, 2, delta_seed))
        g = functions.level_set_function(2, 1, 2, functions.sample_U(2, 1, p, u_seed))
        exact = metrics.l1_exact_dyadic(f, g, 2, 1)
        est = metrics.l1_mc(f, g, 2, n_probe, seed)
        details.append(f"mc {est.value:.4f} vs exact {exact.value:.4f} (+-{est.std_error:.4f})")
        if abs(est.value - exact.value) > 4 * max(est.std_error, 1e-12):
            return False, details[-1]
    return True, "; ".join(details)


def _check_certificate() -> CheckResult:
    params = bounds.default_lb_params()
    cert = bounds.lb_epshat(params, params.d0)
    lines = [f"  {name} = {getattr(cert, name)!r}" for name in (
        "c_ab", "r0", "kappa_tau", "c_abt", "c1", "sigma", "r1", "r_b",
        "log_gamma", "q0", "q_mass", "q", "value",
    )]
    # The conservative Berry-Esseen constant reproduces the reference value;
    # the sharp lower estimate lands visibly away.
    sharp = bounds.lb_epshat(replace(params, c0=bounds.BERRY_ESSEEN_LOWER), params.d0)
    ok = (abs(cert.value - 0.0666667) <= 1e-3 and params.c0 == bounds.BERRY_ESSEEN_UPPER == 0.4748
          and abs(sharp.value - 0.0666667) > 1e-3)
    detail = (f"epshat(d=100) = {cert.value!r}, reference 0.0666667 (|diff| <= 1e-3: {ok}, C0 = {params.c0}; "
              f"sharp C0 gives {sharp.value!r})")
    return ok, detail + "\n" + "\n".join(lines)


def _check_lb_numbers() -> CheckResult:
    params = bounds.default_lb_params()
    at_100 = bounds.lb_curve(params, 1 / 15, 100)
    at_400 = bounds.lb_curve(params, 1 / 15, 400)
    expected_400 = 108.0 * math.exp(10.0)
    ok = (
        at_100.valid
        and at_100.regime == "scaling"
        and abs(at_100.n_lower - 108.0) <= 1e-12 * 108.0
        and at_400.valid
        and abs(at_400.n_lower - expected_400) <= 32 * np.spacing(expected_400)
    )
    return ok, f"n_lower(1/15, 100) = {at_100.n_lower!r}, n_lower(1/15, 400) = {at_400.n_lower!r}"


def _check_curse() -> CheckResult:
    for d in range(1, 31):
        if bounds.n_det_curse(0.5, d) != float(2 ** (d - 1)):
            return False, f"floor wrong at d={d}"
    return True, "n_det_curse(1/2, d) = 2**(d-1) exactly for d = 1..30"


def _check_certificate_scaling() -> CheckResult:
    p = bounds.default_lb_params()
    base = bounds.lb_epshat(p, p.d0)
    for d in (100, 144, 169, 225, 256, 400):
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            tau = p.tau0 * (1.0 + frac * (math.sqrt(d / p.d0) - 1.0))
            alpha, beta = bounds.scaled_band(p, tau)
            cert = bounds.lb_epshat(p, d, alpha, beta, tau)
            if cert.sigma > base.sigma + 1e-12:
                return False, f"sigma fails to contract at d={d} tau={tau}"
            if cert.q < base.q - 1e-12:
                return False, f"q fails to grow at d={d} tau={tau}"
            if cert.r_b < (p.tau0 / tau) * base.r_b - 1e-12:
                return False, f"r_b scaling fails at d={d} tau={tau}"
            if not cert.value > p.eps0 * p.tau0 / tau:
                return False, f"epshat below eps0 tau0/tau at d={d} tau={tau}"
    return True, "sigma contracts, q grows, r_b scales by tau0/tau, epshat > eps0 tau0/tau on the grid"


def _check_gamma_floor() -> CheckResult:
    p = bounds.default_lb_params()
    for d in (100, 169, 200, 256, 400):
        for tau in p.tau0 * (1.0 + np.linspace(0.0, 1.0, 5) * (math.sqrt(d / p.d0) - 1.0)):
            alpha, beta = bounds.scaled_band(p, tau)
            cert = bounds.lb_epshat(p, d, alpha, beta, tau)
            if cert.log_gamma < 0.0:
                return False, f"gamma below 1 at d={d} tau={tau}"
    return True, "gamma >= 1 on the admissible region"


def _check_ub_monotone() -> CheckResult:
    base = bounds.McParams(6, 2, 4, 1000, 0.5)
    b0 = bounds.ub_error_breakdown(base)
    more_n = bounds.ub_error_breakdown(bounds.McParams(6, 2, 4, 2000, 0.5))
    more_k = bounds.ub_error_breakdown(bounds.McParams(6, 3, 4, 1000, 0.5))
    more_r = bounds.ub_error_breakdown(bounds.McParams(6, 2, 5, 1000, 0.5))
    ok = (
        more_n.total < b0.total
        and more_k.tail_term < b0.tail_term
        and more_r.resolution_term < b0.resolution_term
        and more_n.estimation_term * 2 == b0.estimation_term
    )
    return ok, "bound decreases in n and k; first term decreases in r"


def _check_no_cross() -> CheckResult:
    p = bounds.default_lb_params()
    for d in (100, 200, 400, 900):
        low = p.eps0 * math.sqrt(p.d0 / d)
        grid = [low + (p.eps0 - low) * i / 10 for i in range(11)] + [float(e) for e in np.linspace(low, p.eps0, 9)]
        for eps in grid:
            lower = bounds.lb_curve(p, eps, d)
            upper = bounds.n_ran_upper_breakdown(eps, d)
            if min(upper.log_stochastic_branch, upper.log_deterministic_branch) < lower.log_n_lower:
                return False, f"upper < lower at eps={eps} d={d}"
    return True, "complexity envelope stays above the certified lower bound"


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "orthonormality": _check_orthonormality,
    "normalization": _check_normalization,
    "index-count": _check_index_count,
    "chi-table": _check_chi_table,
    "flip-recursion": _check_flip_recursion,
    "cell-statistics": _check_cell_statistics,
    "sign-collapse": _check_sign_collapse,
    "generalized-bounded": _check_generalized_bounded,
    "estimator": _check_estimator,
    "grid-guarantee": _check_grid_guarantee,
    "grid-sandwich": _check_grid_sandwich,
    "grid-rate": _check_grid_rate,
    "families-monotone": _check_families_monotone,
    "lattice-route": _check_lattice_route,
    "threshold-monotone": _check_threshold_monotone,
    "parseval": _check_parseval,
    "tail-mass": _check_tail_mass,
    "bakhvalov": _check_bakhvalov,
    "l1mc-vs-exact": _check_l1mc_vs_exact,
    "certificate": _check_certificate,
    "lb-numbers": _check_lb_numbers,
    "curse": _check_curse,
    "certificate-scaling": _check_certificate_scaling,
    "gamma-floor": _check_gamma_floor,
    "ub-monotone": _check_ub_monotone,
    "no-cross": _check_no_cross,
}


def run_checks(only: list[str] | None = None):
    """Run the named checks (all by default); returns (name, ok, seconds, detail) tuples.

    A check that raises fails with the exception as its detail, and the
    remaining checks still run.
    """
    results = []
    for name in only or CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = CHECKS[name]()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, time.perf_counter() - start, detail))
    return results
