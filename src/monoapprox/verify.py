"""Desk-scale property checks runnable from the command line.

Each check re-derives an expected value by an independent route (brute-force
enumeration, exact integer arithmetic, closed forms) and compares it against
the library implementation.  The registry backs ``monoapprox verify``; the
test suite covers the same ground at larger scale.
"""

from __future__ import annotations

import math
import time
from itertools import product
from typing import Callable

import numpy as np

from . import approx_det, approx_mc, bounds, functions, haar_basis, metrics

CheckResult = tuple[bool, str]


def _check_orthonormality() -> CheckResult:
    worst = 0.0
    for d, r in ((1, 3), (2, 2), (2, 3)):
        scale = 1 << r
        mids = (np.arange(scale) + 0.5) / scale
        one_dim = np.array([[haar_basis.psi_1d(a, x) for x in mids] for a in range(scale)])
        full = one_dim
        for _ in range(d - 1):
            full = np.kron(full, one_dim)
        gram = full @ full.T / scale**d
        worst = max(worst, float(np.abs(gram - np.eye(scale**d)).max()))
    return worst <= 1e-12, f"max |gram - identity| = {worst:.2e}"


def _check_partition() -> CheckResult:
    for levels in ((3,), (1, 2), (2, 2, 1)):
        total = sum(
            haar_basis.DyadicCell(levels, cells).volume
            for cells in product(*(range(1 << l) for l in levels))
        )
        if total != 1:
            return False, f"volumes at levels {levels} sum to {total}"
    return True, "cell volumes sum to 1 exactly"


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


def _brute_chi(b: int, d: int, k: int, r: int) -> int:
    # Exact integer sum of psi_alpha(X) psi_alpha(x) over the truncated index
    # set, for any pair matching in exactly b leading coordinates.
    x_point = [0.1] * b + [0.9] * (d - b)
    sample = [0.1] * d
    total = 0
    for index in haar_basis.enumerate_indices(d, k, r):
        term = 1
        for alpha, xj, sj in zip(index.alphas, x_point, sample):
            if alpha == 0:
                continue
            level = alpha.bit_length() - 1
            shift = alpha - (1 << level)

            def half(z: float) -> int:
                child = haar_basis.cell_of_point(z, level + 1)
                if child == 2 * shift + 1:
                    return 1
                if child == 2 * shift:
                    return -1
                return 0

            term *= half(xj) * half(sj) * (1 << level)
            if term == 0:
                break
        total += term
    return total


def _check_chi_table() -> CheckResult:
    for d in range(1, 4):
        for r in range(1, 3):
            for k in range(0, d + 1):
                for b in range(0, d + 1):
                    expected = _brute_chi(b, d, k, r)
                    got = approx_mc.chi_value(b, d, k, r)
                    if got != expected:
                        return False, f"chi({b}; d={d} k={k} r={r}) = {got} != {expected}"
    return True, "chi matches brute-force index sums exactly"


def _check_flip_recursion() -> CheckResult:
    rng = np.random.default_rng(11)
    d, k, r, n = 2, 2, 2, 40
    model = approx_mc.fit(functions.boxbslash(d), d, k, r, n, rng, "generalized")
    for _ in range(20):
        x = rng.random(d)
        numerators = approx_mc._flip_numerators(model, approx_mc._cell_keys(x, r))
        g0 = float(numerators[0]) / n
        brute = math.fsum(
            haar_basis.psi_d(index, sx) * haar_basis.psi_d(index, x)
            for index in haar_basis.enumerate_indices(d, k, r)
            for sx in model.samples.points
        ) / n
        if abs(g0 - brute) > 1e-10 or numerators[-1] != -numerators[0]:
            return False, f"flip recursion mismatch at {x}"
    return True, "g_0 matches the double sum; g_n = -g_0 exactly"


def _check_sign_collapse() -> CheckResult:
    rng = np.random.default_rng(5)
    for trial in range(4):
        d = int(rng.integers(2, 5))
        oracle = functions.level_set_function(
            d, 1, d, functions.sample_U(d, 1, 0.5, int(rng.integers(2**31)))
        )
        seed = int(rng.integers(2**31))
        sign_model = approx_mc.fit(oracle, d, 1, 2, 64, seed, "sign")
        gen_model = approx_mc.fit(oracle, d, 1, 2, 64, seed, "generalized")
        xs = rng.random((100, d))
        differ = approx_mc.eval_sign(sign_model, xs) != approx_mc.eval_generalized(gen_model, xs)
        if differ.any():
            return False, f"sign/generalized outputs differ at {xs[differ][0]}"
    return True, "generalized output collapses to the sign output on sign-valued data"


def _check_generalized_bounded() -> CheckResult:
    rng = np.random.default_rng(13)
    smooth = functions.Affine(3)
    model = approx_mc.fit(smooth, 3, 2, 2, 50, 99, "generalized")
    values = approx_mc.eval_generalized(model, rng.random((200, 3)))
    escaped = ~(np.abs(values) <= 1.0)  # NaN escapes too
    if escaped.any():
        return False, f"output {values[escaped][0]} escapes [-1, 1]"
    return True, "generalized outputs stay in [-1, 1]"


def _check_estimator() -> CheckResult:
    d, r, k, n, reps = 2, 2, 2, 128, 200
    oracle = functions.snap_to_grid(functions.boxbslash(d), d, r)
    indices = [
        haar_basis.MultiIndex.of(0, 0),
        haar_basis.MultiIndex.of(1, 0),
        haar_basis.MultiIndex.of(2, 1),
    ]
    exact = {i: metrics.exact_coefficient(oracle, i, d, r) for i in indices}
    draws: dict[haar_basis.MultiIndex, list[float]] = {i: [] for i in indices}
    for rep in range(reps):
        table = approx_mc.estimate_coefficients(
            approx_mc.draw_samples(d, n, oracle, np.random.SeedSequence((321, rep))), d, k, r
        )
        for i in indices:
            draws[i].append(table[i])
    for i in indices:
        arr = np.array(draws[i])
        se = arr.std(ddof=1) / math.sqrt(reps)
        if abs(arr.mean() - exact[i]) > 4 * se:
            return False, f"mean of estimates off by >4 SE at {i}"
        if arr.var(ddof=1) > 1.2 / n:
            return False, f"estimator variance exceeds 1.2/n at {i}"
    return True, "estimates unbiased within 4 SE, variance <= 1.2/n"


def _check_grid_guarantee() -> CheckResult:
    worst = -1.0
    for bits in product((0, 1), repeat=4):
        truth = functions.step_function(2, 2, np.array(bits).reshape(2, 2))
        model = approx_det.fit_grid(truth, 2, 2)
        err = metrics.l1_exact_dyadic(truth, lambda points: approx_det.eval_grid(model, points), 2, 1)
        worst = max(worst, err.value)
        if err.value > approx_det.grid_error_bound(2, 2):
            return False, f"error {err.value} exceeds d/m for bits {bits}"
    return True, f"exhaustive step family respects d/m (worst {worst:.3f})"


def _check_grid_sandwich() -> CheckResult:
    rng = np.random.default_rng(17)
    truth = functions.level_set_function(3, 1, 3, functions.sample_U(3, 1, 0.5, 4))
    model = approx_det.fit_grid(truth, 3, 4)
    xs = rng.random((200, 3))
    for x, out in zip(xs, approx_det.eval_grid(model, xs)):
        cell = [min(int(xj * 4), 3) for xj in x]
        lower = -1.0 if 0 in cell else float(model.lattice_values[tuple(c - 1 for c in cell)])
        upper = 1.0 if 3 in cell else float(model.lattice_values[tuple(cell)])
        if not min(lower, upper) - 1e-12 <= out <= max(lower, upper) + 1e-12:
            return False, f"output escapes corner knowledge at {x}"
    return True, "outputs sandwiched between corner knowledge"


def _check_grid_rate() -> CheckResult:
    pts = []
    truth = functions.Affine(1)
    for m in (16, 32, 64, 128):
        model = approx_det.fit_grid(truth, 1, m)
        err = metrics.l1_mc(truth, lambda points: approx_det.eval_grid(model, points), 1, 20000, (2, m))
        pts.append(((m - 1) ** 1, err.value))
    slope = metrics.fit_rate(pts)
    return abs(slope + 1.0) <= 0.1, f"d=1 slope {slope:.3f} (want -1 +- 0.1)"


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
    rng = np.random.default_rng(29)
    worst = 0.0
    for d, r in ((1, 3), (2, 2), (3, 2)):
        values = rng.uniform(-1, 1, size=((1 << r),) * d)
        scale = 1 << r

        def oracle(points, values=values, scale=scale):
            return values[tuple(np.minimum((points * scale).astype(np.int64), scale - 1).T)]

        tensor = metrics.coefficient_tensor(oracle, d, r)
        l2_sq = float((values**2).sum()) / scale**d
        worst = max(worst, abs(float((tensor**2).sum()) - l2_sq))
    return worst <= 1e-10, f"max |sum coeff^2 - L2^2| = {worst:.2e}"


def _check_tail_mass() -> CheckResult:
    rng = np.random.default_rng(31)
    for trial in range(20):
        d = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        if trial % 2:
            oracle = functions.step_function(d, 2, functions.random_delta(d, 2, trial))
        else:
            oracle = functions.level_set_function(
                d, 1, d, functions.sample_U(d, 1, 0.5, trial)
            )
        for k in range(0, d + 1):
            mass = metrics.tail_mass(oracle, d, k, r)
            if mass > math.sqrt(d * r) / (k + 1):
                return False, f"tail mass {mass} exceeds bound at d={d} r={r} k={k}"
    return True, "tail mass bounded by sqrt(dr)/(k+1) on all sampled functions"


def _check_bakhvalov() -> CheckResult:
    d = m = 2
    for j, cells in enumerate(([], [(0, 0)], [(0, 0), (1, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)])):
        got = metrics.bakhvalov_step_error(d, m, cells)
        expected = (1 - j_distinct(cells) / m**d) / (d * (m - 1) + 1)
        if abs(got - expected) > 1e-15:
            return False, f"closed form mismatch for {cells}"
    return True, "average-error closed form matches (1 - j/m^d)/(d(m-1)+1)"


def j_distinct(cells) -> int:
    return len(set(map(tuple, cells)))


def _check_l1mc_vs_exact() -> CheckResult:
    f = functions.step_function(2, 2, functions.random_delta(2, 2, 8))
    g = functions.level_set_function(2, 1, 2, functions.sample_U(2, 1, 0.6, 9))
    exact = metrics.l1_exact_dyadic(f, g, 2, 1)
    est = metrics.l1_mc(f, g, 2, 20000, 10)
    ok = abs(est.value - exact.value) <= 4 * max(est.std_error, 1e-12)
    return ok, f"mc {est.value:.4f} vs exact {exact.value:.4f} (+-{est.std_error:.4f})"


def _check_certificate() -> CheckResult:
    params = bounds.default_lb_params()
    cert = bounds.lb_epshat(params, params.d0)
    lines = [f"  {name} = {getattr(cert, name)!r}" for name in (
        "c_ab", "r0", "kappa_tau", "c_abt", "c1", "sigma", "r1", "r_b",
        "log_gamma", "q0", "q_mass", "q", "value",
    )]
    ok = abs(cert.value - 0.0666667) <= 1e-3
    detail = f"epshat(d=100) = {cert.value!r}, reference 0.0666667 (|diff| <= 1e-3: {ok})"
    return ok, detail + "\n" + "\n".join(lines)


def _check_lb_numbers() -> CheckResult:
    params = bounds.default_lb_params()
    at_100 = bounds.lb_curve(params, 1 / 15, 100)
    at_400 = bounds.lb_curve(params, 1 / 15, 400)
    ok = (
        at_100.valid
        and abs(at_100.n_lower - 108.0) <= 1e-9 * 108.0
        and at_400.valid
        and abs(at_400.n_lower - 108.0 * math.exp(10.0)) <= 1e-12 * at_400.n_lower
    )
    return ok, f"n_lower(1/15, 100) = {at_100.n_lower!r}, n_lower(1/15, 400) = {at_400.n_lower!r}"


def _check_curse() -> CheckResult:
    for d in range(1, 31):
        if bounds.n_det_curse(0.5, d) != float(2 ** (d - 1)):
            return False, f"floor wrong at d={d}"
    return True, "deterministic floor equals 2**(d-1) exactly for d <= 30"


def _check_certificate_scaling() -> CheckResult:
    p = bounds.default_lb_params()
    base = bounds.lb_epshat(p, p.d0)
    for d in (100, 144, 225, 400):
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
    return True, "sigma contracts, q grows, r_b scales by tau0/tau on the grid"


def _check_gamma_floor() -> CheckResult:
    p = bounds.default_lb_params()
    for d in (100, 200, 400):
        for tau in (p.tau0, p.tau0 * math.sqrt(d / p.d0)):
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
        for i in range(11):
            low = p.eps0 * math.sqrt(p.d0 / d)
            eps = low + (p.eps0 - low) * i / 10
            lower = bounds.lb_curve(p, eps, d)
            upper = bounds.n_ran_upper_breakdown(eps, d)
            if min(upper.log_stochastic_branch, upper.log_deterministic_branch) < lower.log_n_lower:
                return False, f"upper < lower at eps={eps} d={d}"
    return True, "complexity envelope stays above the certified lower bound"


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "orthonormality": _check_orthonormality,
    "partition": _check_partition,
    "normalization": _check_normalization,
    "index-count": _check_index_count,
    "chi-table": _check_chi_table,
    "flip-recursion": _check_flip_recursion,
    "sign-collapse": _check_sign_collapse,
    "generalized-bounded": _check_generalized_bounded,
    "estimator": _check_estimator,
    "grid-guarantee": _check_grid_guarantee,
    "grid-sandwich": _check_grid_sandwich,
    "grid-rate": _check_grid_rate,
    "families-monotone": _check_families_monotone,
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
    """Run the named checks (all by default); yields (name, ok, seconds, detail)."""
    names = list(CHECKS) if not only else list(only)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {sorted(CHECKS)}")
    results = []
    for name in names:
        start = time.perf_counter()
        ok, detail = CHECKS[name]()
        results.append((name, ok, time.perf_counter() - start, detail))
    return results
