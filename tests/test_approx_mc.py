import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoapprox.approx_mc import (
    SampleSet,
    WaveletModel,
    chi_table,
    chi_value,
    draw_samples,
    estimate_coefficients,
    eval_generalized,
    eval_linear,
    eval_sign,
    fit,
    match_count,
    reconstruction_value,
    _flip_numerators,
)
from monoapprox.functions import Affine, boxbslash, snap_to_grid
from monoapprox.haar_basis import MultiIndex, cell_of_point, enumerate_indices, psi_1d, psi_d


# ---------------------------------------------------------------------------
# sampling


def test_draw_samples_constant_oracle():
    samples = draw_samples(1, 3, lambda x: 0.0, 123)
    assert samples.n == 3 and samples.d == 1
    assert np.array_equal(samples.values, [0.0, 0.0, 0.0])


def test_draw_samples_sign_valued_oracle():
    samples = draw_samples(2, 100, boxbslash(2), 7)
    assert set(np.unique(samples.values)) <= {-1.0, 1.0}


def test_draw_samples_reproducible():
    a = draw_samples(3, 50, boxbslash(3), 99)
    b = draw_samples(3, 50, boxbslash(3), 99)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.values, b.values)


def test_draw_samples_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        draw_samples(1, 5, lambda x: 2.0, 0)


def test_sample_set_digit_keys_and_sorting():
    samples = draw_samples(2, 40, Affine(2), 5).with_resolution(3)
    for i in range(samples.n):
        for j in range(2):
            assert samples.digit_keys[i, j] == cell_of_point(samples.points[i, j], 3)
    by_value = samples.sorted()
    assert by_value.sorted_by_value
    assert np.all(np.diff(by_value.values) >= 0)
    assert by_value.resolution == 3


# ---------------------------------------------------------------------------
# coefficient estimation


def brute_table(samples, d, k, r):
    return {
        index: math.fsum(
            psi_d(index, x) * y for x, y in zip(samples.points, samples.values)
        ) / samples.n
        for index in enumerate_indices(d, k, r)
    }


def test_estimate_constant_oracle_zero_index():
    samples = draw_samples(2, 30, lambda x: 1.0, 1)
    table = estimate_coefficients(samples, 2, 1, 2)
    assert table[MultiIndex.of(0, 0)] == pytest.approx(1.0)


def test_estimate_single_sample_equals_psi_times_value():
    samples = SampleSet(np.array([[0.3, 0.8]]), np.array([0.5]))
    table = estimate_coefficients(samples, 2, 2, 2)
    for index in enumerate_indices(2, 2, 2):
        assert table[index] == pytest.approx(psi_d(index, (0.3, 0.8)) * 0.5)


def test_estimate_matches_brute_force():
    rng = np.random.default_rng(17)
    for d, k, r in ((1, 1, 2), (2, 1, 2), (2, 2, 1), (3, 2, 2)):
        samples = draw_samples(d, 50, Affine(d), rng)
        table = estimate_coefficients(samples, d, k, r)
        brute = brute_table(samples, d, k, r)
        for index, expected in brute.items():
            assert table[index] == pytest.approx(expected, abs=1e-12)


def test_estimate_recovers_single_wavelet_target():
    # The target is itself the alpha = 1 wavelet, so that coefficient is 1.
    target = boxbslash(1)
    samples = draw_samples(1, 4000, target, 3)
    table = estimate_coefficients(samples, 1, 1, 2)
    assert table[MultiIndex.of(1)] == pytest.approx(1.0, abs=0.06)


def test_coefficient_table_requires_complete_keys():
    from monoapprox.approx_mc import CoefficientTable

    with pytest.raises(ValueError):
        CoefficientTable(2, 1, 1, {MultiIndex.of(0, 0): 1.0})


def test_estimate_coefficients_respects_table_budget():
    from monoapprox.budget import BudgetExceededError

    samples = draw_samples(3, 10, boxbslash(3), 0)
    with pytest.raises(BudgetExceededError):
        estimate_coefficients(samples, 3, 3, 3, budget=100)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5], [1.5]]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5]]), np.array([2.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5], [0.6]]), np.array([0.5, -0.5]), sorted_by_value=True)
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5]]), np.array([0.0, 1.0]))


def test_sample_set_rejects_non_finite_points():
    # NaN fails every comparison, so a min/max range test alone lets it
    # through and its digit key becomes INT64_MIN.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.5, bad]]), np.array([1.0]))


def test_wavelet_model_validation():
    samples = draw_samples(2, 8, boxbslash(2), 1)
    keyed = samples.with_resolution(2)
    model = WaveletModel(1, "sign", keyed)
    assert (model.d, model.r, model.n) == (2, 2, 8)  # read off the samples
    assert model.chi.tolist() == list(chi_table(2, 1, 2))
    with pytest.raises(ValueError):
        WaveletModel(1, "sign", samples)  # digit keys missing
    with pytest.raises(ValueError):
        WaveletModel(3, "sign", keyed)  # k > d
    with pytest.raises(ValueError):
        WaveletModel(1, "typo", keyed)
    with pytest.raises(TypeError):
        WaveletModel(1, "sign", keyed, chi=chi_table(2, 2, 2))  # chi is built, never passed


# ---------------------------------------------------------------------------
# linear and sign evaluation


def _midpoint_model(k, mode, d, r, value_of):
    """Model on one sample at the midpoint of every resolution-r cell.

    At ``k = d`` the reconstruction is the resolution-r cell mean, so these
    samples realise any piecewise-constant coefficient table exactly.
    """
    mids = (np.arange(1 << r) + 0.5) / (1 << r)
    points = np.array(list(product(mids, repeat=d)))
    samples = SampleSet(points, np.array([value_of(p) for p in points])).with_resolution(r)
    return WaveletModel(k, mode, samples)


def test_eval_linear_constant_table():
    model = _midpoint_model(2, "linear", 2, 1, lambda p: 0.7)
    assert eval_linear(model, (0.1, 0.9)) == pytest.approx(0.7)


def test_eval_linear_single_wavelet_table():
    # Values -1 / +1 on the two halves: exactly the alpha = 1 wavelet.
    model = _midpoint_model(1, "linear", 1, 1, lambda p: psi_1d(1, p[0]))
    assert eval_linear(model, (0.2,)) == pytest.approx(-1.0)
    assert eval_linear(model, (0.8,)) == pytest.approx(1.0)


def test_eval_linear_reproduces_piecewise_constant_target():
    truth = snap_to_grid(boxbslash(2), 2, 2)
    model = _midpoint_model(2, "linear", 2, 2, truth)
    rng = np.random.default_rng(23)
    for x in rng.random((200, 2)):
        assert eval_linear(model, x) == pytest.approx(truth(x), abs=1e-10)


def test_eval_linear_requires_linear_mode():
    model = fit(boxbslash(2), 2, 1, 1, 10, 0, "sign")
    with pytest.raises(ValueError):
        eval_linear(model, (0.5, 0.5))


def test_eval_sign_convention():
    def constant(value):
        return _midpoint_model(1, "sign", 1, 1, lambda p: value)

    assert eval_sign(constant(0.0), (0.4,)) == 1.0  # sgn(0) = +1
    assert eval_sign(constant(-0.3), (0.4,)) == -1.0
    assert eval_sign(constant(1.0), (0.4,)) == 1.0
    assert eval_sign(constant(-1.0), (0.4,)) == -1.0
    # A sign-valued tie: the exact integer numerator is 0, so the sign is +1.
    tie = SampleSet(np.array([[0.1], [0.2]]), np.array([1.0, -1.0])).with_resolution(1)
    assert eval_sign(WaveletModel(1, "sign", tie), (0.4,)) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_reconstruction_value_table_and_chi_routes_agree(d, r, n, sign_valued, seed, data):
    # The model never builds coefficients; the explicit coefficient table
    # summed against the basis is the reference for the chi identity.
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], n) if sign_valued else rng.uniform(-1.0, 1.0, n)
    samples = SampleSet(rng.random((n, d)), values)
    table = estimate_coefficients(samples, d, k, r)
    model = WaveletModel(k, "linear", samples.with_resolution(r))
    for x in np.concatenate([rng.random((4, d)), samples.points[:2]]):
        expected = math.fsum(c * psi_d(index, x) for index, c in table.items())
        assert eval_linear(model, x) == pytest.approx(expected, abs=1e-12)


def test_object_route_keeps_sums_exact():
    # d = k = 8, r = 7: chi(8) = 2**56, so 1000 samples in one cell sum to
    # 1000 * 2**56 > 2**63.  The model sizes its guard from the real n and
    # carries Python integers instead of wrapping around in int64.
    d, k, r, n = 8, 8, 7, 1000
    point = np.full(d, 0.3)
    samples = SampleSet(np.tile(point, (n, 1)), np.ones(n)).with_resolution(r)
    sign = WaveletModel(k, "sign", samples)
    generalized = WaveletModel(k, "generalized", samples.sorted())
    assert sign.chi.dtype == object and chi_value(d, d, k, r) == 2**56
    assert eval_sign(sign, point) == 1.0
    assert eval_generalized(generalized, point) == 1.0
    assert reconstruction_value(sign, point) == (n * 2**56) / n


def test_int64_and_object_routes_agree():
    # Duplicating every sample doubles each integer numerator, which leaves
    # signs and h unchanged while n crosses the int64 guard.
    d, k, r = 8, 7, 7
    chi_max = max(abs(c) for c in chi_table(d, k, r))
    n = (2**63 - 1) // (3 * chi_max)  # the largest n the int64 route takes
    rng = np.random.default_rng(21)
    points = rng.random((n, d))
    for values in (rng.choice([-1.0, 1.0], n), rng.uniform(-1.0, 1.0, n)):
        small = SampleSet(points, values).with_resolution(r)
        double = SampleSet(np.repeat(points, 2, axis=0), np.repeat(values, 2)).with_resolution(r)
        models = [(WaveletModel(k, "sign", s), WaveletModel(k, "generalized", s.sorted()))
                  for s in (small, double)]
        (sign64, gen64), (sign_obj, gen_obj) = models
        assert sign64.chi.dtype == np.int64 and sign_obj.chi.dtype == object
        for x in np.concatenate([rng.random((5, d)), points[:5]]):
            assert eval_sign(sign64, x) == eval_sign(sign_obj, x)
            assert reconstruction_value(sign64, x) == pytest.approx(reconstruction_value(sign_obj, x), rel=1e-12)
            assert np.array_equal(2 * _flip_numerators(gen64, x), _flip_numerators(gen_obj, x)[::2])
            assert eval_generalized(gen64, x) == pytest.approx(eval_generalized(gen_obj, x), abs=1e-12)


# ---------------------------------------------------------------------------
# digit matching and the chi table


def test_match_count_examples():
    keys = [cell_of_point(v, 3) for v in (0.3, 0.6)]
    assert match_count((0.3, 0.6), keys, 3) == 2
    assert match_count((0.1, 0.9), [cell_of_point(v, 1) for v in (0.4, 0.2)], 1) == 1
    assert match_count((0.1, 0.9), [cell_of_point(v, 2) for v in (0.6, 0.3)], 2) == 0


def brute_chi(b, d, k, r):
    """Exact integer sum of psi(X) psi(x) over the index set for a pair whose
    digit keys agree in exactly the first b coordinates."""
    sample = [0.1] * d
    x = [0.1] * b + [0.9] * (d - b)

    def half(alpha, z):
        level = alpha.bit_length() - 1
        shift = alpha - (1 << level)
        child = cell_of_point(z, level + 1)
        if child == 2 * shift + 1:
            return 1
        if child == 2 * shift:
            return -1
        return 0

    total = 0
    for index in enumerate_indices(d, k, r):
        term = 1
        for alpha, sj, xj in zip(index.alphas, sample, x):
            if alpha == 0:
                continue
            term *= half(alpha, sj) * half(alpha, xj) * (1 << (alpha.bit_length() - 1))
            if term == 0:
                break
        total += term
    return total


def test_chi_value_examples():
    assert chi_value(1, 1, 1, 1) == 2
    assert chi_value(0, 1, 1, 1) == 0
    for d in (1, 2, 3):
        for r in (1, 2):
            assert chi_value(d, d, d, r) == 2 ** (r * d)
            assert chi_value(d, d, d, r) == brute_chi(d, d, d, r)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_chi_value_matches_brute_force(d, r, data):
    k = data.draw(st.integers(0, d))
    b = data.draw(st.integers(0, d))
    assert chi_value(b, d, k, r) == brute_chi(b, d, k, r)


def test_chi_table_contents():
    d, k, r = 3, 2, 2
    assert chi_table(d, k, r) == tuple(chi_value(b, d, k, r) for b in range(d + 1))


# ---------------------------------------------------------------------------
# generalized evaluation


def test_generalized_all_positive_samples():
    # Every value +1: in a cell matched by every sample the output is +1.
    points = np.full((5, 2), 0.1)
    values = np.ones(5)
    samples = SampleSet(points, values, sorted_by_value=True).with_resolution(2)
    model = WaveletModel(1, "generalized", samples)
    assert eval_generalized(model, (0.05, 0.05)) == 1.0


def test_generalized_empty_information_returns_plus_one():
    samples = SampleSet(
        np.empty((0, 2)), np.empty(0), sorted_by_value=True
    ).with_resolution(1)
    assert eval_generalized(WaveletModel(1, "generalized", samples), (0.3, 0.8)) == 1.0
    assert eval_sign(WaveletModel(1, "sign", samples), (0.3, 0.8)) == 1.0


def test_generalized_requires_sorted_samples():
    samples = draw_samples(2, 10, Affine(2), 0).with_resolution(1)
    with pytest.raises(RuntimeError):
        WaveletModel(1, "generalized", samples)


def test_generalized_collapses_to_sign_on_sign_valued_data():
    rng = np.random.default_rng(6)
    for seed in range(5):
        d = int(rng.integers(1, 4))
        truth = boxbslash(d)
        sign_model = fit(truth, d, 1, 2, 33, seed, "sign")
        gen_model = fit(truth, d, 1, 2, 33, seed, "generalized")
        for x in rng.random((50, d)):
            assert eval_sign(sign_model, x) == eval_generalized(gen_model, x)


def test_generalized_output_bounded():
    model = fit(Affine(3), 3, 2, 2, 60, 8, "generalized")
    rng = np.random.default_rng(9)
    for x in rng.random((200, 3)):
        assert -1.0 <= eval_generalized(model, x) <= 1.0


def test_flip_recursion_identities():
    d, k, r, n = 2, 2, 2, 30
    model = fit(Affine(d), d, k, r, n, 77, "generalized")
    rng = np.random.default_rng(10)
    for x in rng.random((20, d)):
        numerators = _flip_numerators(model, x)
        # All-flipped reconstruction is the negated all-ones reconstruction.
        assert numerators[-1] == -numerators[0]
        # The all-ones value matches the double sum over the index set.
        brute = math.fsum(
            psi_d(index, sx) * psi_d(index, x)
            for index in enumerate_indices(d, k, r)
            for sx in model.samples.points
        )
        assert numerators[0] / n == pytest.approx(brute / n, abs=1e-10)


def exact_pair_kernel(index_list, sample_point, x) -> int:
    """Integer value of sum_alpha psi_alpha(sample) psi_alpha(x).

    Each nonzero product is a signed power of two, so the sum is an exact
    integer; floating psi products can land at +-1e-16 around an exact zero
    and flip the sign of a reconstruction that should be zero.
    """

    def half(alpha, z):
        level = alpha.bit_length() - 1
        shift = alpha - (1 << level)
        child = cell_of_point(float(z), level + 1)
        if child == 2 * shift + 1:
            return 1
        if child == 2 * shift:
            return -1
        return 0

    total = 0
    for index in index_list:
        term = 1
        for alpha, sj, xj in zip(index.alphas, sample_point, x):
            if alpha == 0:
                continue
            term *= half(alpha, sj) * half(alpha, xj) * (1 << (alpha.bit_length() - 1))
            if term == 0:
                break
        total += term
    return total


def test_generalized_matches_direct_threshold_average():
    # Independent route: the output is the average over t in [-1, 1] of the
    # sign of the reconstruction fitted to sgn(y_i - t).  That integrand is
    # constant between consecutive sorted values, so exact quadrature sums
    # interval lengths times the sign of a brute-force double sum (computed
    # in exact integers so that sgn(0) = +1 is decided identically).
    d, k, r, n = 2, 1, 2, 12
    model = fit(Affine(d), d, k, r, n, 2024, "generalized")
    points = model.samples.points
    values = model.samples.values
    indices = list(enumerate_indices(d, k, r))
    rng = np.random.default_rng(3)
    for x in rng.random((20, d)):
        kernel = [exact_pair_kernel(indices, sx, x) for sx in points]
        breaks = np.concatenate([[-1.0], values, [1.0]])
        direct = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi <= lo:
                continue
            t = 0.5 * (lo + hi)
            h_numerator = sum(
                (1 if y - t >= 0 else -1) * kern for y, kern in zip(values, kernel)
            )
            direct += 0.5 * (hi - lo) * (1.0 if h_numerator >= 0 else -1.0)
        assert eval_generalized(model, x) == pytest.approx(direct, abs=1e-10)


def test_single_sample_kernel_depends_only_on_digit_match():
    # Per coordinate, the sum of psi_alpha(s) psi_alpha(x) over alpha in
    # 1..2**r - 1 is 2**r - 1 when s and x share the resolution-r cell and -1
    # otherwise; this is what makes digit comparison sufficient.
    rng = np.random.default_rng(14)
    for r in (1, 2, 3):
        for _ in range(50):
            s, x = rng.random(2)
            kernel = math.fsum(
                psi_1d(alpha, s) * psi_1d(alpha, x) for alpha in range(1, 1 << r)
            )
            if cell_of_point(s, r) == cell_of_point(x, r):
                assert kernel == pytest.approx((1 << r) - 1, abs=1e-9)
            else:
                assert kernel == pytest.approx(-1.0, abs=1e-9)


def test_generalized_ties_do_not_matter():
    # Duplicate values: tied differences vanish, so permuting tied samples
    # cannot change the output.
    points = np.array([[0.1, 0.1], [0.6, 0.6], [0.9, 0.2], [0.2, 0.8]])
    values = np.array([-0.5, 0.5, 0.5, 1.0])
    base = SampleSet(points, values, sorted_by_value=True).with_resolution(2)
    swapped = SampleSet(
        points[[0, 2, 1, 3]], values, sorted_by_value=True
    ).with_resolution(2)
    m1 = WaveletModel(2, "generalized", base)
    m2 = WaveletModel(2, "generalized", swapped)
    rng = np.random.default_rng(12)
    for x in rng.random((50, 2)):
        assert eval_generalized(m1, x) == eval_generalized(m2, x)


# ---------------------------------------------------------------------------
# fitting


def test_fit_linear_on_zero_oracle():
    model = fit(lambda x: 0.0, 2, 1, 2, 25, 0, "linear")
    assert np.all(model.samples.values == 0.0)
    assert eval_linear(model, (0.3, 0.3)) == 0.0


def test_fit_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fit(boxbslash(1), 1, 1, 1, 5, 0, "typo")


def test_fit_generalized_error_below_bound_on_smooth_target():
    from monoapprox.bounds import McParams, ub_error
    from monoapprox.metrics import l1_mc

    truth = Affine(1)
    model = fit(truth, 1, 1, 4, 4000, 5, "generalized")
    err = l1_mc(truth, lambda x: eval_generalized(model, x), 1, 4000, 6)
    assert err.value <= ub_error(McParams(1, 1, 4, 4000, 0.5))
