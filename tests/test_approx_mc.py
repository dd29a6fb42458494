import math
import copy
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoapprox import approx_mc
from monoapprox.approx_mc import (
    MAX_RESOLUTION,
    MODES,
    SampleSet,
    WaveletModel,
    chi_table,
    draw_samples,
    estimate_coefficients,
    eval_generalized,
    eval_linear,
    eval_sign,
    fit,
    reconstruction_value,
    subset_coefficient,
    _cell_keys,
    _numerators,
    _query_keys,
)
from monoapprox.functions import LATTICE_BLOCK, Affine, boxbslash, eval_batch, family_from_spec, snap_to_grid
from monoapprox.haar_basis import MultiIndex, cell_of_point, enumerate_indices, psi_1d, psi_d
from monoapprox.verify import pair_kernel


# ---------------------------------------------------------------------------
# sampling


def test_draw_samples_constant_oracle():
    samples = draw_samples(1, 3, lambda x: np.zeros(len(x)), 123)
    assert samples.n == 3 and samples.d == 1
    assert np.array_equal(samples.values, [0.0, 0.0, 0.0])


def test_draw_samples_sign_valued_oracle():
    samples = draw_samples(2, 100, boxbslash(2), 7)
    assert set(np.unique(samples.values)) <= {-1.0, 1.0}


def test_draw_samples_reproducible():
    a = draw_samples(3, 50, boxbslash(3), 99)
    b = draw_samples(3, 50, boxbslash(3), 99)
    assert np.array_equal(a.digit_keys, b.digit_keys)
    assert np.array_equal(a.values, b.values)


def test_draw_samples_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        draw_samples(1, 5, lambda x: np.full(len(x), 2.0), 0)


def test_draw_samples_gives_families_their_columns():
    # A family's kernel gets each block's columns, and the points, from
    # rng.random, are not checked: the checked __call__ is not used, and
    # keys and values match one whole-array draw byte for byte.
    n = LATTICE_BLOCK + 3
    for oracle in (family_from_spec("step:m=4", 3, 5), family_from_spec("levelset:t=1", 3, 5), Affine(3)):
        points = np.random.default_rng(8).random((n, 3))
        with mock.patch.object(type(oracle), "__call__", side_effect=AssertionError("__call__")):
            samples = draw_samples(3, n, oracle, 8)
        assert samples.digit_keys.tobytes() == _cell_keys(points, MAX_RESOLUTION).tobytes()
        assert samples.values.tobytes() == oracle(points).tobytes()


def test_draw_samples_rejects_a_wrong_shaped_kernel_answer():
    class Flat:
        def on_columns(self, columns):
            return np.zeros(3)

    with pytest.raises(ValueError, match=r"oracle returned shape \(3,\) for 5 points; expected \(5,\)"):
        draw_samples(2, 5, Flat(), 0)
    with pytest.raises(ValueError, match=r"oracle returned shape \(3,\) for 5 points; expected \(5,\)"):
        draw_samples(2, 5, lambda x: np.zeros(3), 0)


def test_sample_set_digit_keys_and_sorting():
    samples = draw_samples(2, 40, Affine(2), 5).with_resolution(3)
    points = np.random.default_rng(5).random((40, 2))  # the draw's points
    for i in range(samples.n):
        for j in range(2):
            assert samples.digit_keys[i, j] == cell_of_point(points[i, j], 3)
    by_value = samples.sorted()
    assert np.all(np.diff(by_value.values) >= 0)
    assert by_value.resolution == 3
    assert np.array_equal(by_value.digit_keys, _cell_keys(points[np.argsort(samples.values, kind="stable")], 3))
    # The sorted values and keys are handed over, not copied or keyed
    # again: at n = 200 000, d = 4, r = 7 the traced peak stays below 6 MB
    # (4.0 MB measured; 10.4 MB when the set held its points, 11.5 MB
    # keying the sorted points, 19.5 MB when the constructor copied them).
    samples = draw_samples(4, 200_000, boxbslash(4), 0).with_resolution(7)
    tracemalloc.start()
    try:
        by_value = samples.sorted()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"sorted() peaked at {peak / 1e6:.1f} MB"
    assert by_value.digit_keys.tobytes() == samples.digit_keys[np.argsort(samples.values, kind="stable")].tobytes()


# ---------------------------------------------------------------------------
# coefficient estimation


def brute_table(points, values, d, k, r):
    return {
        index: math.fsum(psi_d(index, x) * y for x, y in zip(points, values)) / len(values)
        for index in enumerate_indices(d, k, r)
    }


def test_estimate_constant_oracle_zero_index():
    samples = draw_samples(2, 30, lambda x: np.ones(len(x)), 1)
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
        twins = [copy.deepcopy(rng) for _ in range(3)]
        samples = draw_samples(d, 50, Affine(d), rng)
        table = estimate_coefficients(samples, d, k, r)
        points = twins[0].random((50, d))  # the draw's points
        brute = brute_table(points, Affine(d)(points), d, k, r)
        for index, expected in brute.items():
            assert table[index] == pytest.approx(expected, abs=1e-12)
        # A set drawn keyed at r, or at r + 1 and shifted, gives the same
        # table; no finer resolution can be keyed.
        keyed = draw_samples(d, 50, Affine(d), twins[1], r)
        assert estimate_coefficients(keyed, d, k, r) == table
        assert estimate_coefficients(draw_samples(d, 50, Affine(d), twins[2], r + 1), d, k, r) == table
        with pytest.raises(ValueError, match="finer"):
            estimate_coefficients(keyed, d, k, r + 1)


def test_estimate_recovers_single_wavelet_target():
    # The target is itself the alpha = 1 wavelet, so that coefficient is 1.
    target = boxbslash(1)
    samples = draw_samples(1, 4000, target, 3)
    table = estimate_coefficients(samples, 1, 1, 2)
    assert table[MultiIndex.of(1)] == pytest.approx(1.0, abs=0.06)


def test_estimate_coefficients_respects_table_budget():
    from monoapprox.budget import BudgetExceededError

    samples = draw_samples(3, 10, boxbslash(3), 0)
    with pytest.raises(BudgetExceededError):
        estimate_coefficients(samples, 3, 3, 3, budget=100)
    # At d = k = 20, r = 50 the analytic #A bound is past the float range.
    with pytest.raises(BudgetExceededError):
        estimate_coefficients(draw_samples(20, 10, boxbslash(20), 0), 20, 20, 50)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5], [1.5]]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5]]), np.array([2.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.5]]), np.array([0.0, 1.0]))


def test_sample_set_rejects_bad_digit_keys():
    # Keys passed in could name another cell than the point's own (keys
    # [[3.9, 3.2]] for the point (0.1, 0.1) once fitted a model answering 16
    # at (0.9, 0.9)), so they cannot be passed; they follow from the points.
    points, values = np.array([[0.1, 0.1], [0.9, 0.3]]), np.array([1.0, -1.0])
    with pytest.raises(TypeError):
        SampleSet(points, values, resolution=2, digit_keys=[[3, 3], [3, 1]])
    unkeyed = SampleSet(points, values)
    assert unkeyed.resolution is None and np.array_equal(unkeyed.digit_keys, _cell_keys(points, MAX_RESOLUTION))
    for r in (1, 2, 5):
        keyed = SampleSet(points, values, resolution=r)
        assert np.array_equal(keyed.digit_keys, _cell_keys(points, r))
        assert keyed.with_resolution(r) is keyed
        assert np.array_equal(SampleSet(points, values, r + 1).with_resolution(r).digit_keys, _cell_keys(points, r))
        with pytest.raises(ValueError, match="finer"):
            keyed.with_resolution(r + 1)
        assert np.array_equal(keyed.sorted().digit_keys, _cell_keys(points[::-1], r))
    # At r = 63, x = 1.0 gave the key -2**63; past it, an OverflowError.
    for r in (0, 63, 64):
        with pytest.raises(ValueError, match="resolution"):
            SampleSet(points, values, resolution=r)


def test_sample_set_rejects_non_finite_points():
    # NaN fails every comparison, so a min/max range test alone lets it
    # through and its digit key becomes INT64_MIN.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.5, bad]]), np.array([1.0]))


def test_wavelet_model_rejects_empty_sample_set():
    # n = 0 once gave +1 (sign, generalized), ZeroDivisionError (linear) and,
    # at d = k = 8, r = 9 where chi passes 2**63, OverflowError.
    for d, k, r in ((2, 1, 2), (8, 8, 9)):
        samples = SampleSet(np.empty((0, d)), np.empty(0)).with_resolution(r)
        for mode in ("linear", "sign", "generalized"):
            with pytest.raises(ValueError, match="at least one sample"):
                WaveletModel(k, mode, samples)


def test_wavelet_model_validation():
    samples = draw_samples(2, 8, boxbslash(2), 1)
    keyed = samples.with_resolution(2)
    # A table-backed model neither holds chi nor builds it; a generalized one reads it.
    with mock.patch.object(approx_mc, "chi_table", side_effect=AssertionError("chi_table called")):
        model = WaveletModel(1, "sign", keyed)
    assert (model.d, model.r, model.n) == (2, 2, 8)  # read off the samples
    assert model.tables is not None and model.chi is None
    assert WaveletModel(1, "generalized", keyed).chi.tolist() == list(chi_table(2, 1, 2))
    with pytest.raises(ValueError):
        WaveletModel(1, "sign", samples)  # no resolution
    for k in (3, -1):  # k outside [0, d]
        with pytest.raises(ValueError):
            WaveletModel(k, "sign", keyed)
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
    ``value_of`` maps the (m, d) midpoints to their (m,) values.
    """
    mids = (np.arange(1 << r) + 0.5) / (1 << r)
    points = np.array(list(product(mids, repeat=d)))
    samples = SampleSet(points, value_of(points)).with_resolution(r)
    return WaveletModel(k, mode, samples)


def test_eval_linear_constant_table():
    model = _midpoint_model(2, "linear", 2, 1, lambda p: np.full(len(p), 0.7))
    assert eval_linear(model, [[0.1, 0.9]]) == pytest.approx([0.7])


def test_eval_linear_single_wavelet_table():
    # Values -1 / +1 on the two halves: exactly the alpha = 1 wavelet.
    model = _midpoint_model(1, "linear", 1, 1, lambda p: np.array([psi_1d(1, v) for v in p[:, 0]]))
    assert eval_linear(model, [[0.2], [0.8]]) == pytest.approx([-1.0, 1.0])


def test_eval_linear_reproduces_piecewise_constant_target():
    truth = snap_to_grid(boxbslash(2), 2, 2)
    model = _midpoint_model(2, "linear", 2, 2, truth)
    rng = np.random.default_rng(23)
    points = rng.random((200, 2))
    assert eval_linear(model, points) == pytest.approx(truth(points), abs=1e-10)


def test_eval_linear_requires_linear_mode():
    model = fit(boxbslash(2), 2, 1, 1, 10, 0, "sign")
    with pytest.raises(ValueError):
        eval_linear(model, [[0.5, 0.5]])


def test_eval_sign_convention():
    def constant(value):
        return _midpoint_model(1, "sign", 1, 1, lambda p: np.full(len(p), value))

    query = [[0.4]]
    assert eval_sign(constant(0.0), query).tolist() == [1.0]  # sgn(0) = +1
    assert eval_sign(constant(-0.3), query).tolist() == [-1.0]
    assert eval_sign(constant(1.0), query).tolist() == [1.0]
    assert eval_sign(constant(-1.0), query).tolist() == [-1.0]
    # A sign-valued tie: the exact integer numerator is 0, so the sign is +1.
    tie = SampleSet(np.array([[0.1], [0.2]]), np.array([1.0, -1.0])).with_resolution(1)
    assert eval_sign(WaveletModel(1, "sign", tie), query).tolist() == [1.0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 12), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_reconstruction_value_table_and_chi_routes_agree(d, r, n, sign_valued, seed, data):
    # The model never builds coefficients; the explicit coefficient table
    # summed against the basis is the reference for the chi identity, and
    # the brute-force sample means over the index set are the reference for
    # the table.
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], n) if sign_valued else rng.uniform(-1.0, 1.0, n)
    points = rng.random((n, d))
    samples = SampleSet(points, values)
    table = estimate_coefficients(samples, d, k, r)
    for index, expected in brute_table(points, values, d, k, r).items():
        assert table[index] == pytest.approx(expected, abs=1e-12)
    model = WaveletModel(k, "linear", samples.with_resolution(r))
    queries = np.concatenate([rng.random((4, d)), points[:2]])
    for x, got in zip(queries, eval_linear(model, queries)):
        expected = math.fsum(c * psi_d(index, x) for index, c in table.items())
        assert got == pytest.approx(expected, abs=1e-12)


def test_object_route_keeps_sums_exact():
    # d = k = 8, r = 7: chi(8) = 2**56, so 1000 samples in one cell sum to
    # 1000 * 2**56 > 2**63.  The tables size their guard from the real n and
    # carry Python integers instead of wrapping around in int64; the
    # generalized model holds no chi and scales its cell sum as a Python
    # integer.
    d, k, r, n = 8, 8, 7, 1000
    point = np.full((1, d), 0.3)
    samples = SampleSet(np.tile(point, (n, 1)), np.ones(n)).with_resolution(r)
    sign = WaveletModel(k, "sign", samples)
    generalized = WaveletModel(k, "generalized", samples)
    assert chi_table(d, k, r)[d] == 2**56
    assert sign.tables.weights.dtype == object and generalized.chi is None
    assert _numerators(sign, point).tolist() == _numerators(generalized, point).tolist() == [n * 2**56]
    assert eval_sign(sign, point) == 1.0
    assert eval_generalized(generalized, point) == 1.0
    assert reconstruction_value(sign, point) == reconstruction_value(generalized, point) == (n * 2**56) / n


def test_int64_and_object_routes_agree():
    # Duplicating every sample doubles each integer numerator, which leaves
    # signs and h unchanged while n crosses the int64 guard.  Sorted by value,
    # the doubled samples give n g_{2i} = 2 n g_i, so their flip signs at
    # even indices are the single ones'.
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
        assert sign64.chi.dtype == gen64.chi.dtype == np.int64
        assert sign_obj.chi.dtype == gen_obj.chi.dtype == object
        queries = np.concatenate([rng.random((5, d)), points[:5]])
        assert np.array_equal(eval_sign(sign64, queries), eval_sign(sign_obj, queries))
        assert reconstruction_value(sign64, queries) == pytest.approx(
            reconstruction_value(sign_obj, queries), rel=1e-12)
        assert eval_generalized(gen64, queries) == pytest.approx(eval_generalized(gen_obj, queries), abs=1e-12)
        for keys in _cell_keys(queries, r):
            assert np.array_equal(2 * _flip_numerators(gen64, keys, gen64.order),
                                  _flip_numerators(gen_obj, keys, gen_obj.order)[::2])
        runs64, runs_obj = _run_signs(gen64, queries), _run_signs(gen_obj, queries)
        for got64, got_obj, expected64, expected_obj in zip(
                runs64, runs_obj, _flip_signs(gen64, queries), _flip_signs(gen_obj, queries)):
            assert np.array_equal(got64, expected64) and np.array_equal(got_obj, expected_obj)
            assert np.array_equal(got64, got_obj[::2])


def _chi_at(model, keys):
    """chi(b_i(x)) for every stored sample as Python integers, from ``chi_table`` and the digit keys of x and all n."""
    chi = np.array(chi_table(model.d, model.k, model.r), dtype=object)
    return chi[(model.samples.digit_keys == keys).sum(axis=1)]


def _flip_numerators(model, keys, order):
    """Exact integer numerators of ``n g_i(x)``, i = 0..n, over every sample: the per-row reference.

    ``g_i`` is the reconstruction with the ``i`` first samples of the value
    permutation ``order`` forced to -1 and the remaining ``n - i`` forced to
    +1, so ``n g_i = S - 2 T_i`` with ``T_i`` the prefix sums of chi(b) in
    value order.
    """
    chi_b = _chi_at(model, keys)[order]
    prefix = np.concatenate([np.zeros(1, dtype=chi_b.dtype), np.cumsum(chi_b)])
    return prefix[-1] - 2 * prefix


def _flip_signs(model, queries):
    """The +-1 threshold-cut signs of every query row, from ``_flip_numerators``: the reference."""
    order = np.argsort(model.samples.values)
    return [np.where(_flip_numerators(model, keys, order) >= 0, 1.0, -1.0) for keys in _cell_keys(queries, model.r)]


def _rebuilt_signs(flips, n):
    """The +-1 vector s_0..s_n rebuilt from ``(s_0, s_n, f, s_{f-1})``, checking s_n and s_{f-1}."""
    s_0, s_n, at, before = flips
    assert np.all(np.diff(at) > 0) and np.all((1 <= at) & (at <= n))
    signs = s_0 * (-1.0) ** np.searchsorted(at, np.arange(n + 1), side="right")
    assert signs[-1] == s_n and np.array_equal(signs[at - 1], before)
    return signs


def _run_signs(model, queries):
    """The same signs, rebuilt from the flips of the model's coordinate runs (k < d), in one batch."""
    return [_rebuilt_signs(flips, model.n) for flips in approx_mc._run_flips(model, _query_keys(model, queries))]


def _telescoped_reference(model, signs):
    """``(s_0 + s_n)/2 + sum_f y_f s_{f-1}`` over the flips of a +-1 vector, summed with fsum."""
    at = np.flatnonzero(signs[1:] != signs[:-1]) + 1
    y = np.sort(model.samples.values)
    return math.fsum([(signs[0] + signs[-1]) / 2, *(y[at - 1] * signs[at - 1])])


def _reference_outputs(model, queries):
    """``eval_generalized`` from ``_flip_numerators`` and ``math.fsum``, row by row, as float64 bytes."""
    return np.array([_telescoped_reference(model, signs) for signs in _flip_signs(model, queries)]).tobytes()


def test_breakpoint_int64_and_object_routes_agree():
    # k = d = 4, r = 13: one table, c_T = chi(d) = 2**52, so a guard
    # 3 n 2**52 < 2**63 would take int64 up to n = 682.  A k = d model holds
    # no chi and reads each cell's upper median: duplicating every sample
    # (values stay sorted) doubles n g_{2i} past that guard and keeps the
    # median, so the outputs are equal.
    d, k, r = 4, 4, 13
    n = (2**63 - 1) // (3 * 2 ** (r * d))
    assert n == 682
    rng = np.random.default_rng(22)
    base = rng.random((6, d))
    points = base[rng.integers(0, len(base), n)]
    queries = np.concatenate([rng.random((3, d)), base])
    for values in (rng.choice([-1.0, 1.0], n), rng.uniform(-1.0, 1.0, n)):
        small = SampleSet(points, values).with_resolution(r).sorted()
        double = SampleSet(np.repeat(points, 2, axis=0), np.repeat(values, 2)).with_resolution(r).sorted()
        gen64, gen_obj = WaveletModel(k, "generalized", small), WaveletModel(k, "generalized", double)
        assert gen64.chi is None and gen_obj.chi is None
        for got64, got_obj in zip(_flip_signs(gen64, queries), _flip_signs(gen_obj, queries)):
            assert np.array_equal(got64, got_obj[::2])
        for model in (gen64, gen_obj):
            assert eval_generalized(model, queries).tobytes() == _reference_outputs(model, queries)
        assert eval_generalized(gen64, queries).tobytes() == eval_generalized(gen_obj, queries).tobytes()


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 0)])
def test_breakpoint_object_route_with_empty_subset_slope(d, k):
    # The slope -2 chi(0) is nonzero at k < d, and such shapes cross the
    # int64 guard only past n ~ 10**9; the same model with a Python-integer
    # chi must give the same flips, and both those of the reference.
    rng = np.random.default_rng(d * 10 + k)
    n = 300
    points = rng.random((40, d))[rng.integers(0, 40, n)]
    samples = SampleSet(points, rng.uniform(-1.0, 1.0, n)).with_resolution(2).sorted()
    model = WaveletModel(k, "generalized", samples)
    assert model.chi[0] != 0 and model.chi.dtype == np.int64
    wide = copy.copy(model)
    object.__setattr__(wide, "chi", model.chi.astype(object))
    queries = np.concatenate([rng.random((6, d)), points[:4]])
    for got64, got_obj, expected in zip(_run_signs(model, queries), _run_signs(wide, queries),
                                        _flip_signs(model, queries)):
        assert np.array_equal(got64, expected) and np.array_equal(got_obj, expected)
    assert eval_generalized(wide, queries).tobytes() == eval_generalized(model, queries).tobytes()


def test_guard_covers_a_single_drop_at_n_1():
    # d = 9, k = 7, r = 8: 3 max|chi| < 2**63 <= 4 max|chi|, so one sample
    # takes Python integers, where a drop -2 (chi(b) - chi(0)) of up to
    # 4 max|chi| cannot wrap.
    d, k, r = 9, 7, 8
    chi_max = max(abs(c) for c in chi_table(d, k, r))
    assert 3 * chi_max < 2**63 <= 4 * chi_max
    rng = np.random.default_rng(23)
    for value in (-1.0, 0.5):
        point = rng.random((1, d))
        model = WaveletModel(k, "generalized", SampleSet(point, [value]).with_resolution(r))
        assert model.chi.dtype == object
        queries = np.concatenate([point, rng.random((3, d))])
        queries[1, :4] = point[0, :4]  # four matching coordinates
        assert eval_generalized(model, queries).tobytes() == _reference_outputs(model, queries)


def test_int64_numerators_above_2_53_divide_exactly():
    # An int64 numerator above 2**53 loses digits when numpy converts it to
    # float64 before dividing; h must be int(numerator) / n, rounded once,
    # on the coordinate runs and on the tables.
    d, k, r, n = 8, 7, 6, 60000
    rng = np.random.default_rng(2)
    base = np.tile(rng.random(d), (8, 1))
    for i in range(1, 8):  # near copies of the first point share most cells
        changed = rng.integers(0, d, 1 + i % 3)
        base[i, changed] = rng.random(len(changed))
    values = np.where(rng.random(n) < 0.9, 1.0, -1.0)
    samples = SampleSet(base[rng.integers(0, 8, n)], values).with_resolution(r)
    for floor in (0, 2**40):
        with mock.patch.object(approx_mc, "TABLE_ENTRY_FLOOR", floor):
            model = WaveletModel(k, "linear", samples)
        assert (model.tables is None) == (model.runs is not None) == (floor == 0)
        numerators = _numerators(model, base)
        assert numerators.dtype == np.int64 and np.abs(numerators).max() > 2**53
        assert eval_linear(model, base).tolist() == [int(v) / n for v in numerators]


def _chi_route(model, keys):
    """``n h(x)`` summed over every sample through chi, in Python integers: the reference route."""
    values = model.samples.values
    b = (model.samples.digit_keys == keys).sum(axis=1)
    chi = np.array(chi_table(model.d, model.k, model.r), dtype=object)
    return np.dot(values.astype(np.int64) if model.exact else values, chi[b])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 200), st.booleans(),
       st.sampled_from(["linear", "sign", "generalized"]), st.integers(0, 2**32 - 1), st.data())
def test_projection_tables_match_chi_route(d, r, n, sign_valued, mode, seed, data):
    # Covers k < d (the T = {} table among them), k = d, n = 1, duplicate
    # points, tied values and coordinates equal to 1.0.  A zero entry floor
    # makes small shapes whose tables could hold more than n d entries read
    # coordinate runs instead; they are compared all the same.  The queries
    # go in as one batch, looked up in blocks of 1, 7 or LOOKUP_BLOCK pairs,
    # and every row is checked against the per-row reference.
    k = data.draw(st.integers(0, d))
    floor = data.draw(st.sampled_from([0, approx_mc.TABLE_ENTRY_FLOOR]))
    block = data.draw(st.sampled_from([1, 7, approx_mc.LOOKUP_BLOCK]))
    rng = np.random.default_rng(seed)
    base = rng.random((max(n // 2, 1), d))
    base[rng.random(base.shape) < 0.2] = 1.0
    points = base[rng.integers(0, len(base), n)]
    values = rng.choice([-1.0, 1.0], n) if sign_valued else rng.uniform(-1.0, 1.0, n)
    samples = SampleSet(points, values).with_resolution(r)
    with mock.patch.object(approx_mc, "TABLE_ENTRY_FLOOR", floor):
        model = WaveletModel(k, mode, samples)
    queries = np.concatenate([rng.random((4, d)), points[:4], np.ones((1, d))])
    query_keys = _cell_keys(queries, r)
    # Small shapes always fit the real floor; generalized models keep no
    # tables.
    if mode == "generalized":
        assert model.tables is None
    else:
        assert floor == 0 or model.tables is not None
        assert (model.tables is None) == (model.runs is not None)
    if mode == "generalized":
        # Each output is the threshold-cut sum over that row's flip
        # numerators.  At k < d the model reads its d coordinate runs, and
        # their flips are the reference's; at k = d (r d <= 9 bits here) it
        # reads one run row, the full cell's samples.
        assert (model.order is not None) == (k < d)
        assert model.runs.shape == model.run_keys.shape == (d if k < d else 1, n)
        reference = _flip_signs(model, queries)
        expected = np.array([_telescoped_reference(model, signs) for signs in reference]).tobytes()
        with mock.patch.object(approx_mc, "LOOKUP_BLOCK", block):
            assert eval_generalized(model, queries).tobytes() == expected
            if k < d:
                for got, signs in zip(_run_signs(model, queries), reference):
                    assert np.array_equal(got, signs)
        return
    chi_max = max(abs(c) for c in chi_table(d, k, r))
    with mock.patch.object(approx_mc, "LOOKUP_BLOCK", block):
        got = _numerators(model, queries)
    assert got.shape == (len(queries),)
    for row, keys in zip(got, query_keys):
        expected = _chi_route(model, keys)
        if sign_valued:
            assert got.dtype != np.float64 and int(row) == expected
        else:
            assert abs(row - expected) <= 1e-12 * n * chi_max


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 120), st.booleans(),
       st.sampled_from(["linear", "sign", "generalized"]), st.integers(0, 2**32 - 1), st.data())
def test_dense_and_unique_builds_agree(d, r, n, sign_valued, mode, seed, data):
    # Subsets with at most n cells are binned by dense code; with the dense
    # route taken away every subset is grouped instead.  Both must give the
    # same tables, bit for bit.
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    points = rng.random((max(n // 3, 1), d))[rng.integers(0, max(n // 3, 1), n)]
    values = rng.choice([-1.0, 1.0], n) if sign_valued else np.round(rng.uniform(-1.0, 1.0, n), 1)
    samples = SampleSet(points, values).with_resolution(r)
    dense = WaveletModel(k, mode, samples).tables
    with mock.patch.object(approx_mc, "_cell_route", _sparse_route):
        unique = WaveletModel(k, mode, samples).tables
    if mode == "generalized":  # no tables at all
        assert dense is None and unique is None
        return
    assert [f.name for f in fields(dense)] == ["pack", "offsets", "keys", "weights"]
    for name in ("pack", "offsets", "keys", "weights"):
        got, expected = getattr(dense, name), getattr(unique, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_dense_route_choice():
    # mc-linear-d4's subsets have at most n cells and are binned by dense
    # code; mc-sign-d4's 2**28 cells are grouped by the sorted pairs, and so
    # are mc-gen-d2's samples, by full-cell code, without _cell_route.  One
    # argsort is left where the pair would pass 63 bits: d = k = 8, r = 7
    # codes 56 bits, and n = 1000 needs 10 more for the sample index.  No
    # build calls np.unique.
    rng = np.random.default_rng(11)

    def routes(d, k, r, n, mode):
        """The route of each subset, the number of groupings and the number of argsorts among them."""
        samples = SampleSet(rng.random((n, d)), rng.uniform(-1.0, 1.0, n)).with_resolution(r)
        with mock.patch.object(approx_mc, "_cell_route", wraps=approx_mc._cell_route) as route, \
                mock.patch.object(approx_mc, "_grouped", wraps=approx_mc._grouped) as grouped, \
                mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(np, "unique", side_effect=AssertionError("np.unique")):
            WaveletModel(k, mode, samples)
        subsets = {call.args[0]: approx_mc._cell_route(*call.args) for call in route.call_args_list}
        return subsets, grouped.call_count, argsort.call_count

    assert routes(2, 2, 6, 5000, "generalized") == ({}, 1, 0)
    assert routes(8, 8, 7, 1000, "generalized") == ({}, 1, 1)
    linear, _, _ = routes(4, 2, 4, 4096, "linear")
    assert len(linear) == 11 and set(linear.values()) == {"dense"}
    assert routes(4, 4, 7, 2000, "sign") == ({(0, 1, 2, 3): "sorted"}, 1, 0)
    assert routes(8, 8, 7, 1000, "sign") == ({tuple(range(8)): "sorted"}, 1, 1)
    # 2**18 cells of a 3-subset, 18 + 16 bits with the sample index.
    subsets, grouped, argsorts = routes(8, 3, 6, 50000, "sign")
    assert subsets[(5, 6, 7)] == "sorted" and grouped == 56 and argsorts == 0


def _sparse_route(subset, r, n):
    """``_cell_route`` with the dense route taken away: every subset is grouped."""
    return "sorted"


def _unique_cell_sums(digit_keys, subset, r, values):
    """The sparse build by np.unique with its inverse, over compact codes.

    Returns the cells, their value sums (bincount) and the grouping: the
    codes sorted, and the sample indices by a stable argsort of the inverse.
    """
    slots = np.zeros(digit_keys.shape[1], dtype=np.int64)
    slots[list(subset)] = 1 << (r * np.arange(len(subset), dtype=np.int64))
    cells, inverse = np.unique(digit_keys.astype(np.int64) @ slots, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(cells))
    index = np.argsort(inverse, kind="stable")
    return cells, sums, cells[inverse[index]], index


def _assert_sparse_build_matches_reference(points, values, subset, r):
    keys = _cell_keys(points, r)
    n = len(values)
    cells, sums, sorted_codes, index = _unique_cell_sums(keys, subset, r, values)
    with mock.patch.object(approx_mc, "_cell_route", _sparse_route):
        got = approx_mc._cell_sums(keys, subset, r, values)
    for part, expected in zip(got, (cells, sums)):  # bit for bit, float sums included
        assert part.dtype == expected.dtype and part.tobytes() == expected.tobytes()
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        got_codes, got_index = approx_mc._grouped(approx_mc._subset_codes(keys, subset, r), r * len(subset))
    pair_bits = r * len(subset) + (n - 1).bit_length()
    assert argsort.call_count == (pair_bits > 63)
    assert got_codes.dtype == np.int64 and got_codes.tobytes() == sorted_codes.tobytes()
    assert got_index.dtype == np.int32
    # The pairs keep each code's indices ascending; the argsort may not.
    if pair_bits > 63:
        got_index = got_index[np.lexsort((got_index, got_codes))]
    assert np.array_equal(got_index, index)


# (d, r) shapes: r = 8, 9 and 16 give uint8/uint16 keys; all of (8, 7) past
# n = 128, six coordinates of (7, 9) past n = 512 and all seven of (7, 9)
# from n = 2 pass the 63-bit pair width and take the argsort.
_SPARSE_SHAPES = [(1, 1), (2, 3), (3, 2), (4, 7), (3, 8), (2, 16), (8, 7), (7, 9)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SPARSE_SHAPES), st.integers(0, 300), st.sampled_from(["sign", "uniform", "tied"]),
       st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_sorted_pair_build_matches_unique_reference(shape, n, kind, one_cell, seed, data):
    d, r = shape
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, d - 1)))))
    rng = np.random.default_rng(seed)
    points = np.tile(rng.random((1, d)), (n, 1)) if one_cell else rng.random((n, d))
    values = {"sign": lambda: rng.choice([-1.0, 1.0], n), "uniform": lambda: rng.uniform(-1.0, 1.0, n),
              "tied": lambda: np.round(rng.uniform(-1.0, 1.0, n), 1)}[kind]()
    _assert_sparse_build_matches_reference(points, values, subset, r)


@pytest.mark.parametrize("n, d, r, subset, one_cell", [
    (0, 3, 2, (0, 2), False), (1, 3, 2, (0, 1, 2), False), (1, 2, 16, (1,), False),
    (500, 4, 7, (0, 1, 2, 3), True), (500, 2, 3, (), False),
    (300, 8, 7, tuple(range(8)), False), (2, 7, 9, (6,), False),
    (200, 7, 9, tuple(range(7)), False), (600, 7, 9, (0, 1, 2, 3, 4, 6), True),  # past the pair width
])
def test_sorted_pair_build_named_cases(n, d, r, subset, one_cell):
    rng = np.random.default_rng(n + d + r)
    points = np.tile(rng.random((1, d)), (n, 1)) if one_cell else rng.random((n, d))
    values = np.round(rng.uniform(-1.0, 1.0, n), 1)  # tied values
    _assert_sparse_build_matches_reference(points, values, subset, r)


@pytest.mark.parametrize("r", [1, 7, 8, 9, 16, 17, 62])
def test_cell_keys_narrow_dtype_match_int64_formula(r):
    # The clamp comes before the cast: at r = 8, x = 1.0 gives 256, which
    # would wrap to 0 in uint8.  The grid holds the first 2**17 cell edges.
    scale = 1 << r
    grid = np.arange(min(scale, 1 << 17)) / scale
    coords = np.concatenate([[0.0], grid, np.nextafter(grid, 1.0), [np.nextafter(1.0, 0.0), 1.0]])
    points = np.stack([coords, coords[::-1]], axis=1)
    keys = _cell_keys(points, r)
    assert keys.dtype == (np.uint8 if r <= 8 else np.uint16 if r <= 16 else np.int64)
    assert np.array_equal(keys, np.minimum((points * scale).astype(np.int64), scale - 1))
    assert keys[-1, 0] == scale - 1 and keys[-1, 1] == 0
    # The largest float below 1 is 1 - 2**-53: in the last cell up to r = 53.
    assert keys[-2, 0] == scale - (1 << max(r - 53, 0))


@pytest.mark.parametrize("r", [1, 8, 9, 16, 17, 53, 54, 62])
def test_shifted_keys_equal_keys_of_the_points(r):
    # x 2**62 is exact in float64 for x in [0, 1), so floor(x 2**62) >>
    # (62 - r) = floor(x 2**r), and x = 1, clamped to 2**62 - 1, shifts to
    # 2**r - 1: a set keyed at any s >= r gives the keys of the points at r,
    # dtype included.  The grid holds the first 2**17 cell edges at r and
    # their neighbours, 0, 2**-63, 1 - 2**-53 and 1.
    scale = 1 << r
    grid = np.arange(min(scale, 1 << 17)) / scale
    coords = np.concatenate([[0.0, 2.0**-63], grid, np.nextafter(grid, 1.0), np.nextafter(grid[1:], 0.0),
                             [np.nextafter(1.0, 0.0), 1.0]])
    points = np.stack([coords, coords[::-1]], axis=1)
    values = np.ones(len(points))
    expected = _cell_keys(points, r)
    for own in (r, min(r + 1, MAX_RESOLUTION), (r + MAX_RESOLUTION) // 2, None):
        keyed = SampleSet(points, values, own)
        assert _same_bytes(keyed.with_resolution(r).digit_keys, expected)
        if own is not None and own < MAX_RESOLUTION:
            with pytest.raises(ValueError, match="finer"):
                keyed.with_resolution(own + 1)
    with pytest.raises(ValueError, match="keyed at a resolution"):
        WaveletModel(1, "sign", SampleSet(points, values))


# The whole-array sample path that the blocked one replaced: the references
# of the block-edge tests below.
def _whole_draw(d, n, oracle, seed):
    points = np.random.default_rng(seed).random((n, d))
    return points, eval_batch(oracle, points)


def _whole_cell_keys(points, r):
    scale = 1 << r
    if r > 16:
        return np.minimum((points * scale).astype(np.int64), scale - 1)
    cells = points * scale
    return np.minimum(cells, scale - 1, out=cells).astype(np.uint8 if r <= 8 else np.uint16)


def _whole_subset_codes(digit_keys, subset, r):
    codes = np.zeros(len(digit_keys), dtype=np.int64)
    for s, j in enumerate(subset):
        codes |= np.left_shift(digit_keys[:, j], r * s, dtype=np.int64)
    return codes


def _whole_grouped(codes, width):
    n = len(codes)
    index = np.arange(n, dtype=np.int32)
    bits = (n - 1).bit_length()
    if width + bits > 63:
        order = np.argsort(codes)
        index[:] = order
        return codes[order], index
    codes <<= bits
    codes |= index
    codes.sort()
    np.bitwise_and(codes, (1 << bits) - 1, out=index, casting="unsafe")
    codes >>= bits
    return codes, index


def _same_bytes(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()


_B = LATTICE_BLOCK


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 3]), st.integers(1, 4), st.sampled_from([1, 7, 8, 9, 16, 17]),
       st.integers(0, 2**32 - 1), st.data())
def test_blocked_sample_path_matches_whole_array_reference(n, d, r, seed, data):
    # Blocks of LATTICE_BLOCK rows, at n on both sides of one and two block
    # edges: values, digit keys (drawn and of given points), subset codes and
    # groupings match the whole-array code byte for byte.
    oracle = family_from_spec("step:m=4", d, seed)
    samples = draw_samples(d, n, oracle, seed)
    points, values = _whole_draw(d, n, oracle, seed)
    assert _same_bytes(samples.digit_keys, _whole_cell_keys(points, MAX_RESOLUTION))
    assert _same_bytes(samples.values, values)
    # Cell edges 0, j / 2**r and 1.0, most of them at the block edges.
    rng = np.random.default_rng(seed)
    rows = np.unique(np.concatenate([rng.integers(0, n, 64), [0, n - 1], np.arange(_B - 2, _B + 2) % n]))
    points = points.copy()
    points[rows] = rng.integers(0, (1 << r) + 1, (len(rows), d)) / (1 << r)
    keys = SampleSet(points, values, resolution=r).digit_keys
    assert _same_bytes(keys, _whole_cell_keys(points, r))
    subset = tuple(data.draw(st.permutations(range(d)))[: data.draw(st.integers(1, d))])
    codes = approx_mc._subset_codes(keys, subset, r)
    assert _same_bytes(codes, _whole_subset_codes(keys, subset, r))
    width = r * len(subset)
    for got, expected in zip(approx_mc._grouped(codes.copy(), width), _whole_grouped(codes.copy(), width)):
        assert _same_bytes(got, expected)
    # The cell ranks go back to the samples one block at a time; the float
    # sums still add in sample order.
    with mock.patch.object(approx_mc, "_cell_route", _sparse_route):
        got = approx_mc._cell_sums(keys, subset, r, values)
    for part, expected in zip(got, _unique_cell_sums(keys, subset, r, values)):
        assert _same_bytes(part, expected)


@pytest.mark.parametrize("n, width", [(_B + 1, 16), (_B + 1, 17), (2 * _B + 3, 15), (2 * _B + 3, 16), (_B, 17)])
@pytest.mark.parametrize("distinct", [3, None])
def test_grouped_at_the_uint32_pair_width(n, width, distinct):
    # code << b | i fills 32 bits (sorted as uint32, the top bit set for
    # the largest codes) or 33 (int64); both group as the int64 pairs did.
    rng = np.random.default_rng(n + width)
    top = (1 << width) - 1
    pool = rng.integers(0, top + 1, distinct) if distinct else None
    codes = rng.choice(pool, n) if distinct else rng.integers(0, top + 1, n)
    codes[rng.integers(0, n, 50)] = top
    codes[rng.integers(0, n, 50)] = 0
    bits = (n - 1).bit_length()
    assert width + bits in (32, 33)
    for got, expected in zip(approx_mc._grouped(codes.copy(), width), _whole_grouped(codes.copy(), width)):
        assert _same_bytes(got, expected)


@pytest.mark.parametrize("n, r", [(1, 8), (300, 8), (_B + 1, 16), (2 * _B + 3, 16), (2 * _B + 3, 9), (5000, 20)])
def test_grouped_digit_columns(n, r):
    # A coordinate run groups one digit column: uint8 and uint16 digits
    # pair-sort in a uint32 pair array of their own, or an int64 one past
    # 32 bits (16 + 17 at n = 2 _B + 3), and int64 digits (r = 20) in place.
    rng = np.random.default_rng(n + r)
    column = _cell_keys(rng.random((n, 1)), r)[:, 0].copy()
    column[rng.integers(0, n, 3)] = (1 << r) - 1
    codes, index = approx_mc._grouped(column.copy(), r)
    order = np.argsort(column, kind="stable")
    assert _same_bytes(codes, column[order]) and index.dtype == np.int32 and np.array_equal(index, order)


@pytest.mark.parametrize("bad", [np.nan, 1.5, -np.inf])
def test_bad_sample_in_the_last_block_is_rejected(bad):
    n = 2 * _B + 3

    def oracle(x):  # bad at the draw's last row only, in its 3-row last block
        out = np.zeros(len(x))
        out[-1] = bad if len(x) == 3 else 0.0
        return out

    with pytest.raises(ValueError, match=r"sample values must lie in \[-1, 1\]"):
        draw_samples(2, n, oracle, 0)
    points, values = np.full((n, 2), 0.5), np.ones(n)
    points[-1, 1] = -0.25 if np.isinf(bad) else bad
    with pytest.raises(ValueError, match=r"sample points must lie in \[0, 1\]\^d"):
        SampleSet(points, values)
    points[-1, 1] = 0.5
    for last, exact in ((0.5, False), (-1.0, True)):  # only the last block may hold a value other than +-1
        values[-1] = last
        assert WaveletModel(2, "sign", SampleSet(points, values, resolution=3)).exact is exact


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, _B - 1, _B, _B + 3]), st.sampled_from([1, 8, 9, 16, 17, 53, 54, 62]),
       st.integers(0, 2**32 - 1), st.sampled_from(["family", "lambda", "generator"]))
def test_keyed_draw_matches_a_coarser_shift_of_a_finer_draw(d, n, r, seed, route):
    # A draw keys each block and drops it, so the set holds no points; a
    # draw at r has the values and keys of a draw keyed at MAX_RESOLUTION
    # and shifted to r, byte for byte, for a family (on_columns), a plain
    # callable (eval_batch) and a Generator seed, which both draws advance
    # alike.
    family = family_from_spec("step:m=4", d, seed)
    oracle = (lambda p: np.tanh(p.sum(axis=1) - d / 2)) if route == "lambda" else family
    seeds = [np.random.default_rng(seed) if route == "generator" else seed for _ in range(2)]
    keyed = draw_samples(d, n, oracle, seeds[0], r)
    finest = draw_samples(d, n, oracle, seeds[1])
    shifted = finest.with_resolution(r)
    assert not hasattr(keyed, "points") and keyed.resolution == r and (keyed.n, keyed.d) == (n, d)
    assert finest.resolution is None and finest.digit_keys.dtype == np.int64
    assert _same_bytes(keyed.values, shifted.values) and _same_bytes(keyed.digit_keys, shifted.digit_keys)
    if route == "generator":
        assert seeds[0].random() == seeds[1].random()
    # Keys at a coarser resolution are a shift of these; a finer one is refused.
    assert keyed.with_resolution(r) is keyed
    if r > 1:
        assert _same_bytes(keyed.with_resolution(r - 1).digit_keys, finest.with_resolution(r - 1).digit_keys)
    with pytest.raises(ValueError, match="finer"):
        keyed.with_resolution(r + 1)
    by_value, reference = keyed.sorted(), shifted.sorted()
    assert by_value.resolution == r
    assert _same_bytes(by_value.values, reference.values) and _same_bytes(by_value.digit_keys, reference.digit_keys)


@pytest.mark.parametrize("bad", [np.nan, 1.5, -np.inf, "shape"])
@pytest.mark.parametrize("kernel", [True, False])
def test_keyed_draw_rejects_a_bad_answer_as_the_points_keeping_draw(bad, kernel):
    # A bad answer in the second block (3 rows) raises the same error
    # whether the draw keys at MAX_RESOLUTION (the draw that once kept its
    # points) or at a resolution of its own.
    def answer(m):
        if m == 3 and bad == "shape":
            return np.zeros(2)
        out = np.zeros(m)
        out[-1] = bad if m == 3 else 0.0
        return out

    class Columns:
        def on_columns(self, columns):
            return answer(len(columns[0]))

    oracle = Columns() if kernel else (lambda p: answer(len(p)))
    message = (r"oracle returned shape \(2,\) for 3 points; expected \(3,\)" if bad == "shape"
               else r"sample values must lie in \[-1, 1\]")
    for resolution in (None, 3):
        with pytest.raises(ValueError, match=message):
            draw_samples(2, _B + 3, oracle, 0, resolution)


def test_fit_memory_gate():
    # mc-sign-d4's fit: 200k samples in d = 4.  Its n d digit keys are
    # uint8 (0.8 MB, not 6.4 MB in int64), written block by block as the
    # samples are drawn, and it keeps no points: the traced peak, samples
    # included, stays below 12.5 MB (9.8 MB measured; 16.2 MB when the fit
    # kept the n d float points, 25.8 MB with int64 keys, matmul codes and
    # np.unique).
    tracemalloc.start()
    try:
        model = fit(boxbslash(4), 4, 4, 7, 200_000, 0, "sign")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(model.samples, "points") and model.samples.digit_keys.dtype == np.uint8
    assert peak < 12.5e6, f"fit peaked at {peak / 1e6:.1f} MB"
    # Its tables build, samples excluded, peaks below 8.5 MB (7.4 MB
    # measured; 9.6 MB when the tables copy the arrays handed to them).
    tracemalloc.start()
    try:
        approx_mc.ProjectionTables.build(model.samples, 4, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6, f"tables build peaked at {peak / 1e6:.2f} MB"
    # mc-gen-d2's generalized build: n = 726 374, d = k = 2, r = 6.  At
    # k = d it keeps no value permutation and no tables, and its one run
    # row comes from one np.sort of the (full-cell code, sample index)
    # pairs (_grouped), the index written straight into int32: the build,
    # samples excluded, peaks below 15 MB (11.7 MB measured; 19.0 MB with
    # the value argsort).
    samples = draw_samples(2, 726_374, Affine(2), 0).with_resolution(6)
    tracemalloc.start()
    try:
        model = WaveletModel(2, "generalized", samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.order is None and model.tables is None and model.runs.dtype == np.int32
    assert peak < 15e6, f"generalized build peaked at {peak / 1e6:.1f} MB"
    # A k < d generalized build: d = 8, k = 3, r = 4, n = 20 000.  Its
    # coordinate runs hold n d = 160 000 ranks and it builds no tables: the
    # build, samples excluded, peaks below 3 MB (1.1 MB measured; 8.6 MB
    # with the 93 sign tables, 33.6 MB with n rank entries per nonempty
    # subset, 1.84M in all).
    samples = draw_samples(8, 20_000, Affine(8), 0).with_resolution(4)
    tracemalloc.start()
    try:
        model = WaveletModel(3, "generalized", samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.runs.shape == (8, 20_000) and model.tables is None
    assert peak < 3e6, f"k < d generalized build peaked at {peak / 1e6:.1f} MB"
    # The whole mc-gen-d2 fit, samples and keys included.  The points are
    # drawn into one reused block, evaluated, checked and keyed LATTICE_BLOCK
    # rows at a time, so neither the n d float points nor any n-sized
    # temporary of theirs is made: the traced peak stays below 22 MB (19.0 MB
    # measured; 30.6 MB keeping the points, 34.9 MB with whole-array passes).
    tracemalloc.start()
    try:
        model = fit(family_from_spec("step:m=4", 2, 0), 2, 2, 6, 726_374, 0, "generalized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(model.samples, "points")
    assert model.samples.digit_keys.dtype == np.uint8 and model.runs.dtype == np.int32
    assert peak < 22e6, f"mc-gen-d2 fit peaked at {peak / 1e6:.1f} MB"


def test_projection_tables_route_choice():
    rng = np.random.default_rng(8)

    def model(d, k, r, n, mode="sign"):
        samples = SampleSet(rng.random((n, d)), rng.choice([-1.0, 1.0], n)).with_resolution(r)
        return WaveletModel(k, mode, samples)

    # k = d keeps only the full subset: one table of at most n cells.
    assert len(model(4, 4, 7, 300).tables.offsets) == 1
    # k < d, 1 + 4 * 16 + 6 * 256 = 1601 cells at most, below n d = 16384.
    assert len(model(4, 2, 4, 4096).tables.offsets) == 11
    # The rule asks for r d = 64 and 90 bits (approximate --d 8 --eps 0.5).
    # Without tables a model keeps d coordinate runs of its n sample indices.
    for d, k, r in ((8, 8, 8), (10, 10, 9)):
        no_tables = model(d, k, r, 50)
        assert no_tables.tables is None and no_tables.order is None
        assert no_tables.runs.shape == no_tables.run_keys.shape == (d, 50)
    # Compact keys would fit r k + bitlen(#T - 1) = 19 and 24 bits here, but
    # the rule keeps r d = 72 and 80: the runs, the faster route at the second.
    assert model(12, 2, 6, 20000).runs.shape == (12, 20000)
    assert model(20, 3, 4, 2000).runs.shape == (20, 2000)
    # 93 tables could hold 236673 cells: more than n d = 160000, but within
    # the entry floor, so they are built.
    assert len(model(8, 3, 4, 20000).tables.offsets) == 93
    # A generalized model at k = d keeps no tables but one run row: the
    # full cell's n samples.  k = d = 2, r = 6 (mc-gen-d2's shape).
    generalized = model(2, 2, 6, 3000, "generalized")
    assert generalized.tables is None and generalized.order is None
    assert generalized.runs.shape == generalized.run_keys.shape == (1, 3000)
    # Past r d = 63 bits it keeps the d coordinate runs, sample indices.
    generalized = model(8, 8, 8, 50, "generalized")
    assert generalized.order is None and generalized.runs.shape == generalized.run_keys.shape == (8, 50)
    # At k < d a generalized model keeps its n d coordinate ranks and no
    # tables, whatever the limit: its outputs read only the ranks.
    generalized = model(8, 3, 4, 20000, "generalized")
    assert generalized.tables is None
    assert generalized.runs.shape == generalized.run_keys.shape == (8, 20000)
    with mock.patch.object(approx_mc, "TABLE_ENTRY_FLOOR", 0):
        assert model(3, 2, 1, 100, "generalized").tables is None
        assert model(3, 2, 1, 100).tables is not None
        # 1 + 4 * 8 + 6 * 50 + 4 * 50 = 533 cells could pass n d = 200.
        assert model(4, 3, 3, 50).runs.shape == (4, 50)
        # k = d keeps one run of n entries, never more than n d.
        assert model(3, 3, 1, 100, "generalized").runs.shape == (1, 100)
    # Linear and sign models keep no runs, and their tables only the sums.
    sign = model(2, 2, 6, 3000)
    assert sign.runs is None and sign.run_keys is None and sign.order is None
    assert [f.name for f in fields(sign.tables)] == ["pack", "offsets", "keys", "weights"]


def test_projection_tables_refused_without_listing_subsets():
    # Large d: the route is decided from subset counts by size, before any
    # of the up to 2**d subsets is listed.
    rng = np.random.default_rng(9)

    def model(d, k, r, n, mode=None):
        """The model, or with no mode the tables alone, built with subset listing forbidden."""
        samples = SampleSet(rng.random((n, d)), rng.choice([-1.0, 1.0], n)).with_resolution(r)
        with mock.patch.object(approx_mc, "combinations", side_effect=AssertionError("listed")):
            if mode is None:
                return approx_mc.ProjectionTables.build(samples, k, True)
            return WaveletModel(k, mode, samples)

    # k = d: one subset, but r d = 80 bits.
    assert model(40, 40, 2, 10) is None
    # k < d: r d = 40 bits plus bitlen(#T - 1) = 40 for #T = sum_{t<=20} C(40, t).
    assert model(40, 20, 1, 10) is None
    # 2510 subsets fit the key (48 + 12 bits), but could hold about 4.88M
    # entries, more than max(n d, TABLE_ENTRY_FLOOR) = 2**22.
    assert model(12, 6, 4, 2000) is None
    # The models take the same checks and keep coordinate runs instead; a
    # generalized one at k = d builds no tables, and past 63 bits no
    # full-cell run either.
    assert model(40, 40, 2, 10, "sign").runs.shape == (40, 10)
    assert model(12, 6, 4, 2000, "linear").runs.shape == (12, 2000)
    generalized = model(40, 40, 2, 10, "generalized")
    assert generalized.tables is None and generalized.runs.shape == (40, 10)


def test_blocked_lookup_bounds_memory():
    # d = 8, k = 3, r = 4: 93 tables, so LOOKUP_BLOCK pairs are 704 query
    # rows and 20000 queries take 29 blocks.  Looked up all at once, their
    # key, position and hit matrices peaked at 62.7 MB (tracemalloc).
    rng = np.random.default_rng(10)
    n, d = 20000, 8
    samples = SampleSet(rng.random((n, d)), rng.choice([-1.0, 1.0], n)).with_resolution(4)
    tables = WaveletModel(3, "sign", samples).tables
    keys = _cell_keys(rng.random((20000, d)), 4)
    assert approx_mc.LOOKUP_BLOCK // len(tables.offsets) < len(keys)
    tracemalloc.start()
    try:
        got = tables.numerator(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # The unblocked per-row reference: every key of a row against the table.
    for row, keys_row in zip(got, keys):
        query = tables.pack @ keys_row + tables.offsets
        at = np.searchsorted(tables.keys, query, side="right") - 1
        assert row == np.where(tables.keys[at] == query, tables.weights[at], 0).sum()


@pytest.mark.parametrize("d, k, r", [(8, 3, 4), (4, 4, 7), (3, 0, 2), (5, 2, 3), (7, 7, 9)])
def test_pack_rows_match_subset_codes(d, k, r):
    # The tables and _cell_sums share one layout: digit T[s] at bit r s.
    rng = np.random.default_rng(d + k + r)
    samples = SampleSet(rng.random((300, d)), rng.choice([-1.0, 1.0], 300)).with_resolution(r)
    tables = WaveletModel(k, "sign", samples).tables
    subsets = [T for t in range(k + 1) if subset_coefficient(t, d, k, r) for T in combinations(range(d), t)]
    keys = _cell_keys(rng.random((50, d)), r)
    packed = keys @ tables.pack.T + tables.offsets
    assert packed.shape == (50, len(subsets))
    for t, subset in enumerate(subsets):
        assert np.array_equal(packed[:, t], approx_mc._subset_codes(keys, subset, r) + tables.offsets[t])


# ---------------------------------------------------------------------------
# digit matching and the chi table


def test_point_keys_match_cell_of_point():
    rng = np.random.default_rng(31)
    points = np.concatenate([rng.random((20, 3)), [[0.0, 0.5, 1.0]]])
    for r in (1, 3, 7):
        model = fit(boxbslash(3), 3, 1, r, 10, 0, "sign")
        assert _query_keys(model, points).tolist() == [[cell_of_point(v, r) for v in x] for x in points]
    evaluations = ((eval_linear, "linear"), (eval_sign, "sign"), (eval_generalized, "generalized"))
    for evaluate, mode in evaluations:
        model = fit(boxbslash(2), 2, 1, 2, 10, 0, mode)
        bad_batches = (
            [[np.nan, 0.5]], [[np.inf, 0.5]], [[-0.1, 0.5]], [[0.5, 1.5]],  # outside [0, 1]^d
            [[0.5, 0.5, 0.5]],  # wrong dimension
            [0.5, 0.5],  # a bare point: one point is a one-row batch
        )
        for bad in bad_batches:
            with pytest.raises(ValueError):
                evaluate(model, bad)


def test_subset_coefficients_sum_to_chi():
    # Sample and query agree in exactly b coordinates: the subsets T they
    # share a cell in are those inside the b matching coordinates, so chi(b)
    # = sum_t C(b, t) c_t.  Inverted over the brute-force kernel, c_t =
    # sum_{b <= t} (-1)**(t - b) C(t, b) chi(b), and c_t = 0 past k.
    for d in range(1, 6):
        for r in (1, 2, 5):
            if r * d > 10:  # at most 2**10 indices per kernel
                continue
            for k in range(d + 1):
                chi = [brute_chi(b, d, k, r) for b in range(d + 1)]
                for t in range(d + 1):
                    c_t = sum((-1) ** (t - b) * math.comb(t, b) * chi[b] for b in range(t + 1))
                    assert c_t == (subset_coefficient(t, d, k, r) if t <= k else 0)
    assert subset_coefficient(1, 3, 3, 2) == 0  # k = d: only the full cell is left


def test_chi_value_examples():
    assert chi_table(1, 1, 1) == (0, 2)
    for d, k, r in ((2, -1, 1), (2, 3, 1), (2, 1, 0)):
        with pytest.raises(ValueError):
            chi_table(d, k, r)
    for d in (1, 2, 3):
        for r in (1, 2):
            assert chi_table(d, d, r)[d] == 2 ** (r * d)
            assert chi_table(d, d, r)[d] == brute_chi(d, d, d, r)


def brute_chi(b, d, k, r):
    """Exact integer sum of psi(X) psi(x) over the index set for a pair whose
    digit keys agree in exactly the first b coordinates."""
    x = [0.1] * b + [0.9] * (d - b)
    return pair_kernel(list(enumerate_indices(d, k, r)), [0.1] * d, x)


# ---------------------------------------------------------------------------
# generalized evaluation


def test_generalized_all_positive_samples():
    # Every value +1: in a cell matched by every sample the output is +1.
    points = np.full((5, 2), 0.1)
    values = np.ones(5)
    samples = SampleSet(points, values).with_resolution(2)
    model = WaveletModel(1, "generalized", samples)
    assert eval_generalized(model, [[0.05, 0.05]]).tolist() == [1.0]


def test_generalized_empty_information_returns_plus_one():
    # At k = d a query reads its own cell alone: with no sample there, the
    # generalized and sign outputs are +1 (sgn(0) = +1), on the full-cell run
    # and the tables, and on the coordinate runs (r d = 64 bits at d = 8,
    # r = 8), where generalized and sign models both read them.
    for d, r in ((2, 1), (8, 8)):
        samples = SampleSet(np.full((3, d), 0.1), np.full(3, -1.0)).with_resolution(r)
        generalized, sign = WaveletModel(d, "generalized", samples), WaveletModel(d, "sign", samples)
        assert len(generalized.runs) == (8 if d == 8 else 1) and generalized.tables is None
        assert (sign.tables is None) == (sign.runs is not None) == (d == 8)
        assert eval_generalized(generalized, [[0.1] * d, [0.9] * d]).tolist() == [-1.0, 1.0]
        assert eval_sign(sign, [[0.1] * d, [0.9] * d]).tolist() == [-1.0, 1.0]


def test_generalized_collapses_to_sign_on_sign_valued_data():
    rng = np.random.default_rng(6)
    for seed in range(5):
        d = int(rng.integers(1, 4))
        truth = boxbslash(d)
        sign_model = fit(truth, d, 1, 2, 33, seed, "sign")
        gen_model = fit(truth, d, 1, 2, 33, seed, "generalized")
        points = rng.random((50, d))
        assert np.array_equal(eval_sign(sign_model, points), eval_generalized(gen_model, points))
        assert np.array_equal(reconstruction_value(sign_model, points), reconstruction_value(gen_model, points))


@pytest.mark.parametrize("d, k, r, floor, tables", [
    (3, 1, 2, None, True),  # generalized: coordinate runs of value ranks
    (3, 3, 1, None, True),  # generalized: the full-cell run
    (4, 3, 3, 0, False),  # the tables could pass n d entries: coordinate runs
    (8, 3, 8, None, False),  # r d = 64 bits: coordinate runs in every mode
    (8, 8, 8, None, False),
])
def test_modes_agree_on_sign_valued_samples(d, k, r, floor, tables):
    # On the same +-1 samples every mode reads the same exact integer
    # numerators n h(x), whatever route it takes: reconstruction_value and
    # eval_sign give the same bytes in all three modes, and eval_generalized
    # collapses to eval_sign.
    rng = np.random.default_rng(d * 100 + k * 10 + r)
    n = 400
    points = rng.random((60, d))[rng.integers(0, 60, n)]
    samples = SampleSet(points, rng.choice([-1.0, 1.0], n), resolution=r)
    with mock.patch.object(approx_mc, "TABLE_ENTRY_FLOOR", approx_mc.TABLE_ENTRY_FLOOR if floor is None else floor):
        models = [WaveletModel(k, mode, samples) for mode in ("linear", "sign", "generalized")]
    linear, sign, generalized = models
    assert [model.tables is not None for model in models] == [tables, tables, False]
    assert (generalized.order is not None) == (k < d)
    queries = np.concatenate([points[:20], rng.random((10, d))])
    h = reconstruction_value(linear, queries)
    assert (h != 0).any()
    for model in models:
        assert reconstruction_value(model, queries).tobytes() == h.tobytes()
        assert eval_sign(model, queries).tobytes() == eval_sign(sign, queries).tobytes()
    assert eval_generalized(generalized, queries).tobytes() == eval_sign(sign, queries).tobytes()


@pytest.mark.parametrize("d, r", [(1, 3), (2, 6), (3, 1), (3, 20), (5, 2), (8, 8), (10, 9)])
@pytest.mark.parametrize("kind", ["sign", "uniform", "quarter", "negative"])
def test_modes_agree_on_reconstruction_at_k_equals_d(d, r, kind):
    # At k = d every mode reads 2**(r d) times x's cell sum, added in sample
    # order: the tables (linear and sign within 63 bits), the full-cell run
    # (generalized; at d = 3, r = 20 its 60 + 9 bits with the sample index
    # take the argsort, in any order within a cell) and the coordinate runs
    # (every mode at d = 8, r = 8 and d = 10, r = 9, the formula's r at
    # eps = 0.5).  reconstruction_value gives the same bytes in all three
    # modes, an empty cell +0.0 even where every value is <= -0.
    rng = np.random.default_rng(d * 100 + r)
    n = 400
    points = rng.random((60, d))[rng.integers(0, 60, n)]
    values = {"sign": rng.choice([-1.0, 1.0], n), "uniform": rng.uniform(-1.0, 1.0, n),
              "quarter": rng.integers(-4, 5, n) / 4, "negative": -(rng.integers(0, 3, n) / 2)}[kind]
    samples = SampleSet(points, values, resolution=r)
    models = [WaveletModel(d, mode, samples) for mode in ("linear", "sign", "generalized")]
    assert all(model.chi is None for model in models)
    queries = np.concatenate([points[:20], rng.random((10, d))])
    h = reconstruction_value(models[0], queries)
    for model in models[1:]:
        assert reconstruction_value(model, queries).tobytes() == h.tobytes()
    keys = _cell_keys(queries, r)
    empty = ~np.array([(samples.digit_keys == row).all(axis=1).any() for row in keys])
    assert h[empty].tobytes() == np.zeros(empty.sum()).tobytes()
    assert empty.any() == (r * d > 3)


@pytest.mark.parametrize("d, r", [(2, 6), (8, 8), (10, 9)])
def test_k_equals_d_models_hold_no_chi(d, r):
    # No k = d model builds chi: within 63 bits linear and sign read the
    # tables and generalized the full-cell run; past them (64 and 90 bits,
    # the formula's r at eps = 0.5) all three keep coordinate runs.  At
    # k < d a model without tables still builds chi, in int64 only below the
    # guard max(3 n, 4) max|chi| < 2**63 (past it here at d = 8 and 10).
    rng = np.random.default_rng(d)
    samples = SampleSet(rng.random((300, d)), rng.uniform(-1.0, 1.0, 300), resolution=r)
    with mock.patch.object(approx_mc, "chi_table", side_effect=AssertionError("chi_table called")):
        models = [WaveletModel(d, mode, samples) for mode in MODES]
    wide = r * d > 63
    for model in models:
        assert model.chi is None and model.order is None
        assert (model.tables is None) == (wide or model.mode == "generalized")
        if model.tables is None:
            assert model.runs.shape == (d if wide else 1, 300)
    below = WaveletModel(d - 1, "generalized", samples)
    table = chi_table(d, d - 1, r)
    assert below.chi.tolist() == list(table)
    assert below.chi.dtype == (np.int64 if 3 * 300 * max(map(abs, table)) < 2**63 else object) == (
        np.int64 if d == 2 else object)


def test_generalized_matches_direct_threshold_average():
    # Independent route: the output is the average over t in [-1, 1] of the
    # sign of the reconstruction fitted to sgn(y_i - t).  That integrand is
    # constant between consecutive sorted values, so exact quadrature sums
    # interval lengths times the sign of a brute-force double sum (computed
    # in exact integers so that sgn(0) = +1 is decided identically).
    d, k, r, n = 2, 1, 2, 12
    model = fit(Affine(d), d, k, r, n, 2024, "generalized")
    points = np.random.default_rng(2024).random((n, d))  # a fit keeps none; the stream the draw reads
    values = model.samples.values
    assert values.tobytes() == Affine(d)(points).tobytes()
    indices = list(enumerate_indices(d, k, r))
    rng = np.random.default_rng(3)
    queries = rng.random((20, d))
    for x, got in zip(queries, eval_generalized(model, queries)):
        kernel = [pair_kernel(indices, sx, x) for sx in points]
        breaks = np.concatenate([[-1.0], np.sort(values), [1.0]])
        direct = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi <= lo:
                continue
            t = 0.5 * (lo + hi)
            h_numerator = sum(
                (1 if y - t >= 0 else -1) * kern for y, kern in zip(values, kernel)
            )
            direct += 0.5 * (hi - lo) * (1.0 if h_numerator >= 0 else -1.0)
        assert got == pytest.approx(direct, abs=1e-10)


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


def _exact_threshold_cut_sum(samples, k, x):
    """``1/2 sum_i (y_{i+1} - y_i) sgn(g_i(x))`` in exact rationals, rounded once to float."""
    order = np.argsort(samples.values, kind="stable")
    chi = chi_table(samples.d, k, samples.resolution)
    weights = [chi[b] for b in (samples.digit_keys[order] == _cell_keys(x, samples.resolution)).sum(axis=1)]
    ys = [Fraction(-1), *(Fraction(float(v)) for v in samples.values[order]), Fraction(1)]
    total, prefix, whole = Fraction(0), 0, sum(weights)
    for i in range(samples.n + 1):
        total += (ys[i + 1] - ys[i]) * (1 if whole - 2 * prefix >= 0 else -1)
        prefix += weights[i] if i < samples.n else 0
    return float(total / 2)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 60), st.sampled_from(["tied", "uniform", "sign"]),
       st.integers(0, 2**32 - 1), st.data())
def test_generalized_equals_exact_threshold_cut_sum(d, r, n, kind, seed, data):
    # The output is the exact rational threshold-cut sum, correctly rounded:
    # at k < d from the coordinate runs of value ranks, at k = d as the
    # cell's median, on the full-cell run and on coordinate runs of sample
    # indices (what a model keeps past 63 bits, put in its place here).
    # Samples in draw order and presorted by value give the same bytes.
    # Covers n = 1, tied values and chi(0) != 0 (k < d).
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    points = rng.random((max(n // 2, 1), d))[rng.integers(0, max(n // 2, 1), n)]
    values = {"tied": np.round(rng.uniform(-1.0, 1.0, n), 1), "uniform": rng.uniform(-1.0, 1.0, n),
              "sign": rng.choice([-1.0, 1.0], n)}[kind]
    samples = SampleSet(points, values).with_resolution(r)
    queries = np.concatenate([rng.random((4, d)), points[:3]])
    expected = np.array([_exact_threshold_cut_sum(samples, k, x) for x in queries]).tobytes()
    for given_samples in (samples, samples.sorted()):
        runs = WaveletModel(k, "generalized", given_samples)
        coordinate = copy.copy(runs)
        if k == d:  # a model without tables keeps coordinate runs of sample indices
            with mock.patch.object(approx_mc.ProjectionTables, "build", return_value=None):
                linear = WaveletModel(k, "linear", given_samples)
            object.__setattr__(coordinate, "run_keys", linear.run_keys)
            object.__setattr__(coordinate, "runs", linear.runs)
        assert runs.tables is None and len(runs.runs) == (d if k < d else 1)
        assert (runs.order is not None) == (runs.chi is not None) == (k < d)
        assert k == d or runs.chi[0] != 0
        assert len(coordinate.runs) == d
        assert eval_generalized(runs, queries).tobytes() == expected
        assert eval_generalized(coordinate, queries).tobytes() == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 300), st.sampled_from(["tied", "uniform", "sign"]),
       st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_run_flips_match_flip_numerator_reference(d, r, n, kind, spread, seed, data):
    # k < d, byte for byte against the per-row reference (_flip_numerators
    # over every sample, then math.fsum).  Covers d = 1 (k = 0), n = 1, tied values,
    # coordinates equal to 1.0 and, with every point drawn once, cells that
    # hold one sample.
    k = data.draw(st.integers(0, d - 1))
    rng = np.random.default_rng(seed)
    base = rng.random((n if spread else max(n // 3, 1), d))
    base[rng.random(base.shape) < 0.2] = 1.0
    points = base if spread else base[rng.integers(0, len(base), n)]
    values = {"tied": np.round(rng.uniform(-1.0, 1.0, n), 1), "uniform": rng.uniform(-1.0, 1.0, n),
              "sign": rng.choice([-1.0, 1.0], n)}[kind]
    model = WaveletModel(k, "generalized", SampleSet(points, values).with_resolution(r))
    queries = np.concatenate([rng.random((4, d)), points[:4], np.ones((1, d))])
    assert eval_generalized(model, queries).tobytes() == _reference_outputs(model, queries)


def test_generalized_ties_do_not_matter():
    # Duplicate values: tied differences vanish, so permuting tied samples
    # cannot change the output.
    points = np.array([[0.1, 0.1], [0.6, 0.6], [0.9, 0.2], [0.2, 0.8]])
    values = np.array([-0.5, 0.5, 0.5, 1.0])
    base = SampleSet(points, values).with_resolution(2)
    swapped = SampleSet(points[[0, 2, 1, 3]], values).with_resolution(2)
    m1 = WaveletModel(2, "generalized", base)
    m2 = WaveletModel(2, "generalized", swapped)
    points = np.random.default_rng(12).random((50, 2))
    assert np.array_equal(eval_generalized(m1, points), eval_generalized(m2, points))


# ---------------------------------------------------------------------------
# fitting


def test_fit_linear_on_zero_oracle():
    model = fit(lambda x: np.zeros(len(x)), 2, 1, 2, 25, 0, "linear")
    assert np.all(model.samples.values == 0.0)
    assert eval_linear(model, [[0.3, 0.3]]).tolist() == [0.0]


def test_fit_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fit(boxbslash(1), 1, 1, 1, 5, 0, "typo")


def test_fit_generalized_error_below_bound_on_smooth_target():
    from monoapprox.bounds import McParams, ub_error
    from monoapprox.metrics import l1_mc

    truth = Affine(1)
    model = fit(truth, 1, 1, 4, 4000, 5, "generalized")
    err = l1_mc(truth, lambda points: eval_generalized(model, points), 1, 4000, 6)
    assert err.value <= ub_error(McParams(1, 1, 4, 4000, 0.5))
