import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoapprox import functions, metrics
from monoapprox.approx_det import fit_grid
from monoapprox.approx_mc import fit
from monoapprox.budget import BudgetExceededError
from monoapprox.functions import (
    LATTICE_BLOCK,
    Affine,
    Boxbslash,
    LevelSetFunction,
    StepFamily,
    _column_sums,
    boxbslash,
    eval_batch,
    family_from_spec,
    is_monotone_on_grid,
    lattice_values,
    level_set_function,
    random_delta,
    sample_U,
    snap_to_grid,
    step_function,
    threshold,
)


def test_boxbslash_examples():
    f2 = boxbslash(2)
    assert f2([[0.9, 0.8], [0.5, 0.5]]).tolist() == [1.0, 1.0]  # sgn(0) = +1
    assert boxbslash(3)([[0.1, 0.2, 0.3]]).tolist() == [-1.0]


def test_boxbslash_batch_matches_scalar():
    f = boxbslash(3)
    rng = np.random.default_rng(0)
    points = rng.random((100, 3))
    # The sum rule, point by point: sgn(sum_j x_j - d/2) with sgn(0) = +1.
    expected = [1.0 if math.fsum(p) - 1.5 >= 0.0 else -1.0 for p in points]
    assert np.array_equal(f(points), expected)


def test_eval_batch_requires_one_value_per_point():
    points = np.full((3, 2), 0.5)
    assert eval_batch(boxbslash(2), points).shape == (3,)
    # Leftover pointwise callables return a row, a scalar or the points.
    for pointwise in (lambda x: x[0], lambda x: 1.0, lambda x: x):
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            eval_batch(pointwise, points)


def test_step_function_examples():
    flat = step_function(1, 2, [0, 0])
    assert flat([[0.2], [0.7]]).tolist() == [-1.0, 0.0]
    lifted = step_function(1, 2, [1, 1])
    assert lifted([[0.2], [0.7]]).tolist() == [0.0, 1.0]
    plane = step_function(2, 2, [[0, 0], [0, 0]])
    assert plane([[0.9, 0.9]])[0] == pytest.approx(1 / 3)


def _edge_points(d, m, rng, n=300):
    """Random points and points with every coordinate 0, exactly j/m or 1.0."""
    return np.concatenate([rng.random((n, d)), rng.choice(np.arange(m + 1) / m, (n, d))])


def test_step_function_batch_matches_scalar():
    # The cell value 2 (|i|_1 + delta_i) / (d (m-1) + 1) - 1, point by point,
    # with i_j = min(floor(m x_j), m - 1), at d up to 10.
    rng = np.random.default_rng(4)
    for d, m in ((1, 5), (2, 4), (3, 3), (4, 4), (6, 2), (8, 3), (10, 2)):
        truth = step_function(d, m, random_delta(d, m, d + m))
        points = _edge_points(d, m, rng)
        expected = []
        for p in points:
            cell = tuple(min(int(v * m), m - 1) for v in p)
            expected.append(2.0 * (sum(cell) + int(truth.delta[cell])) / truth.denominator - 1.0)
        assert truth(points).tobytes() == np.array(expected).tobytes()


def test_step_function_monotone_for_every_delta():
    for bits in product((0, 1), repeat=9):
        truth = step_function(2, 3, np.array(bits).reshape(3, 3))
        assert is_monotone_on_grid(truth, 2, 3)


def test_step_function_rejects_incomplete_delta():
    with pytest.raises(ValueError):
        step_function(2, 2, [[0, 1]])
    with pytest.raises(ValueError):
        step_function(1, 2, [0, 2])


def test_step_function_hashes_and_compares_by_identity():
    # With an ndarray field, dataclass equality raised the array truth-value
    # error and hash() raised TypeError (unhashable type: 'numpy.ndarray').
    f = step_function(2, 2, [[0, 1], [1, 0]])
    twin = step_function(2, 2, f.delta)
    assert hash(f) == hash(f) and len({f, twin, f}) == 2
    assert f == f and f != twin and not f == twin
    assert np.array_equal(f(np.array([[0.1, 0.9], [0.9, 0.9]])), twin(np.array([[0.1, 0.9], [0.9, 0.9]])))


def test_random_delta_reproducible():
    assert np.array_equal(random_delta(2, 3, 5), random_delta(2, 3, 5))


def test_level_set_examples():
    # No witness set: pure weight threshold at b.
    f = level_set_function(3, 1, 2, [])
    # Weight 3 > b gives +1; weight 2 <= b with no witness gives -1.
    assert f([[0.9, 0.9, 0.9], [0.9, 0.9, 0.1]]).tolist() == [1.0, -1.0]
    # Full witness set with b = d: +1 exactly at weight >= t.
    full = level_set_function(3, 2, 3, [u for u in range(8) if bin(u).count("1") == 2])
    assert full([[0.9, 0.9, 0.1], [0.9, 0.1, 0.1]]).tolist() == [1.0, -1.0]
    # Single witness not below the point.
    g = level_set_function(3, 1, 3, [(1, 0, 0)])
    assert g([[0.1, 0.9, 0.9], [0.9, 0.1, 0.1]]).tolist() == [-1.0, 1.0]


def test_level_set_rejects_wrong_weight_member():
    with pytest.raises(ValueError):
        level_set_function(3, 2, 3, [(1, 0, 0)])


def _level_set_rule(truth, points):
    """Brute-force up-set membership of the half-split vertex of each point."""
    expected = []
    for p in points:
        mask = sum(1 << j for j, v in enumerate(p) if v >= 0.5)
        witnessed = any(mask & u == u for u in truth.members)
        expected.append(1.0 if mask.bit_count() > truth.b or witnessed else -1.0)
    return expected


def test_level_set_batch_matches_scalar():
    # At d up to 12, with coordinates 0, exactly j/m (1/2 among them) and 1.0.
    rng = np.random.default_rng(1)
    for d, t, b in ((1, 1, 1), (4, 2, 3), (5, 1, 5), (7, 3, 4), (10, 2, 6), (10, 4, 10), (12, 3, 7)):
        truth = level_set_function(d, t, b, sample_U(d, t, 0.5, 7 + d))
        points = _edge_points(d, 4, rng)
        assert np.array_equal(truth(points), _level_set_rule(truth, points))


def test_level_set_routes_agree_with_the_rule():
    # The vertex table is built while 2**d <= LATTICE_BLOCK (d <= 15);
    # past that the members are tested one by one.  Both give the rule.
    rng = np.random.default_rng(2)
    for d, tabulated in ((15, True), (16, False)):
        truth = level_set_function(d, 2, d // 2, sample_U(d, 2, 0.3, d))
        assert (truth._values is not None) is tabulated
        points = _edge_points(d, 4, rng, n=100)
        assert np.array_equal(truth(points), _level_set_rule(truth, points))


def test_families_reject_wrong_widths():
    oracles = (
        step_function(2, 2, np.zeros((2, 2))),
        level_set_function(2, 1, 2, []),
        Affine(2),
        boxbslash(2),
        snap_to_grid(Affine(2), 2, 3),
    )
    for oracle in oracles:
        for bad in (np.full((3, 1), 0.5), np.full((3, 3), 0.5), np.full(3, 0.5)):
            with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
                oracle(bad)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be positive"):
            Affine(d)


# The kernels the column sums and value tables replaced, kept as references.
def _reference_step(truth, points):
    columns = np.asarray(points, dtype=float).T
    level = np.zeros(columns.shape[1], dtype=np.int64)
    code = np.zeros(columns.shape[1], dtype=np.intp)
    for column in columns:
        cell = np.minimum((column * truth.m).astype(np.intp), truth.m - 1)
        level += cell
        code *= truth.m
        code += cell
    level += truth.delta.ravel()[code]
    return 2.0 * level / truth.denominator - 1.0


def _reference_level_set(truth, points):
    columns = np.asarray(points, dtype=float).T
    weights = np.zeros(columns.shape[1], dtype=np.int64)
    masks = np.zeros(columns.shape[1], dtype=np.int64)
    for column in columns[::-1]:
        bit = column >= 0.5
        weights += bit
        masks <<= 1
        masks += bit
    covered = weights > truth.b
    for u in truth.members:
        covered |= (masks & u) == u
    return np.where(covered, 1.0, -1.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_family_kernels_match_their_references(d, seed, data):
    # Byte for byte, at d = 1 to 12 (d >= 8 sums pairwise), on random points
    # and on points whose coordinates are 0, exactly j/m, 0.5 and 1.0.
    m = data.draw(st.integers(1, max(m for m in range(1, 7) if m**d <= 4096)))
    edges = np.union1d(np.arange(m + 1) / m, [0.5])
    rows = st.lists(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)), min_size=d, max_size=d)
    rng = np.random.default_rng(seed)
    points = np.concatenate([
        np.array(data.draw(st.lists(rows, min_size=1, max_size=40)), dtype=float),
        rng.random((200, d)),
        rng.choice(edges, (200, d)),
    ])
    sums = np.ascontiguousarray(points).sum(axis=1)
    assert Affine(d)(points).tobytes() == (2.0 * sums / d - 1.0).tobytes()
    assert boxbslash(d)(points).tobytes() == np.where(sums - d / 2.0 >= 0.0, 1.0, -1.0).tobytes()
    step = step_function(d, m, random_delta(d, m, seed))
    assert step(points).tobytes() == _reference_step(step, points).tobytes()
    t = data.draw(st.integers(1, d))
    b = data.draw(st.integers(t, d))
    level = level_set_function(d, t, b, sample_U(d, t, data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed))
    assert level(points).tobytes() == _reference_level_set(level, points).tobytes()


def test_level_set_monotone_under_bit_flips():
    # Exhaustive over the Boolean cube for several random draws.
    for seed in range(5):
        d = 6
        truth = level_set_function(d, 2, 4, sample_U(d, 2, 0.35, seed))
        # Row ``mask`` is the point of the vertex: 0.75 on its set bits, 0.25 elsewhere.
        vertices = [[0.75 if mask >> j & 1 else 0.25 for j in range(d)] for mask in range(1 << d)]
        values = truth(vertices)
        for mask in range(1 << d):
            for j in range(d):
                if not mask >> j & 1:
                    assert values[mask | 1 << j] >= values[mask]


def test_sample_U_membership_probability():
    members = sample_U(10, 2, 1.0, 0)
    assert len(members) == math.comb(10, 2)
    assert sample_U(10, 2, 0.0, 0) == frozenset()


def test_threshold_examples():
    assert threshold(lambda x: np.zeros(len(x)), 0.0)([[0.5]]).tolist() == [1.0]  # sgn(0) = +1
    ramp = Affine(1)
    cut = threshold(ramp, 0.0)
    assert cut([[0.25], [0.5]]).tolist() == [-1.0, 1.0]
    assert threshold(ramp, -2.0)([[0.1]]).tolist() == [1.0]


@settings(max_examples=50)
@given(
    st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0),
)
def test_threshold_nonincreasing_in_t(t0, t1, x0, x1):
    low, high = sorted((t0, t1))
    oracle = boxbslash(2)
    point = [[x0, x1]]
    assert threshold(oracle, low)(point)[0] >= threshold(oracle, high)(point)[0]


def test_is_monotone_on_grid_examples():
    assert is_monotone_on_grid(boxbslash(3), 3, 4)
    assert not is_monotone_on_grid(lambda x: -x[:, 0], 1, 4)


def _check_lattice_blocks(size, d, block=LATTICE_BLOCK):
    # A recording callable, called through lattice_values: its batches are
    # the slabs, and the values it answers must land where their rows lie.
    coords = (np.arange(size) + 0.5) / size
    reference = np.stack([g.ravel() for g in np.meshgrid(*[coords] * d, indexing="ij")], axis=-1)
    t = max([1] + [t for t in range(1, d + 1) if size**t <= block])
    batches = []

    def record(points):
        batches.append(points.copy())
        return np.arange(len(points)) + len(points) * (len(batches) - 1.0)  # every slab has size**t rows

    with mock.patch.object(functions, "LATTICE_BLOCK", block):
        values = lattice_values(record, coords, d)
    assert len(batches) == size ** (d - t)
    for k, points in enumerate(batches):
        assert points.tobytes() == reference[k * size**t : (k + 1) * size**t].tobytes()
    assert np.array_equal(values.ravel(), np.arange(size**d))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 10, 100, LATTICE_BLOCK]), st.data())
def test_lattice_blocks_yield_the_meshgrid_lattice(d, block, data):
    # A callable's batches, in order, are the rows of the "ij" meshgrid
    # lattice in C order, each the largest sub-lattice of trailing axes
    # within the block size (at least one axis).  Sizes 1-40, at most
    # 300 000 points in all; smaller blocks give several leading axes.
    _check_lattice_blocks(data.draw(st.integers(1, min(40, round(300_000 ** (1 / d))))), d, block)


@pytest.mark.parametrize("d, size", [(2, 181), (2, 182), (4, 31), (4, 32), (4, 33), (1, 40_000)])
def test_lattice_blocks_at_the_block_edge(d, size):
    # 181**2 = 32761 <= 2**15 < 182**2 and 32**3 = 2**15 < 33**3: one axis
    # more or less per block.  A single axis longer than a block is one block.
    _check_lattice_blocks(size, d)


def test_lattice_entry_points_reject_d_below_one():
    # They raised IndexError from the lattice's slabs.
    ones = lambda x: np.ones(len(x))  # noqa: E731
    with pytest.raises(ValueError, match="d must be positive"):
        is_monotone_on_grid(ones, 0, 3)
    with pytest.raises(ValueError, match="d must be positive"):
        metrics.grid_midpoint_values(ones, 0, 2)
    with pytest.raises(ValueError, match="d must be positive"):
        metrics.l1_exact_dyadic(ones, ones, 0, 2)


def test_is_monotone_on_grid_rejects_nan():
    # Every comparison with NaN is False, so the check answered True.
    with pytest.raises(ValueError, match="NaN"):
        is_monotone_on_grid(lambda x: np.full(len(x), np.nan), 2, 3)
    with pytest.raises(ValueError, match="NaN"):
        is_monotone_on_grid(lambda x: np.where(x[:, 0] > 0.7, np.nan, 0.0), 2, 3)


# The batch kernels that on_columns replaced, kept as references.
def _replaced_row_sums(points, d):
    pts = np.asarray(points, dtype=float)
    if d >= 8:
        return pts.sum(axis=1)
    total = pts[:, 0].copy()
    for j in range(1, d):
        total += pts[:, j]
    return total


def _replaced_affine(d, points):
    s = _replaced_row_sums(points, d)
    s *= 2.0
    s /= d
    s -= 1.0
    return s


def _replaced_boxbslash(d, points):
    s = _replaced_row_sums(points, d)
    s -= d / 2.0
    return np.where(s >= 0.0, 1.0, -1.0)


def _replaced_step(truth, points):
    columns = np.asarray(points, dtype=float).T
    code = np.zeros(columns.shape[1], dtype=np.intp)
    for column in columns:
        cell = (column * truth.m).astype(np.intp)
        np.minimum(cell, truth.m - 1, out=cell)
        code *= truth.m
        code += cell
    return truth._values[code]


def _replaced_level_set(truth, points):
    columns = np.asarray(points, dtype=float).T
    masks = np.zeros(columns.shape[1], dtype=np.intp)
    for column in columns[::-1]:
        masks <<= 1
        masks += column >= 0.5
    if truth._values is not None:
        return truth._values[masks]
    covered = (columns >= 0.5).sum(axis=0) > truth.b
    for u in truth.members:
        covered |= (masks & u) == u
    return np.where(covered, 1.0, -1.0)


def _replaced_kernel(oracle):
    """The oracle with its family kernel swapped for the replaced one: no ``on_columns``."""
    if isinstance(oracle, StepFamily):
        return lambda points: _replaced_step(oracle, points)
    if isinstance(oracle, LevelSetFunction):
        return lambda points: _replaced_level_set(oracle, points)
    if isinstance(oracle, Affine):
        return lambda points: _replaced_affine(oracle.d, points)
    if isinstance(oracle, Boxbslash):
        return lambda points: _replaced_boxbslash(oracle.d, points)
    if isinstance(oracle, functions._Thresholded):
        return threshold(_replaced_kernel(oracle.oracle), oracle.t)
    inner, scale = _replaced_kernel(oracle.oracle), 1 << oracle.r  # snapped

    def snapped(points):
        cells = np.minimum((np.asarray(points, dtype=float) * scale).astype(np.int64), scale - 1)
        return eval_batch(inner, (cells + 0.5) / scale)

    return snapped


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64, LATTICE_BLOCK]), st.data())
def test_lattice_values_match_the_replaced_block_route(d, seed, block, data):
    # Byte for byte: a family's lattice from per-axis columns against the
    # replaced kernel on blocks of points, for all four families and both
    # wrappers, with coordinates 0, exactly j/m, 0.5 and 1.0 in any order
    # and with repeats.  Small blocks give several leading axes per slab,
    # and level sets past 2**d > block test their members one by one.
    m = data.draw(st.integers(1, 6))
    edges = np.union1d(np.arange(m + 1) / m, [0.5])
    size = data.draw(st.integers(1, max(s for s in range(1, 9) if s**d <= 4096)))
    coords = np.array(data.draw(st.lists(st.sampled_from(edges), min_size=size, max_size=size)))
    t = data.draw(st.integers(1, d))
    with mock.patch.object(functions, "LATTICE_BLOCK", block):
        level = level_set_function(d, t, data.draw(st.integers(t, d)),
                                   sample_U(d, t, data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed))
        step_m = max(m, 2) if d <= 6 else 2
        step = step_function(d, step_m, random_delta(d, step_m, seed))
        oracles = [step, level, Affine(d), boxbslash(d),
                   threshold(step, data.draw(st.sampled_from([-0.5, 0.0, 0.2]))),
                   snap_to_grid(data.draw(st.sampled_from([Affine(d), level])), d, data.draw(st.integers(0, 3)))]
        for oracle in oracles:
            reference = _replaced_kernel(oracle)
            assert not hasattr(reference, "on_columns")
            got = lattice_values(oracle, coords, d)
            assert got.shape == (size,) * d
            assert got.tobytes() == lattice_values(reference, coords, d).tobytes()


@pytest.mark.parametrize("d", [*range(1, 41), 100, 129, 200, 300])
def test_column_sums_round_as_numpy_row_sums(d):
    # A batch ((d, n) array) and a list of its columns both round as
    # sum(axis=1): left to right below 8 terms, pairwise from 8.
    rng = np.random.default_rng(d)
    points = rng.random((500, d)) * 10.0 ** rng.integers(-8, 9, (500, d)) * rng.choice([-1.0, 1.0], (500, d))
    expected = points.sum(axis=1).tobytes()
    assert _column_sums(points.T).tobytes() == expected
    assert _column_sums(list(points.T)).tobytes() == expected


@pytest.mark.parametrize("d", [9, 16, 17])
def test_column_sums_broadcast_as_lattice_row_sums(d):
    # Columns along their own axes sum like the rows of their lattice.
    rng = np.random.default_rng(d)
    coords = rng.random((d, 2)) * 10.0 ** rng.integers(-8, 9, (d, 2))
    columns = [c.reshape((2,) + (1,) * (d - 1 - j)) for j, c in enumerate(coords)]
    points = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, d)
    assert _column_sums(columns).ravel().tobytes() == points.sum(axis=1).tobytes()


def _families(d):
    step = step_function(d, 3, random_delta(d, 3, d))
    level = level_set_function(d, 1, d, sample_U(d, 1, 0.5, d))
    return [step, level, Affine(d), boxbslash(d)]


@pytest.mark.parametrize("d", [1, 2, 9])
def test_kernels_leave_their_points_unchanged(d):
    # At d = 1 the column sum was once a view of the batch, which Affine
    # then scaled in place.
    rng = np.random.default_rng(d)
    for oracle in _families(d):
        points = rng.random((50, d))
        before = points.tobytes()
        oracle(points)
        threshold(oracle, 0.0)(points)
        snap_to_grid(oracle, d, 2)(points)
        oracle.on_columns(points.T)
        oracle.on_columns(list(points.T))
        assert points.tobytes() == before


@pytest.mark.parametrize("d", [2, 4])
def test_lattices_reject_a_family_of_another_width(d):
    # A family gets d columns per slab; too few or too many is the ValueError
    # a batch of the wrong width gets, not a silently wrong lattice.
    for width in (d - 1, d + 1):
        for oracle in _families(width):
            for evaluate in (lambda: fit_grid(oracle, d, 4), lambda: is_monotone_on_grid(oracle, d, 3),
                             lambda: metrics.grid_midpoint_values(oracle, d, 2)):
                with pytest.raises(ValueError, match=rf"points must have shape \(m, {width}\)"):
                    evaluate()


def test_family_lattices_never_call_the_batch_kernel():
    # Families are evaluated from per-axis columns; __call__ is not used.
    d = 3
    patches = [mock.patch.object(cls, "__call__", side_effect=AssertionError(cls.__name__))
               for cls in (StepFamily, LevelSetFunction, Affine, Boxbslash)]
    for patch in patches:
        patch.start()
    try:
        for oracle in _families(d):
            assert fit_grid(oracle, d, 5).lattice_values.shape == (4,) * d
            assert is_monotone_on_grid(oracle, d, 4)
            assert metrics.grid_midpoint_values(oracle, d, 2).shape == (4,) * d
    finally:
        for patch in patches:
            patch.stop()


def test_callables_still_get_blocks_of_points():
    # Anything without on_columns gets (n, d) batches of at most LATTICE_BLOCK rows.
    shapes = []

    def oracle(points):
        shapes.append(points.shape)
        return points.sum(axis=1) / 4
    assert is_monotone_on_grid(oracle, 4, 20)
    assert fit_grid(oracle, 2, 300).lattice_values.shape == (299, 299)
    assert all(n <= LATTICE_BLOCK and width in (2, 4) for n, width in shapes)
    assert sum(n for n, width in shapes if width == 4) == 20**4
    assert sum(n for n, width in shapes if width == 2) == 299**2


def test_on_columns_must_return_the_slab_shape():
    class Flat:
        def on_columns(self, columns):
            return 0.0

    with pytest.raises(ValueError, match=r"on_columns returned shape \(\) for a slab of shape \(3, 3\)"):
        lattice_values(Flat(), [0.2, 0.5, 0.7], 2)


# Every public oracle at d = 2, built on first use: the families, both
# wrappers, a fitted grid model and a wavelet model of each mode.
_ORACLES_D2 = {
    "step": lambda: step_function(2, 4, random_delta(2, 4, 0)),
    "levelset": lambda: level_set_function(2, 1, 2, sample_U(2, 1, 0.5, 0)),
    "affine": lambda: Affine(2),
    "boxbslash": lambda: boxbslash(2),
    "threshold": lambda: threshold(Affine(2), 0.1),
    "snapped": lambda: snap_to_grid(boxbslash(2), 2, 2),
    "grid-model": lambda: fit_grid(Affine(2), 2, 4),
    **{f"{mode}-model": (lambda mode=mode: fit(Affine(2), 2, 1, 2, 64, 0, mode))
       for mode in ("linear", "sign", "generalized")},
}


@pytest.mark.parametrize("bad", [[[np.nan, 0.1]], [[np.inf, 0.1]], [[0.2, -np.inf]], [[-0.5, 0.5]],
                                 [[0.5, 1.5]], [[0.1, 0.2, 0.3]], [0.1, 0.2]],
                         ids=["nan", "inf", "-inf", "-0.5", "1.5", "width-3", "bare-point"])
@pytest.mark.parametrize("name", list(_ORACLES_D2))
def test_oracles_reject_points_outside_the_cube(name, bad):
    # Families answered such points silently: a step function 0.0 at -0.5,
    # Affine 3.0 at (2, 2), boxbslash -1.0 at (nan, 0.1).
    oracle = _ORACLES_D2[name]()
    assert oracle([[0.0, 1.0], [0.3, 0.7]]).shape == (2,)
    with pytest.raises(ValueError, match="points must"):
        oracle(bad)


def test_is_monotone_budget():
    with pytest.raises(BudgetExceededError):
        is_monotone_on_grid(boxbslash(2), 2, 100, budget=100)


def test_snap_to_grid_is_piecewise_constant_and_monotone():
    snapped = snap_to_grid(boxbslash(2), 2, 2)
    first, second = snapped([[0.30, 0.10], [0.49, 0.24]])
    assert first == second
    assert is_monotone_on_grid(snapped, 2, 8)
    rng = np.random.default_rng(3)
    points = rng.random((100, 2))
    # Evaluation at the midpoint of each point's resolution-2 cell.
    mids = [[(min(int(v * 4), 3) + 0.5) / 4 for v in p] for p in points]
    assert np.array_equal(snapped(points), boxbslash(2)(mids))


def test_family_from_spec():
    assert family_from_spec("boxbslash", 2, 0)([[0.9, 0.9]]).tolist() == [1.0]
    assert family_from_spec("affine", 2, 0)([[0.5, 0.5]]).tolist() == [0.0]
    step = family_from_spec("step:m=4", 2, 11)
    assert is_monotone_on_grid(step, 2, 4)
    level = family_from_spec("levelset:t=1,b=2,p=0.5", 3, 11)
    assert level([[0.9, 0.9, 0.9]]).tolist() == [1.0]
    with pytest.raises(ValueError):
        family_from_spec("unknown", 2, 0)
    with pytest.raises(ValueError):
        family_from_spec("levelset:t=1,bogus=2", 3, 0)
