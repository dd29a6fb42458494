import dataclasses
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoapprox import functions, metrics
from monoapprox.approx_det import GridModel, fit_grid
from monoapprox.approx_mc import ProjectionTables, SampleSet, WaveletModel, fit
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
from monoapprox.verify import family_rule


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


def _ownership_case(name):
    """``(make, inputs, outputs)``: ``make(*inputs)`` builds one object from the caller's arrays."""
    rng = np.random.default_rng(24)
    points, signs, query = rng.random((300, 3)), rng.choice([-1.0, 1.0], 300), rng.random((40, 3))
    if name == "SampleSet":  # it keys the points and keeps only their keys
        return (lambda v: SampleSet(points, v, resolution=2), [rng.uniform(-1.0, 1.0, 300)],
                lambda s: (s.values, s.digit_keys))
    if name == "StepFamily":
        return lambda delta: StepFamily(3, 4, delta), [random_delta(3, 4, 1)], lambda f: f(query)
    if name == "LevelSetFunction":
        return lambda: level_set_function(3, 1, 2, sample_U(3, 1, 0.5, 2)), [], lambda f: f(query)
    if name == "GridModel":
        lattice = fit_grid(Affine(3), 3, 5).lattice_values.copy()
        return lambda values: GridModel(3, 5, values), [lattice], lambda model: model(query)
    if name == "ProjectionTables":
        samples = SampleSet(points, signs, resolution=2)
        tables = ProjectionTables.build(samples, 2, True)
        return (lambda *arrays: ProjectionTables(*arrays), [a.copy() for a in vars(tables).values()],
                lambda t: t.numerator(samples.digit_keys[:40]))
    mode, k = name.split("-")[1:]  # WaveletModel-<mode>-<k>
    return (lambda v: WaveletModel(int(k), mode, SampleSet(points, v, resolution=2)), [signs],
            lambda model: model(query))


def _held_arrays(obj):
    """Every array an object holds in its fields, and in the fields of the dataclasses among them."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _held_arrays(value)


@pytest.mark.parametrize("name", ["SampleSet", "StepFamily", "LevelSetFunction", "GridModel", "ProjectionTables",
                                  "WaveletModel-sign-2", "WaveletModel-generalized-2", "WaveletModel-generalized-3"])
def test_objects_own_read_only_arrays_and_never_freeze_the_callers(name):
    # A writable array passed in, or a writable memoryview of one, is copied
    # and stays writable; writing to it leaves the object's outputs as they
    # were; every array the object holds is read-only; a read-only array
    # passed in is adopted as it is.
    make, inputs, outputs = _ownership_case(name)
    obj = make(*inputs)
    before = [np.asarray(out).tobytes() for out in outputs(obj)]
    assert all(array.flags.writeable for array in inputs)
    for array in inputs:
        array[...] = 0
    assert [np.asarray(out).tobytes() for out in outputs(obj)] == before
    inputs = _ownership_case(name)[1]
    obj = make(*map(memoryview, inputs))
    for array in inputs:
        array[...] = 0
    assert [np.asarray(out).tobytes() for out in outputs(obj)] == before
    held = list(_held_arrays(obj))
    assert held and not any(array.flags.writeable for array in held)
    frozen = [array.copy() for array in _ownership_case(name)[1]]
    for array in frozen:
        array.flags.writeable = False
    held = list(_held_arrays(make(*frozen)))
    assert all(any(h is array for h in held) for array in frozen)


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
    t = data.draw(st.integers(1, d))
    b = data.draw(st.integers(t, d))
    level = level_set_function(d, t, b, sample_U(d, t, data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed))
    for oracle in (Affine(d), boxbslash(d), step_function(d, m, random_delta(d, m, seed)), level):
        assert oracle(points).tobytes() == family_rule(oracle, points).tobytes()


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
    # The cut is immutable and, like the snapped wrapper, compares by identity.
    for wrapper, name in ((cut, "t"), (snap_to_grid(ramp, 1, 2), "r")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(wrapper, name, 5)
    assert cut([[0.25]]).tolist() == [-1.0] and cut != threshold(ramp, 0.0)


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


def _moveaxis_is_monotone(values):
    """The per-axis check that the flat one replaced, NaN counted as a fall: the reference."""
    values = np.asarray(values)
    if np.isnan(values).any():
        return False
    for axis in range(values.ndim):
        along = np.moveaxis(values, axis, 0)
        if np.less(along[1:], along[:-1]).any():
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.data())
def test_lattice_is_monotone_matches_the_moveaxis_reference(d, data):
    # A monotone lattice, a sum of nondecreasing per-axis profiles with ties.
    # One steep axis makes every pair that leaves it a fall between flat
    # neighbours that are no lattice neighbours (a row's last entry against
    # the next row's first, for the last axis); a planted drop is a fall
    # between lattice neighbours, and NaN is a fall wherever it sits.
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    values = np.zeros(shape)
    steep = data.draw(st.integers(-1, d - 1))
    for j, size in enumerate(shape):
        profile = np.cumsum(data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
        values = values + (100 if j == steep else 1) * profile.reshape((-1,) + (1,) * (d - 1 - j))
    flat = values.reshape(-1)
    plant = data.draw(st.sampled_from(["none", "drop", "nan"]))
    axes = [j for j, size in enumerate(shape) if size > 1]
    if plant == "drop" and axes:
        axis = data.draw(st.sampled_from(axes))
        index = [data.draw(st.integers(0, size - 1)) for size in shape]
        index[axis] = data.draw(st.integers(0, shape[axis] - 2))
        after = list(index)
        after[axis] += 1
        values[tuple(after)] = values[tuple(index)] - data.draw(st.sampled_from([0.5, 1e-9, 1000.0]))
    elif plant == "nan":
        flat[data.draw(st.integers(0, flat.size - 1))] = np.nan
    values = values / (1.0 + np.abs(values[~np.isnan(values)]).max(initial=0.0))  # into [-1, 1], the order kept
    expected = _moveaxis_is_monotone(values)
    assert expected is (plant == "none" or (plant == "drop" and not axes))
    assert functions.lattice_is_monotone(values) is expected
    if d >= 1 and len(set(shape)) == 1:  # a grid model's lattice
        if plant == "nan":
            with pytest.raises(ValueError, match="lattice values must lie in"):
                GridModel(d, shape[0] + 1, values)
        else:
            assert GridModel(d, shape[0] + 1, values).monotone is expected


def test_lattice_is_monotone_named_cases():
    assert functions.lattice_is_monotone(np.zeros((0, 3)))  # empty
    assert functions.lattice_is_monotone(np.array(0.5))  # d = 0
    assert not functions.lattice_is_monotone(np.array(np.nan))
    assert not functions.lattice_is_monotone(np.full((1, 1, 1), np.nan))
    assert functions.lattice_is_monotone(np.full((1, 1, 1), 0.25))
    rows = np.array([[0.0, 0.5, 0.9], [0.1, 0.6, 1.0]])  # 0.9 then 0.1 in flat order
    assert functions.lattice_is_monotone(rows)
    assert not functions.lattice_is_monotone(rows[::-1])
    assert not functions.lattice_is_monotone(rows[:, ::-1])
    assert functions.lattice_is_monotone(np.asfortranarray(rows))
    inner = np.arange(27.0).reshape(3, 3, 3)[:, ::-1, :]  # falls along axis 1 only
    assert not functions.lattice_is_monotone(inner)
    assert functions.lattice_is_monotone(inner[:, ::-1, :])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64, LATTICE_BLOCK]), st.data())
def test_lattice_values_match_the_replaced_block_route(d, seed, block, data):
    # Byte for byte: a family's lattice from per-axis columns against its
    # defining rule (verify.family_rule, which reads no value table) on
    # blocks of points, for all four families and both wrappers, with
    # coordinates 0, exactly j/m, 0.5 and 1.0 in any order and with repeats.
    # Small blocks give several leading axes per slab, and level sets past
    # 2**d > block test their members one by one.
    # Sizes stop at 256 slabs: the slab count, not the lattice, sets this test's time.
    m = data.draw(st.integers(1, 6))
    edges = np.union1d(np.arange(m + 1) / m, [0.5])
    with mock.patch.object(functions, "LATTICE_BLOCK", block):
        size = data.draw(st.integers(1, max(s for s in range(1, 9)
                                            if s**d <= 4096 and s ** (d - functions._slab_axes(s, d)) <= 256)))
        coords = np.array(data.draw(st.lists(st.sampled_from(edges), min_size=size, max_size=size)))
        t = data.draw(st.integers(1, d))
        level = level_set_function(d, t, data.draw(st.integers(t, d)),
                                   sample_U(d, t, data.draw(st.sampled_from([0.0, 0.3, 1.0])), seed))
        step_m = max(m, 2) if d <= 6 else 2
        step = step_function(d, step_m, random_delta(d, step_m, seed))
        oracles = [step, level, Affine(d), boxbslash(d),
                   threshold(step, data.draw(st.sampled_from([-0.5, 0.0, 0.2]))),
                   snap_to_grid(data.draw(st.sampled_from([Affine(d), level])), d, data.draw(st.integers(0, 3)))]
        for oracle in oracles:
            reference = lambda points: family_rule(oracle, points)  # no on_columns: the points route
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
    "threshold-callable": lambda: threshold(lambda x: np.zeros(len(x)), 0.0),
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
    # A threshold cut of a plain callable, with no d, answered [1.] at (2, nan).
    oracle = _ORACLES_D2[name]()
    assert oracle([[0.0, 1.0], [0.3, 0.7]]).shape == (2,)
    if name == "threshold-callable" and np.shape(bad) == (1, 3):
        assert oracle(bad).tolist() == [1.0]  # no d to check: the batch's own width holds
        return
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
