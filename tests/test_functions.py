import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoapprox import functions
from monoapprox.budget import BudgetExceededError
from monoapprox.functions import (
    LATTICE_BLOCK,
    Affine,
    boxbslash,
    eval_batch,
    family_from_spec,
    is_monotone_on_grid,
    lattice_blocks,
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
    coords = (np.arange(size) + 0.5) / size
    reference = np.stack([g.ravel() for g in np.meshgrid(*[coords] * d, indexing="ij")], axis=-1)
    t = max([1] + [t for t in range(1, d + 1) if size**t <= block])
    indices = []
    with mock.patch.object(functions, "LATTICE_BLOCK", block):
        for k, (index, points) in enumerate(lattice_blocks(coords, d)):
            indices.append(index)
            assert points.tobytes() == reference[k * size**t : (k + 1) * size**t].tobytes()
    assert indices == list(np.ndindex(*(size,) * (d - t)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 10, 100, LATTICE_BLOCK]), st.data())
def test_lattice_blocks_yield_the_meshgrid_lattice(d, block, data):
    # The blocks, in order, are the rows of the "ij" meshgrid lattice in C
    # order, each the largest sub-lattice of trailing axes within the block
    # size (at least one axis).  Sizes 1-40, at most 300 000 points in all;
    # smaller blocks give several leading axes.
    _check_lattice_blocks(data.draw(st.integers(1, min(40, round(300_000 ** (1 / d))))), d, block)


@pytest.mark.parametrize("d, size", [(2, 181), (2, 182), (4, 31), (4, 32), (4, 33), (1, 40_000)])
def test_lattice_blocks_at_the_block_edge(d, size):
    # 181**2 = 32761 <= 2**15 < 182**2 and 32**3 = 2**15 < 33**3: one axis
    # more or less per block.  A single axis longer than a block is one block.
    _check_lattice_blocks(size, d)


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
