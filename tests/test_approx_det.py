import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from monoapprox import functions
from monoapprox.approx_det import GridModel, eval_grid, fit_grid, grid_error_bound
from monoapprox.budget import BudgetExceededError
from monoapprox.functions import (
    LATTICE_BLOCK,
    Affine,
    boxbslash,
    is_monotone_on_grid,
    level_set_function,
    random_delta,
    sample_U,
    snap_to_grid,
    step_function,
)


def test_fit_grid_examples():
    ramp = fit_grid(Affine(1), 1, 2)
    assert ramp.lattice_values.shape == (1,)
    assert ramp.lattice_values[0] == 0.0

    square = fit_grid(boxbslash(2), 2, 3)
    assert square.lattice_values.size == 4

    steps = fit_grid(boxbslash(1), 1, 4)
    assert list(steps.lattice_values) == [-1.0, 1.0, 1.0]


def test_fit_grid_budget_and_warning():
    with pytest.raises(BudgetExceededError):
        fit_grid(boxbslash(2), 2, 1000, budget=100)
    with pytest.warns(UserWarning):
        fit_grid(lambda x: -x[:, 0], 1, 4)


def test_eval_grid_d1_closed_form():
    model = fit_grid(Affine(1), 1, 2)
    assert eval_grid(model, [[0.2], [0.7]]).tolist() == [-0.5, 0.5]
    # Exact error 1/4 (each half contributes (1/m)^2 / 2 = 1/8): midpoint
    # Riemann sum over a fine grid pins it down well below tolerance.
    fine = 1 << 12
    mids = (np.arange(fine) + 0.5) / fine
    error = np.mean(np.abs(2 * mids - 1 - eval_grid(model, mids[:, None])))
    assert error == pytest.approx(0.25, abs=1e-6)
    assert 0.25 <= grid_error_bound(1, 2)


def test_eval_grid_boundary_conventions():
    always_one = fit_grid(lambda x: np.ones(len(x)), 2, 2)
    # The lower corner of the first cell is boundary -1, the upper corner of the last +1.
    assert eval_grid(always_one, [[0.25, 0.25], [0.75, 0.75]]).tolist() == [0.0, 1.0]

    const = fit_grid(lambda x: np.full(len(x), 0.25), 1, 3)
    assert eval_grid(const, [[0.1], [0.5], [0.9]]) == pytest.approx(
        [(-1 + 0.25) / 2, 0.25, (0.25 + 1) / 2])


def test_eval_grid_x_equal_one_uses_top_cell():
    model = fit_grid(Affine(2), 2, 4)
    at_one, below = eval_grid(model, [[1.0, 1.0], [0.99, 0.99]])
    assert at_one == below


def test_grid_error_bound_examples():
    assert grid_error_bound(1, 4) == 0.25
    assert grid_error_bound(2, 2) == 1.0
    d, eps = 5, 0.1
    m = int(np.ceil(d / eps))
    assert grid_error_bound(d, m) <= eps + 1e-12


def test_grid_model_validation():
    for bad in (2.0, -1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            GridModel(1, 2, np.array([bad]))
    with pytest.raises(ValueError):
        GridModel(2, 3, np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [2.0, -1.5, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("base", ["monotone", "falling"])
@pytest.mark.parametrize("where", [(0, 0, 0), (2, 2, 2), (1, 1, 1), (0, 2, 1)])
def test_grid_model_rejects_a_bad_value_anywhere(bad, base, where):
    # The range is read from the two corners of a monotone lattice only; a
    # bad value inside a monotone or falling lattice, or at a corner of a
    # falling one, is found by the min/max of the whole lattice.
    values = np.add.outer(np.add.outer(np.arange(3), np.arange(3)), np.arange(3)) / 6 - 0.5
    if base == "falling":
        values = values[::-1].copy()
    assert GridModel(3, 4, values).monotone is (base == "monotone")
    values[where] = bad
    with pytest.raises(ValueError, match=r"lattice values must lie in \[-1, 1\]"):
        GridModel(3, 4, values)


def test_grid_model_monotone_is_derived():
    assert GridModel(2, 3, [[-1.0, 0.0], [0.0, 1.0]]).monotone is True
    assert GridModel(2, 3, [[-1.0, 0.0], [1.0, 0.5]]).monotone is False
    assert GridModel(1, 2, [0.5]).monotone is True
    with pytest.raises(TypeError):
        GridModel(1, 2, [0.5], monotone=False)
    with pytest.raises(AttributeError):
        GridModel(1, 2, [0.5]).monotone = False


def test_fit_grid_raises_on_nan_or_out_of_range_without_warning():
    # The model checks its lattice before fit_grid would warn.
    for oracle in (lambda x: np.where(x[:, 0] > 0.5, np.nan, 0.0), lambda x: 2.0 - x[:, 1]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"lattice values must lie in \[-1, 1\]"):
                fit_grid(oracle, 2, 4)


def test_eval_grid_batch_matches_corner_rule():
    # The corner rule point by point, at random points and at coordinates
    # 0, exactly i/m and 1.0, where the cell index changes.
    rng = np.random.default_rng(19)
    for d, m in ((1, 5), (2, 4), (3, 3), (2, 2)):
        model = fit_grid(step_function(d, m, random_delta(d, m, d * m)), d, m)
        edges = np.arange(m + 1) / m
        points = np.concatenate([rng.random((300, d)), rng.choice(edges, (300, d))])
        for x, out in zip(points, eval_grid(model, points)):
            cell = [min(int(xj * m), m - 1) for xj in x]
            lower = -1.0 if 0 in cell else float(model.lattice_values[tuple(c - 1 for c in cell)])
            upper = 1.0 if m - 1 in cell else float(model.lattice_values[tuple(cell)])
            assert out == 0.5 * (lower + upper)


def test_eval_grid_rejects_malformed_points():
    model = fit_grid(Affine(2), 2, 4)
    for bad in ([0.5, 0.5], [[0.5, 0.5, 0.5]], [[np.nan, 0.5]], [[np.inf, 0.5]],
                [[-0.1, 0.5]], [[0.5, 1.5]]):
        with pytest.raises(ValueError):
            eval_grid(model, bad)


def _meshgrid_values(oracle, d, m):
    """The oracle on the whole interior lattice at once: the reference for fit_grid."""
    coords = np.arange(1, m) / m
    points = np.stack([g.ravel() for g in np.meshgrid(*[coords] * d, indexing="ij")], axis=-1)
    return oracle(points).reshape((m - 1,) * d)


@pytest.mark.parametrize("d, m, block", [(1, 5, LATTICE_BLOCK), (2, 183, LATTICE_BLOCK), (3, 34, LATTICE_BLOCK),
                                         (4, 33, LATTICE_BLOCK), (5, 8, LATTICE_BLOCK), (5, 4, 10)])
def test_fit_grid_matches_meshgrid_lattice(d, m, block):
    # 182 points per axis at d = 2 and 33 at d = 3 are one axis per block,
    # 32 at d = 4 exactly LATTICE_BLOCK rows per block, 7**5 one block; with
    # 10-row blocks, 3**5 takes 27 blocks over three leading axes.
    families = [
        step_function(d, 4, random_delta(d, 4, d)),
        level_set_function(d, 1, d, sample_U(d, 1, 0.5, d)),
        Affine(d),
        boxbslash(d),
        snap_to_grid(Affine(d), d, 2),
    ]
    for oracle in families:
        with warnings.catch_warnings(), mock.patch.object(functions, "LATTICE_BLOCK", block):
            warnings.simplefilter("error")
            got = fit_grid(oracle, d, m).lattice_values
        assert got.tobytes() == _meshgrid_values(oracle, d, m).tobytes()


def _falls_across_blocks(points):
    # Along axis 0 only: between two leading indices, so between two blocks.
    return np.where(points[:, 0] < 0.5, 0.5, 0.0)


def _falls_inside_blocks(points):
    # Along the last axis only: inside every block.
    return np.where(points[:, -1] < 0.5, 0.5, 0.0)


def test_monotone_checks_see_falls_between_and_inside_blocks():
    # fit_grid warns and is_monotone_on_grid says False, with blocks of
    # three axes (d = 4) and of one (182 points at d = 2).
    for oracle in (_falls_across_blocks, _falls_inside_blocks):
        for d, m in ((4, 32), (2, 183)):
            with pytest.warns(UserWarning, match="not monotone"):
                fit_grid(oracle, d, m)
            assert not is_monotone_on_grid(oracle, d, m - 1)
    assert is_monotone_on_grid(Affine(4), 4, 32)


def test_fit_grid_memory_gate():
    # d = 4, m = 32 (det-grid-d4): 923521 lattice values (7.4 MB) and the
    # temporaries of one 29791-point slab.  Peak 8.42 MB measured from
    # per-axis columns, 9.37 MB with a block of points per slab, and 75-118
    # MB with one array of all the points.
    truth = step_function(4, 4, random_delta(4, 4, 0))
    tracemalloc.start()
    try:
        fit_grid(truth, 4, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6, f"fit_grid peaked at {peak / 1e6:.2f} MB"
