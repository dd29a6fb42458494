"""Deterministic grid approximation of monotone functions.

The cube is split into ``m**d`` subcubes; the oracle is evaluated at the
``(m-1)**d`` interior lattice points ``i/m``.  On each subcube the output is
the midpoint of what is known about the function at the subcube's lower and
upper corners, where corners on the domain boundary are assumed to take the
extreme values (-1 below, +1 above) without spending evaluations.  For any
monotone input the L1 error is at most ``d/m``: subcubes group into at most
``d * m**(d-1)`` corner-touching diagonals and monotonicity confines the
error along each diagonal to a single subcube volume.

The lattice is evaluated slab by slab (``functions.lattice_values``): a
family oracle gets each slab as per-axis coordinates, any other callable as
a block of points, and the model checks it in one flat pass per axis
(``monotone``), a monotone lattice's range at two corners.  A step fit at
d = 4, m = 32 (923521 points) takes 5.1-5.4 ms (2 CPUs) and peaks at 8.3 MB
(tracemalloc), against 75-118 MB for one array of all the points.

A fitted ``GridModel`` is a column oracle (``functions.ColumnOracle``), so
a model's own lattices, as in its exact L1 error, are read by columns too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .budget import check_budget
# eval_batch is no longer called here, but stays a module attribute: the
# benchmark's tracer wraps approx_det.eval_batch by name.
from .functions import ColumnOracle, _set_frozen, _width, eval_batch, lattice_is_monotone, lattice_values  # noqa: F401


@dataclass(frozen=True)
class GridModel(ColumnOracle):
    """Fitted deterministic approximant: interior lattice values on the m-grid.

    Its output on a subcube is the midpoint of the corner knowledge: the
    stored value at the lower corner, or -1 when any coordinate of that
    corner lies on the lower boundary, and the stored value at the upper
    corner, or +1 when any coordinate lies on the upper boundary.  The lattice
    is stored read-only: a writable one passed in is copied, a read-only one adopted.
    """

    d: int
    m: int
    lattice_values: np.ndarray = field(repr=False)
    monotone: bool = field(init=False)  # derived: nondecreasing along every axis, no NaN

    def __post_init__(self) -> None:
        if self.m < 2 or self.d < 1:
            raise ValueError("need m >= 2 and d >= 1")
        values = np.asarray(self.lattice_values, dtype=float)
        if values.shape != (self.m - 1,) * self.d:
            raise ValueError(
                f"lattice must have shape {(self.m - 1,) * self.d}, got {values.shape}"
            )
        values = np.ascontiguousarray(values)
        monotone = lattice_is_monotone(values)  # then NaN-free, spanning [first, last]
        low, high = (values.flat[0], values.flat[-1]) if monotone else (values.min(), values.max())
        if not (low >= -1.0 and high <= 1.0):  # NaN fails too
            raise ValueError("lattice values must lie in [-1, 1]")
        _set_frozen(self, lattice_values=values, monotone=monotone)

    def on_columns(self, columns) -> np.ndarray:
        m = self.m
        # Row-major flat indices of the lower and upper corners, column by column.
        low = high = 0
        on_low = on_high = False
        for column in _width(columns, self.d):
            cell = np.minimum((column * m).astype(np.intp), m - 1)
            low = low * (m - 1) + np.maximum(cell - 1, 0)
            high = high * (m - 1) + np.minimum(cell, m - 2)
            on_low = on_low | (cell == 0)
            on_high = on_high | (cell == m - 1)
        values = self.lattice_values.ravel()
        return 0.5 * (np.where(on_low, -1.0, values[low]) + np.where(on_high, 1.0, values[high]))


def fit_grid(oracle, d: int, m: int, budget: int | None = None) -> GridModel:
    """Evaluate the oracle at all interior lattice points i/m, i in {1..m-1}^d.

    A model that is not ``monotone`` triggers a warning (the approximant is
    still well defined); NaN or a value outside [-1, 1] raises ValueError.
    """
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 and d >= 1")
    check_budget((m - 1) ** d, budget, what="lattice points")
    values = lattice_values(oracle, np.arange(1, m) / m, d)
    values.flags.writeable = False  # handed over: the model adopts its lattice
    model = GridModel(d, m, values)
    if not model.monotone:
        warnings.warn(
            "lattice values are not monotone along every coordinate; "
            "the d/m error guarantee does not apply",
            stacklevel=2,
        )
    return model


def eval_grid(model: GridModel, points) -> np.ndarray:
    """The model's outputs at an (n, d) array of points: ``model(points)``."""
    return model(points)


def grid_error_bound(d: int, m: int) -> float:
    """Worst-case L1 error guarantee d/m for monotone inputs."""
    if m < 1 or d < 1:
        raise ValueError("need positive d and m")
    return d / m
