"""Deterministic grid approximation of monotone functions.

The cube is split into ``m**d`` subcubes; the oracle is evaluated at the
``(m-1)**d`` interior lattice points ``i/m``.  On each subcube the output is
the midpoint of what is known about the function at the subcube's lower and
upper corners, where corners on the domain boundary are assumed to take the
extreme values (-1 below, +1 above) without spending evaluations.  For any
monotone input the L1 error is at most ``d/m``: subcubes group into at most
``d * m**(d-1)`` corner-touching diagonals and monotonicity confines the
error along each diagonal to a single subcube volume.

The oracle sees the lattice in blocks (``functions.lattice_blocks``), so a fit
holds the values and one block of points: a 9.4 MB peak at d = 4, m = 32
(923521 points), against 75-118 MB for one array of all the points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .budget import check_budget
from .functions import as_points, eval_batch, lattice_blocks, lattice_is_monotone


@dataclass(frozen=True)
class GridModel:
    """Fitted deterministic approximant: interior lattice values on the m-grid."""

    d: int
    m: int
    lattice_values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.m < 2 or self.d < 1:
            raise ValueError("need m >= 2 and d >= 1")
        values = np.asarray(self.lattice_values, dtype=float)
        if values.shape != (self.m - 1,) * self.d:
            raise ValueError(
                f"lattice must have shape {(self.m - 1,) * self.d}, got {values.shape}"
            )
        if values.size and not (values.min() >= -1.0 and values.max() <= 1.0):  # NaN fails too
            raise ValueError("lattice values must lie in [-1, 1]")
        values = np.ascontiguousarray(values)
        values.flags.writeable = False
        object.__setattr__(self, "lattice_values", values)


def fit_grid(oracle, d: int, m: int, budget: int | None = None) -> GridModel:
    """Evaluate the oracle at all interior lattice points i/m, i in {1..m-1}^d.

    A non-monotone value pattern triggers a warning (the approximant is still
    well defined) rather than a rejection.
    """
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 and d >= 1")
    check_budget((m - 1) ** d, budget, what="lattice points")
    values = np.empty((m - 1,) * d)
    for index, points in lattice_blocks(np.arange(1, m) / m, d):
        values[index] = eval_batch(oracle, points).reshape(values.shape[len(index) :])
    if not lattice_is_monotone(values):
        warnings.warn(
            "lattice values are not monotone along every coordinate; "
            "the d/m error guarantee does not apply",
            stacklevel=2,
        )
    return GridModel(d, m, values)


def eval_grid(model: GridModel, points) -> np.ndarray:
    """Midpoint of the corner knowledge for the subcube containing each point.

    Lower-corner knowledge is the stored value, or -1 when any coordinate of
    the corner lies on the lower boundary; upper-corner knowledge is the
    stored value, or +1 when any coordinate lies on the upper boundary.
    ``points`` is an (n, d) array; the result has shape (n,).
    """
    m = model.m
    # Row-major flat indices of the lower and upper corners, column by column.
    low = high = 0
    on_low = on_high = False
    for column in as_points(points, model.d).T:
        cell = np.minimum((column * m).astype(np.intp), m - 1)
        low = low * (m - 1) + np.maximum(cell - 1, 0)
        high = high * (m - 1) + np.minimum(cell, m - 2)
        on_low = on_low | (cell == 0)
        on_high = on_high | (cell == m - 1)
    values = model.lattice_values.ravel()
    return 0.5 * (np.where(on_low, -1.0, values[low]) + np.where(on_high, 1.0, values[high]))


def grid_error_bound(d: int, m: int) -> float:
    """Worst-case L1 error guarantee d/m for monotone inputs."""
    if m < 1 or d < 1:
        raise ValueError("need positive d and m")
    return d / m
