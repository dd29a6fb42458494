"""Exact and Monte Carlo L1 distances, exact coefficients, and rate fitting.

Exact integrals are only offered for functions that are constant on every
cell of a dyadic grid; they reduce to finite midpoint sums, accumulated with
``math.fsum`` so the result is independent of enumeration order to within one
rounding.  Everything else is estimated by plain Monte Carlo with a reported
standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .functions import eval_batch, lattice_blocks
from .haar_basis import MultiIndex, haar_transform, psi_1d, split_index


@dataclass(frozen=True)
class ErrorEstimate:
    """An error value with its uncertainty; exact results carry zero std error."""

    value: float
    std_error: float
    n_used: int
    exact: bool = False

    def __post_init__(self) -> None:
        if self.value < 0.0 or self.std_error < 0.0:
            raise ValueError("error and std error must be nonnegative")
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact estimates must have zero std error")


def grid_midpoint_values(f, d: int, resolution: int, budget: int | None = None) -> np.ndarray:
    """Oracle values at all resolution-cell midpoints, shape (2**resolution,)*d."""
    check_budget((1 << resolution) ** d, budget)
    values = np.empty((1 << resolution,) * d)
    for index, points in lattice_blocks((np.arange(1 << resolution) + 0.5) / (1 << resolution), d):
        values[index] = eval_batch(f, points).reshape(values.shape[len(index) :])
    return values


def _spot_check_piecewise(f, g, d: int, resolution: int) -> None:
    # Cheap guard against contract violations: the midpoint rule is exact iff
    # the integrand |f - g| is constant on every cell, so compare it at two
    # random points inside the same cell for 100 random cells.
    rng = np.random.default_rng(1 + d * 1009 + resolution)
    scale = 1 << resolution
    cells = rng.integers(0, scale, size=(100, d))
    a = (cells + rng.random((100, d))) / scale
    b = (cells + rng.random((100, d))) / scale
    gap_a = np.abs(eval_batch(f, a) - eval_batch(g, a))
    gap_b = np.abs(eval_batch(f, b) - eval_batch(g, b))
    if np.any(np.abs(gap_a - gap_b) > 1e-12):
        raise ValueError(
            "|f - g| is not constant on resolution cells; "
            "exact dyadic integration does not apply"
        )


def l1_exact_dyadic(
    f, g, d: int, resolution: int, budget: int | None = None
) -> ErrorEstimate:
    """Exact L1 distance of two oracles that are constant on resolution cells.

    Piecewise-constancy is asserted by the caller and spot-verified on 100
    random within-cell point pairs (the verified property is constancy of the
    integrand |f - g|, which is exactly what midpoint exactness needs).
    """
    _spot_check_piecewise(f, g, d, resolution)
    values = grid_midpoint_values(f, d, resolution, budget)
    diff = np.abs(values - grid_midpoint_values(g, d, resolution, budget)).ravel()
    value = math.fsum(diff) / len(diff)
    return ErrorEstimate(value, 0.0, len(diff), exact=True)


def l1_mc(f, g, d: int, n_probe: int, seed) -> ErrorEstimate:
    """Monte Carlo estimate of the L1 distance with its standard error."""
    if n_probe < 2:
        raise ValueError("need at least two probe points")
    rng = np.random.default_rng(seed)
    points = rng.random((n_probe, d))
    diff = np.abs(eval_batch(f, points) - eval_batch(g, points))
    value = float(diff.mean())
    std_error = float(diff.std(ddof=1) / math.sqrt(n_probe))
    return ErrorEstimate(value, std_error, n_probe)


def exact_coefficient(
    f, index: MultiIndex, d: int, r: int, budget: int | None = None
) -> float:
    """Exact basis coefficient of a resolution-r piecewise-constant oracle.

    Computed as the midpoint sum over all resolution-r cells; exact because
    both the oracle and the basis function are constant on each cell.
    """
    if index.d != d:
        raise ValueError(f"index has d={index.d}, requested d={d}")
    for alpha in index.alphas:
        level, _ = split_index(alpha)
        if level is not None and level >= r:
            raise ValueError(f"index level {level} not below resolution {r}")
    values = grid_midpoint_values(f, d, r, budget)
    mids = (np.arange(1 << r) + 0.5) / (1 << r)
    # The product of the 1-D factors, axis by axis (psi_1d(0, x) = 1.0 is exact).
    basis = np.array(1.0)
    for alpha in index.alphas:
        basis = basis[..., None] * np.array([psi_1d(alpha, x) for x in mids])
    return math.fsum((basis * values).ravel()) / values.size


def coefficient_tensor(f, d: int, r: int, budget: int | None = None) -> np.ndarray:
    """All exact coefficients with levels below r, as a (2**r,)*d tensor.

    ``tensor[alpha_1, ..., alpha_d]`` is the coefficient of the tensor basis
    function with those one-dimensional indices.  Requires ``f`` constant on
    resolution-r cells.
    """
    return haar_transform(grid_midpoint_values(f, d, r, budget), r)


def tail_mass(f, d: int, k: int, r: int, budget: int | None = None) -> float:
    """Sum of squared coefficients with more than k active coordinates.

    Covers every index with all levels below r; for any monotone f this mass
    is at most ``sqrt(d*r) / (k + 1)``.
    """
    if not 0 <= k <= d:
        raise ValueError(f"k must be in [0, {d}], got {k}")
    tensor = coefficient_tensor(f, d, r, budget)
    active = np.zeros(tensor.shape, dtype=int)
    for axis, grid in enumerate(np.indices(tensor.shape)):
        active += grid > 0
    return float(np.sum(tensor[active > k] ** 2))


def bakhvalov_step_error(d: int, m: int, sampled_cells) -> float:
    """Average L1 error of the best algorithm that sees only the given cells.

    For the perturbed step family with fair perturbation bits, the optimal
    output reproduces revealed cells exactly and takes the midpoint of the two
    candidate values on unrevealed cells, so the average error is
    ``(#unrevealed / m**d) / (d*(m-1) + 1)``.
    """
    if d < 1 or m < 1:
        raise ValueError("need positive d and m")
    cells = set(map(tuple, sampled_cells))
    for cell in cells:
        if len(cell) != d or any(not 0 <= c < m for c in cell):
            raise ValueError(f"cell {cell} outside the {m}-grid")
    total = m**d
    return (1.0 - len(cells) / total) / (d * (m - 1) + 1)


def fit_rate(points) -> float:
    """Least-squares slope of log error against log n."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least three points to fit a rate")
    ns = np.array([p[0] for p in pts], dtype=float)
    errors = np.array([p[1] for p in pts], dtype=float)
    if np.any(ns <= 0) or np.any(errors <= 0):
        raise ValueError("rate fitting needs positive n and positive errors")
    return float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
