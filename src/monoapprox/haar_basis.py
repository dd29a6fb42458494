"""Dyadic index arithmetic and the sign-flipped tensor Haar basis on [0,1]^d.

One-dimensional basis functions are indexed by a single integer ``alpha >= 0``.
The constant function ``1`` has ``alpha = 0``; every ``alpha >= 1`` decomposes
uniquely as ``alpha = 2**level + shift`` with ``0 <= shift < 2**level`` and the
corresponding wavelet is supported on the dyadic interval

    I(level, shift) = [shift * 2**-level, (shift + 1) * 2**-level),

closed on the right for the last interval of each level so that the intervals
at a fixed level partition the closed unit interval.  The wavelet takes the
value ``+2**(level/2)`` on the upper half of its support and ``-2**(level/2)``
on the lower half.  This is the mirror image of the textbook Haar wavelet;
with this orientation every coefficient of a coordinatewise nondecreasing
function against a single-variable wavelet is nonnegative.

Multivariate basis functions are tensor products indexed by a vector of
one-dimensional indices.  ``active_count`` (the number of coordinates with
``alpha_j > 0``) and a resolution bound ``r`` (all levels strictly below
``r``) parametrize the truncated index sets used by the approximation
algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, NamedTuple

import numpy as np

#: Level tag for the constant index alpha = 0 (no dyadic level exists there).
LEVEL_BOTTOM = None


def split_index(alpha: int) -> tuple[int | None, int]:
    """Decompose ``alpha`` into ``(level, shift)`` with ``alpha = 2**level + shift``.

    ``alpha = 0`` maps to ``(LEVEL_BOTTOM, 0)``.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return LEVEL_BOTTOM, 0
    level = alpha.bit_length() - 1
    return level, alpha - (1 << level)


def cell_of_point(x: float, level: int) -> int:
    """Index of the level-``level`` dyadic cell containing ``x``.

    Computed as ``min(floor(2**level * x), 2**level - 1)`` so that ``x = 1``
    lands in the last (right-closed) cell.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"point {x} outside [0, 1]")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return min(int(x * (1 << level)), (1 << level) - 1)


@dataclass(frozen=True)
class MultiIndex:
    """A d-vector of one-dimensional indices for a tensor basis function."""

    alphas: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) == 0:
            raise ValueError("MultiIndex needs at least one coordinate")
        if any(a < 0 for a in self.alphas):
            raise ValueError("alphas must be nonnegative")

    @classmethod
    def of(cls, *alphas: int) -> "MultiIndex":
        return cls(tuple(alphas))

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def active_count(self) -> int:
        """Number of coordinates on which the basis function is nonconstant."""
        return sum(1 for a in self.alphas if a > 0)

    @property
    def level_sum(self) -> int:
        """Sum of the (nonnegative parts of the) levels across coordinates."""
        return sum(a.bit_length() - 1 for a in self.alphas if a > 0)

    @property
    def support_volume(self) -> float:
        """Volume of the support, ``2**-level_sum``; always in (0, 1]."""
        return 2.0**-self.level_sum


def psi_1d(alpha: int, x: float) -> float:
    """Evaluate the one-dimensional basis function with index ``alpha`` at ``x``.

    ``alpha = 0`` gives the constant 1.  For ``alpha >= 1`` the value is
    ``+2**(level/2)`` on the upper half of the support interval,
    ``-2**(level/2)`` on the lower half, and 0 outside.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"point {x} outside [0, 1]")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return 1.0
    level = alpha.bit_length() - 1
    shift = alpha - (1 << level)
    child = cell_of_point(x, level + 1)
    if child == 2 * shift + 1:
        return 2.0 ** (level / 2)
    if child == 2 * shift:
        return -(2.0 ** (level / 2))
    return 0.0


def psi_d(index: MultiIndex, x) -> float:
    """Evaluate the tensor basis function: the product of psi_1d values.

    Nonzero values are exactly ``+-2**(level_sum/2)``.
    """
    if len(x) != index.d:
        raise ValueError(f"point has {len(x)} coordinates, index has {index.d}")
    out = 1.0
    for alpha, xj in zip(index.alphas, x):
        v = psi_1d(alpha, xj)
        if v == 0.0:
            return 0.0
        out *= v
    return out


def _haar_transform_matrix(r: int) -> np.ndarray:
    scale = 1 << r
    mids = (np.arange(scale) + 0.5) / scale
    matrix = np.empty((scale, scale))
    for alpha in range(scale):
        matrix[alpha] = [psi_1d(alpha, x) for x in mids]
    return matrix / scale


def haar_transform(cell_values: np.ndarray, r: int) -> np.ndarray:
    """Haar coefficients of a function constant on resolution-r cells.

    ``cell_values`` has one axis of length ``2**r`` per coordinate, entry
    ``[c_1, ..., c_t]`` being the value on that cell.  Entry ``[alpha_1, ...,
    alpha_t]`` of the result is the coefficient of the tensor basis function
    with those indices (every level below r).
    """
    matrix = _haar_transform_matrix(r)
    for axis in range(cell_values.ndim):
        cell_values = np.moveaxis(np.tensordot(matrix, cell_values, axes=(1, axis)), 0, axis)
    return cell_values


def _validate_dkr(d: int, k: int, r: int) -> None:
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if not 0 <= k <= d:
        raise ValueError(f"k must be in [0, {d}], got {k}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")


def enumerate_indices(d: int, k: int, r: int) -> Iterator[MultiIndex]:
    """Yield every MultiIndex with all levels below ``r`` and at most ``k``
    active coordinates, each exactly once.

    The total count equals ``index_set_size(d, k, r).exact``.
    """
    _validate_dkr(d, k, r)
    top = 1 << r  # alphas range over 1 .. 2**r - 1 on active coordinates
    for l in range(0, k + 1):
        for active in combinations(range(d), l):
            for alphas_active in product(range(1, top), repeat=l):
                alphas = [0] * d
                for j, a in zip(active, alphas_active):
                    alphas[j] = a
                yield MultiIndex(tuple(alphas))


class IndexSetSize(NamedTuple):
    exact: int
    bound: float


def index_set_size(d: int, k: int, r: int) -> IndexSetSize:
    """Exact size of the truncated index set and its analytic upper bound.

    The exact value is ``sum_{l=0}^{k} C(d, l) * (2**r - 1)**l``, computed in
    arbitrary-precision integers.  The bound is ``2**(r*k) * (e*d/k)**k``
    (evaluated in floating point, ``inf`` past its range; for ``k = 0`` the
    exact count is 1 and the bound is reported as 1.0).
    """
    _validate_dkr(d, k, r)
    block = (1 << r) - 1
    exact = sum(math.comb(d, l) * block**l for l in range(k + 1))
    if k == 0:
        bound = 1.0
    else:
        try:
            bound = math.exp(k * (1.0 + math.log(d / k)) + r * k * math.log(2.0))
        except OverflowError:
            bound = math.inf
    return IndexSetSize(exact, bound)
