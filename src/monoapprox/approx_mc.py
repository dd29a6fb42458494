"""Randomized wavelet approximation of monotone functions from point samples.

Three estimators share one batch of i.i.d. uniform samples and read their
output off the same linear reconstruction ``h``: the truncated tensor-Haar
expansion with every coefficient replaced by its sample mean.

* ``linear``: return ``h`` itself.
* ``sign``: return ``sgn(h)``, the natural output for sign-valued targets.
* ``generalized``: for targets with values in [-1, 1], average the sign
  outputs of every threshold cut of the data.  Sorting the samples by value
  collapses the average to a finite sum: with sorted values ``y_1 <= ... <=
  y_n`` and sentinels ``y_0 = -1``, ``y_{n+1} = +1``, the output at ``x`` is

      1/2 * sum_{i=0}^{n} (y_{i+1} - y_i) * sgn(g_i(x)),

  where ``g_i`` is the linear reconstruction computed from the first ``i``
  values forced to -1 and the rest to +1.

The key computational fact: the reconstruction of a single sample depends on
the query point only through the count ``b`` of coordinates whose first ``r``
binary digits match the sample's.  The integer table ``chi(b)`` tabulates
``n * [reconstruction of one unit sample](x)`` for ``b = 0..d``, so
``h(x) = (1/n) * sum_i y_i * chi(b_i(x))`` and a fitted model of any mode is
just its samples (with digit keys) and ``chi``; no coefficient is stored.
Each ``g_i(x)`` follows from integer prefix sums in O(n) after an O(n d)
digit comparison.  All chi arithmetic is exact (Python integers, with a
64-bit fast path when magnitudes provably permit).  ``estimate_coefficients``
is the explicit coefficient route the identity is checked against.

Outputs are approximations of the target but carry no monotonicity guarantee
of their own; only boundedness (outputs in [-1, 1] for the generalized
estimator) is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable

import numpy as np

from .budget import check_budget
from .functions import eval_batch, sign_plus
from .haar_basis import MultiIndex, cell_of_point, enumerate_indices, index_set_size

MODES = ("linear", "sign", "generalized")


@dataclass(frozen=True)
class SampleSet:
    """Evaluation points in [0,1]^d with values in [-1,1].

    Once a resolution ``r`` is fixed, ``digit_keys[i][j]`` caches the index of
    the resolution-``r`` dyadic cell containing ``points[i][j]``.  Arrays are
    frozen after construction.
    """

    points: np.ndarray
    values: np.ndarray
    resolution: int | None = None
    digit_keys: np.ndarray | None = None
    sorted_by_value: bool = False

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have equal length")
        if points.size and not ((points >= 0.0) & (points <= 1.0)).all():  # NaN fails too
            raise ValueError("sample points must lie in [0, 1]^d")
        if values.size and (np.abs(values).max() > 1.0 or not np.isfinite(values).all()):
            raise ValueError("sample values must lie in [-1, 1]")
        if self.sorted_by_value and values.size and np.any(np.diff(values) < 0):
            raise ValueError("sorted flag set but values are not nondecreasing")
        keys = self.digit_keys
        if keys is not None:
            keys = np.asarray(keys, dtype=np.int64)
            if keys.shape != points.shape:
                raise ValueError("digit_keys shape must match points shape")
            keys.flags.writeable = False
        points.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "digit_keys", keys)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def with_resolution(self, r: int) -> "SampleSet":
        """Attach resolution-r digit keys (recomputing if r differs)."""
        if r < 1:
            raise ValueError("resolution must be positive")
        if self.resolution == r and self.digit_keys is not None:
            return self
        scale = 1 << r
        keys = np.minimum((self.points * scale).astype(np.int64), scale - 1)
        return SampleSet(self.points, self.values, r, keys, self.sorted_by_value)

    def sorted(self) -> "SampleSet":
        """Stable sort of the (point, value) pairs by value."""
        if self.sorted_by_value:
            return self
        order = np.argsort(self.values, kind="stable")
        keys = self.digit_keys[order] if self.digit_keys is not None else None
        return SampleSet(self.points[order], self.values[order], self.resolution, keys, True)


def draw_samples(d: int, n: int, oracle, seed) -> SampleSet:
    """Draw n i.i.d. uniform points and record oracle values; deterministic in seed.

    Raises ValueError if the oracle returns a value outside [-1, 1].
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    values = eval_batch(oracle, points)
    if np.abs(values).max() > 1.0 or not np.isfinite(values).all():
        raise ValueError("oracle returned a value outside [-1, 1]")
    return SampleSet(points, values)


def point_keys(x, r: int) -> np.ndarray:
    """Resolution-r digit keys of a single point."""
    return np.asarray([cell_of_point(float(xj), r) for xj in x], dtype=np.int64)


def match_count(x, sample_keys, r: int) -> int:
    """Number of coordinates whose resolution-r cells agree between x and a sample."""
    keys = np.asarray(sample_keys)
    if len(keys) != len(x):
        raise ValueError("dimension mismatch between point and digit keys")
    return int(np.count_nonzero(point_keys(x, r) == keys))


def chi_value(b: int, d: int, k: int, r: int) -> int:
    """Contribution table entry for a digit-match count ``b``.

    Equals ``sum_{l=0}^{min(b,k)} C(b,l) (2**r - 1)**l *
    sum_{m=0}^{min(d-b,k-l)} C(d-b,m) (-1)**m``, computed in exact integers.
    The inner alternating sum collapses to ``(-1)**M * C(N-1, M)`` with
    ``N = d-b`` and ``M = min(N, k-l)``, which avoids cancellation entirely.
    """
    if not 0 <= b <= d:
        raise ValueError(f"b must be in [0, {d}], got {b}")
    if not 0 <= k <= d or r < 1:
        raise ValueError("need 0 <= k <= d and r >= 1")
    block = (1 << r) - 1
    total = 0
    for l in range(min(b, k) + 1):
        rest = d - b
        if rest == 0:
            inner = 1
        else:
            m = min(rest, k - l)
            inner = (-1) ** m * math.comb(rest - 1, m)
        total += math.comb(b, l) * block**l * inner
    return total


def chi_table(d: int, k: int, r: int) -> tuple[int, ...]:
    """chi(b) for b = 0..d; depends only on the algorithm parameters."""
    return tuple(chi_value(b, d, k, r) for b in range(d + 1))


@dataclass(frozen=True)
class CoefficientTable:
    """Estimated (or exactly computed) coefficients over a truncated index set.

    Keys are exactly the indices with at most ``k`` active coordinates and all
    levels below ``r``; absent mass is represented by explicit zeros.
    """

    d: int
    k: int
    r: int
    values: dict[MultiIndex, float] = field(repr=False)

    def __post_init__(self) -> None:
        expected = index_set_size(self.d, self.k, self.r).exact
        if len(self.values) != expected:
            raise ValueError(
                f"table has {len(self.values)} entries, index set has {expected}"
            )
        if MultiIndex((0,) * self.d) not in self.values:
            raise ValueError("table is missing the constant index")

    def __getitem__(self, index: MultiIndex) -> float:
        return self.values[index]

    def items(self):
        return self.values.items()


def _support_terms(x, k: int, r: int) -> Iterable[tuple[MultiIndex, float]]:
    """All (index, basis value) pairs with nonzero basis value at ``x``.

    Per coordinate and level there is exactly one cell containing ``x_j``, so
    the support enumeration visits ``sum_{l<=k} C(d,l) r**l`` indices instead
    of the full truncated set.
    """
    d = len(x)
    cells = [[cell_of_point(float(xj), l) for l in range(r + 1)] for xj in x]
    for l in range(k + 1):
        for active in combinations(range(d), l):
            for levels in product(range(r), repeat=l):
                alphas = [0] * d
                level_sum = 0
                negative = False
                for j, lam in zip(active, levels):
                    alphas[j] = (1 << lam) + cells[j][lam]
                    level_sum += lam
                    if not cells[j][lam + 1] & 1:
                        negative = not negative
                value = 2.0 ** (level_sum / 2)
                yield MultiIndex(tuple(alphas)), -value if negative else value


def estimate_coefficients(
    samples: SampleSet, d: int, k: int, r: int, budget: int | None = None
) -> CoefficientTable:
    """Sample-mean estimates of every truncated-basis coefficient.

    Each entry is the empirical mean of ``psi_index(X_i) * y_i``.  The
    accumulation is support-sparse: a sample only touches the indices whose
    support contains it.
    """
    if samples.n == 0:
        raise ValueError("need at least one sample")
    if samples.d != d:
        raise ValueError(f"samples have d={samples.d}, requested d={d}")
    check_budget(index_set_size(d, k, r).exact, budget, what="coefficient table entries")
    table = {index: 0.0 for index in enumerate_indices(d, k, r)}
    for x, y in zip(samples.points, samples.values):
        if y == 0.0:
            continue
        for index, value in _support_terms(x, k, r):
            table[index] += value * y
    n = samples.n
    for index in table:
        table[index] /= n
    return CoefficientTable(d, k, r, table)


@dataclass(frozen=True)
class WaveletModel:
    """A fitted approximant: digit-keyed samples plus the chi table for ``k``.

    ``d``, ``r`` and ``n`` are read off the samples, which must carry digit
    keys; the resolution of those keys is the model's ``r``.  The generalized
    mode additionally requires the samples sorted by value.  ``chi`` is built
    here and cannot be passed in.  Models are immutable and thread-safe.
    """

    k: int
    mode: str
    samples: SampleSet
    chi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.samples.digit_keys is None:
            raise ValueError("samples must carry digit keys")
        if self.mode == "generalized" and not self.samples.sorted_by_value:
            raise RuntimeError("generalized mode requires value-sorted samples")
        table = chi_table(self.d, self.k, self.r)
        # Every integer a query forms is at most 3 n max|chi| in size: each
        # partial sum of a sign numerator sum_i y_i chi(b_i) (|y_i| = 1) and
        # each prefix sum T_i of _flip_numerators by n max|chi|, 2 T_i by
        # 2 n max|chi|, and S - 2 T_i by 3 n max|chi|.  Below 2**63 no int64
        # operation can wrap; otherwise numpy carries exact Python integers.
        exact_in_int64 = 3 * self.n * max(abs(c) for c in table) < 2**63
        chi = np.asarray(table, dtype=np.int64 if exact_in_int64 else object)
        chi.flags.writeable = False
        object.__setattr__(self, "chi", chi)

    @property
    def d(self) -> int:
        return self.samples.d

    @property
    def r(self) -> int:
        return self.samples.resolution

    @property
    def n(self) -> int:
        return self.samples.n


def fit(oracle, d: int, k: int, r: int, n: int, seed, mode: str) -> WaveletModel:
    """Draw one batch of samples and build the requested model.

    Every mode attaches resolution-r digit keys; the generalized mode also
    sorts the samples by value (O(n log n)).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    samples = draw_samples(d, n, oracle, seed).with_resolution(r)
    if mode == "generalized":
        samples = samples.sorted()
    return WaveletModel(k, mode, samples)


def _chi_at(model: WaveletModel, x) -> np.ndarray:
    """chi(b_i(x)) for every stored sample, in the model's chi dtype."""
    keys = point_keys(x, model.r)
    if len(keys) != model.d:
        raise ValueError(f"point has {len(keys)} coordinates, model has d={model.d}")
    return model.chi[(model.samples.digit_keys == keys).sum(axis=1)]


def _numerator(model: WaveletModel, x) -> int | float:
    """``n * h(x)``: an exact integer when every sample value is +-1."""
    chi_b = _chi_at(model, x)
    values = model.samples.values
    if np.all(np.abs(values) == 1.0):
        return int(np.dot(values.astype(np.int64), chi_b))
    return float(np.dot(values, chi_b))


def reconstruction_value(model: WaveletModel, x) -> float:
    """Value of the linear reconstruction ``h(x) = (1/n) sum_i y_i chi(b_i(x))``."""
    return _numerator(model, x) / model.n


def eval_linear(model: WaveletModel, x) -> float:
    """Linear-mode output: the reconstruction itself."""
    if model.mode != "linear":
        raise ValueError(f"eval_linear requires a linear-mode model, got {model.mode!r}")
    return reconstruction_value(model, x)


def eval_sign(model: WaveletModel, x) -> float:
    """Sign of the linear reconstruction, with sgn(0) = +1.

    For sign-valued samples the sign is decided in exact integer arithmetic.
    """
    return sign_plus(_numerator(model, x))


def _flip_numerators(model: WaveletModel, x) -> np.ndarray:
    """Exact integer numerators of n * g_i(x) for i = 0..n.

    ``g_i`` is the reconstruction with the first ``i`` (value-sorted) samples
    forced to -1 and the remaining ``n - i`` forced to +1, so
    ``n * g_i = S - 2 * T_i`` with ``T_i`` the prefix sums of chi(b).
    """
    chi_b = _chi_at(model, x)
    prefix = np.concatenate([np.zeros(1, dtype=chi_b.dtype), np.cumsum(chi_b)])
    return prefix[-1] - 2 * prefix


def eval_generalized(model: WaveletModel, x) -> float:
    """Generalized-mode output; always in [-1, 1].

    Telescopes the threshold cuts of the sorted values: with sentinels
    ``y_0 = -1`` and ``y_{n+1} = +1`` the output is
    ``1/2 * sum_i (y_{i+1} - y_i) * sgn(g_i(x))``.  An empty model returns
    +1 (the sign of the empty reconstruction, with sgn(0) = +1).
    """
    if model.mode != "generalized":
        raise ValueError(f"eval_generalized requires a generalized-mode model, got {model.mode!r}")
    numerators = _flip_numerators(model, x)
    signs = np.where(numerators >= 0, 1.0, -1.0).astype(float)
    y_ext = np.concatenate([[-1.0], model.samples.values, [1.0]])
    return 0.5 * float(np.dot(np.diff(y_ext), signs))
