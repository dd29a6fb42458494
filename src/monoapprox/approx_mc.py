"""Randomized wavelet approximation of monotone functions from point samples.

Three estimators share one batch of i.i.d. uniform samples and read their
output off the same linear reconstruction ``h``: the truncated tensor-Haar
expansion with every coefficient replaced by its sample mean.

* ``linear``: return ``h`` itself.
* ``sign``: return ``sgn(h)``, the natural output for sign-valued targets.
* ``generalized``: for targets with values in [-1, 1], average the sign
  outputs of every threshold cut of the data.  In value order ``y_1 <= ...
  <= y_n``, with sentinels ``y_0 = -1`` and ``y_{n+1} = +1``, the average is
  the finite sum

      1/2 * sum_{i=0}^{n} (y_{i+1} - y_i) * s_i,    s_i = sgn(g_i(x)),

  where ``g_i`` is the linear reconstruction computed from the ``i``
  smallest values forced to -1 and the rest to +1.  Summed by parts it is
  ``(s_0 + s_n)/2 + sum_f y_f s_{f-1}`` over the flips ``f`` (``s_f !=
  s_{f-1}``), which ``math.fsum`` rounds correctly.  The output is thus the
  exact sum rounded once, whatever the order of tied values, and the model
  keeps its samples in draw order with one value permutation (none at
  ``k = d``, where the sum is the upper median of x's cell; see below).

The key computational fact: the reconstruction of a single sample depends on
the query point only through the count ``b`` of coordinates whose first ``r``
binary digits match the sample's.  Per coordinate the kernel is ``2**r
[same r-cell] - 1``, so over coordinate subsets ``T`` with ``|T| <= k``

    n h(x) = sum_T c_T * S_T(x),

with ``c_T = 2**(r|T|) (-1)**(k-|T|) C(d-|T|-1, k-|T|)`` for ``|T| < d``,
``c_T = 2**(r d)`` for ``|T| = d`` (at ``k = d`` only the full cell is left),
and ``S_T(x)`` the sum of ``y_i`` over the samples sharing x's cell in the
coordinates of ``T``.  A sample matching x in ``b`` coordinates shares its
cell in exactly the subsets of those, so ``h(x) = (1/n) sum_i y_i
chi(b_i(x))`` with the integer table ``chi(b) = sum_{t <= min(b, k)} C(b, t)
c_t``; no coefficient is stored.  Linear and sign models store the nonzero
``c_T S_T`` in one sorted table (``ProjectionTables``) of compact codes, so
``m`` queries cost one ``searchsorted`` over their ``m #T`` keys, taken in
blocks of bounded size.  Where the tables may not be built
(``ProjectionTables.build``), and for generalized models, ``h`` takes the
chi route instead, an O(n d) digit comparison per query row; only there does
a model hold ``chi``.

The generalized mode needs no subset table: it reads runs, the samples
grouped by a cell key (``WaveletModel``).  At ``k < d`` a sample that
shares x's cell in ``b >= 1`` coordinates lies in exactly ``b`` of x's ``d``
per-coordinate cells, and every other sample adds ``chi(0)``.  So models
keep, per coordinate, the value ranks of the samples grouped by digit
(``n d`` entries in all), and ``n g_i(x)`` is linear in ``i`` between the
ranks found in x's ``d`` groups: its flips follow from integer prefix sums
over those breakpoints and one exact floor division per segment.  At ``k =
d`` only the full cell has ``c_T != 0``, so ``n g_i(x) = 2**(r d) (W - 2
cnt_i)`` flips once, where ``cnt_i`` of the cell's ``W`` samples are among
the ``i`` smallest values: the output is the cell's upper median, its
``floor(W/2) + 1``-th smallest value (+1 when empty), read off the samples
grouped by full-cell code (matched digit by digit past 63 bits), and no
value is sorted.  All integer arithmetic is exact (Python integers, with a
64-bit fast path when magnitudes provably permit).
``estimate_coefficients``, the Haar transform of the projected sample
histograms, is the explicit coefficient route the identity is checked
against.

Every evaluation function takes the model and an ``(m, d)`` array of query
points in [0, 1]^d and returns the ``(m,)`` array of outputs; a model is an
oracle too, and ``model(points)`` runs the evaluation function of its mode.

Outputs are approximations of the target but carry no monotonicity guarantee
of their own; only boundedness (outputs in [-1, 1] for the generalized
estimator) is structural.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .budget import check_budget
from .functions import LATTICE_BLOCK, as_points, eval_batch
from .haar_basis import MultiIndex, enumerate_indices, haar_transform, index_set_size

MODES = ("linear", "sign", "generalized")

# Projection tables may hold max(n d, TABLE_ENTRY_FLOOR) entries: as many as
# the n d digit keys, and never fewer than 2**22.  A build peaks at about 32
# bytes per entry (key, weight and the concatenated copy; 30.6-33 B measured
# at 0.23M-3.8M entries), so the floor admits about 130 MB.  The limit bounds
# memory and is no speed rule: within it tables usually win, but not always.
# With many subsets and a small n a query pays one lookup per subset and the
# chi route only n digit rows.  On 2 CPUs (numpy 2.4), for 2000 sign queries,
# build included: d = 8, k = 3, r = 4, n = 20000 took 0.06 s with tables
# against 2.03 s on the chi route, but d = 12, k = 5, r = 3, n = 2000 (1586
# subsets) took 0.23 s to build and 1.41 s to query, against 0.21 s in all
# on the chi route.
TABLE_ENTRY_FLOOR = 1 << 22

# Queries are looked up in blocks of about LOOKUP_BLOCK (query, subset) pairs.
# A pair costs about 41 bytes at once (its key, position, hit mask, masked
# position and gathered weight), so a block peaks near 2.7 MB however many
# queries a batch holds.  200 queries of one table (mc-sign-d4) and 500 of
# 11 tables (mc-linear-d4) are each one block.
LOOKUP_BLOCK = 1 << 16

# The finest resolution whose digit keys fit in int64 (``_cell_keys``).
MAX_RESOLUTION = 62

@dataclass(frozen=True)
class SampleSet:
    """Evaluation points in [0,1]^d with values in [-1,1].

    Once a resolution ``r`` is fixed, ``digit_keys[i][j]`` caches the index of
    the resolution-``r`` dyadic cell containing ``points[i][j]``, in ``[0,
    2**r)``, uint8 for r <= 8 and uint16 for r <= 16.  The keys are always
    computed from the points, never passed in.  Points and values are checked
    ``LATTICE_BLOCK`` rows at a time.  Arrays are frozen after construction.
    """

    points: np.ndarray
    values: np.ndarray
    resolution: int | None = None
    digit_keys: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have equal length")
        blocks = [slice(lo, lo + LATTICE_BLOCK) for lo in range(0, len(values), LATTICE_BLOCK)]
        if not all(((points[b] >= 0.0) & (points[b] <= 1.0)).all() for b in blocks):  # NaN fails too
            raise ValueError("sample points must lie in [0, 1]^d")
        if not all((np.abs(values[b]) <= 1.0).all() for b in blocks):  # NaN and +-inf too
            raise ValueError("sample values must lie in [-1, 1]")
        points.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if self.resolution is not None:
            self._keyed(self.resolution)

    def _keyed(self, r: int) -> "SampleSet":
        if r < 1:
            raise ValueError("resolution must be positive")
        keys = _cell_keys(self.points, r)
        keys.flags.writeable = False
        object.__setattr__(self, "resolution", r)
        object.__setattr__(self, "digit_keys", keys)
        return self

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def with_resolution(self, r: int) -> "SampleSet":
        """The same samples with resolution-r digit keys (recomputed if r differs, not revalidated)."""
        return self if self.resolution == r else copy.copy(self)._keyed(r)

    def sorted(self) -> "SampleSet":
        """The (point, value) pairs, stably sorted by value."""
        order = np.argsort(self.values, kind="stable")
        return SampleSet(self.points[order], self.values[order], self.resolution)


def draw_samples(d: int, n: int, oracle, seed) -> SampleSet:
    """Draw n i.i.d. uniform points and record oracle values; deterministic in seed.

    Points and values are filled ``LATTICE_BLOCK`` rows at a time, one oracle
    call per block, with the points of one ``rng.random((n, d))``.  Raises
    ValueError if the oracle returns a value outside [-1, 1].
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    rng = np.random.default_rng(seed)
    points = np.empty((n, d))
    values = np.empty(n)
    for lo in range(0, n, LATTICE_BLOCK):
        block = rng.random(out=points[lo : lo + LATTICE_BLOCK])
        values[lo : lo + LATTICE_BLOCK] = eval_batch(oracle, block)
    return SampleSet(points, values)


def _cell_keys(points: np.ndarray, r: int) -> np.ndarray:
    """Resolution-r cell index ``min(floor(x * 2**r), 2**r - 1)`` of every coordinate.

    The minimum puts ``x = 1`` in the last (right-closed) cell, as
    ``haar_basis.cell_of_point`` does.  Keys are clamped before the cast, so
    ``x = 1`` cannot wrap to 0 in uint8/uint16, and past ``r = 53``, where
    ``2**r - 1`` is no float, again after it, exactly.  Past ``r =
    MAX_RESOLUTION`` the product ``2**r`` at ``x = 1`` does not fit in
    int64.  Rows are keyed ``LATTICE_BLOCK`` at a time.
    """
    if r > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {r}")
    scale = 1 << r
    keys = np.empty(np.shape(points), dtype=np.uint8 if r <= 8 else np.uint16 if r <= 16 else np.int64)
    for lo in range(0, len(keys), LATTICE_BLOCK):
        np.minimum(points[lo : lo + LATTICE_BLOCK] * scale, scale - 1, out=keys[lo : lo + LATTICE_BLOCK],
                   casting="unsafe")
    if r > 53:
        np.minimum(keys, scale - 1, out=keys)
    return keys


def _subset_codes(digit_keys: np.ndarray, subset, r: int) -> np.ndarray:
    """Compact int64 cell codes: digit ``subset[s]`` at bit ``r s``, or-ed in column by column, block by block."""
    codes = np.zeros(len(digit_keys), dtype=np.int64)
    for lo in range(0, len(codes), LATTICE_BLOCK):
        block = codes[lo : lo + LATTICE_BLOCK]
        for s, j in enumerate(subset):
            block |= np.left_shift(digit_keys[lo : lo + LATTICE_BLOCK, j], r * s, dtype=np.int64)
    return codes


def estimate_coefficients(
    samples: SampleSet, d: int, k: int, r: int, budget: int | None = None
) -> dict[MultiIndex, float]:
    """Sample-mean estimates of every truncated-basis coefficient.

    Each entry is the empirical mean of ``psi_index(X_i) * y_i``.  The basis
    functions active on a subset ``T`` of coordinates are constant on the
    T-projected resolution-r cells, so their estimates are the Haar transform
    of one histogram per ``T``: the sum of ``y_i`` over each projected cell.
    """
    if samples.n == 0:
        raise ValueError("need at least one sample")
    if samples.d != d:
        raise ValueError(f"samples have d={samples.d}, requested d={d}")
    check_budget(index_set_size(d, k, r).exact, budget, what="coefficient table entries")
    scale = 1 << r
    keys = _cell_keys(samples.points, r)
    by_subset: dict[tuple[int, ...], np.ndarray] = {}
    table = {}
    for index in enumerate_indices(d, k, r):
        active = tuple(j for j, alpha in enumerate(index.alphas) if alpha)
        if active not in by_subset:
            t = len(active)
            # Row-major code of each sample's T-projected cell.
            codes = _subset_codes(keys, active[::-1], r)
            sums = np.bincount(codes, weights=samples.values, minlength=scale**t)
            # haar_transform averages over the 2**(r t) cells; the estimate
            # averages over the n samples instead.
            by_subset[active] = haar_transform(sums.reshape((scale,) * t), r) * float(scale**t) / samples.n
        table[index] = float(by_subset[active][tuple(alpha for alpha in index.alphas if alpha)])
    return table


def subset_coefficient(t: int, d: int, k: int, r: int) -> int:
    """Weight ``c_T`` of a coordinate subset of size ``t`` (see the module docstring)."""
    if not 0 <= t <= k <= d or r < 1:
        raise ValueError("need 0 <= t <= k <= d and r >= 1")
    if t == d:
        return 1 << (r * d)
    return (1 << (r * t)) * (-1) ** (k - t) * math.comb(d - t - 1, k - t)


def chi_table(d: int, k: int, r: int) -> tuple[int, ...]:
    """chi(b) = sum_{t <= min(b, k)} C(b, t) c_t for b = 0..d, over the subset weights ``subset_coefficient``."""
    if k < 0:
        raise ValueError("need 0 <= k <= d and r >= 1")
    weights = [subset_coefficient(t, d, k, r) for t in range(k + 1)]
    return tuple(sum(math.comb(b, t) * weights[t] for t in range(min(b, k) + 1)) for b in range(d + 1))


def _cell_route(subset: tuple[int, ...], r: int, n: int) -> str:
    """How ``_cell_sums`` indexes the cells of ``subset`` for ``n`` samples: dense or sorted.

    Dense where the ``2**(r |T|)`` cells number at most n: one np.bincount
    over the codes (2-7 ms at mc-gen-d2's 4096 cells and 726k samples)
    instead of grouping them (``_grouped``: 24 ms for the sorted pairs, 40-50
    ms for the argsort past their 63 bits).
    """
    return "dense" if 1 << (r * len(subset)) <= n else "sorted"


def _grouped(codes: np.ndarray, width: int):
    """The int64 ``codes`` (each below ``2**width``) sorted, and the sample index at each position.

    One ``np.sort`` of ``code << b | i`` (``i < 2**b``, ``b = bitlen(n -
    1)``) where ``width + b <= 63``, which leaves each code's indices
    ascending; one ``np.argsort`` past that, in any order within a code.
    The pairs sort as uint32 where ``width + b <= 32`` (3.2 ms, not 6.8, at
    mc-gen-d2's 12 + 20 bits).  The index is int32 below ``n = 2**31``.
    ``codes`` is consumed.
    """
    n = len(codes)
    index = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    bits = (n - 1).bit_length()
    if width + bits > 63:
        order = np.argsort(codes)
        index[:] = order
        return codes[order], index
    pairs = np.empty(n, dtype=np.uint32) if width + bits <= 32 else codes
    np.left_shift(codes, bits, out=pairs, casting="unsafe")
    # In the pairs' own dtype: uint32 | int32 would compute in int64, 3x slower.
    np.bitwise_or(pairs, index, out=pairs, dtype=pairs.dtype, casting="unsafe")
    pairs.sort()
    np.bitwise_and(pairs, (1 << bits) - 1, out=index, casting="unsafe")
    np.right_shift(pairs, bits, out=codes, casting="unsafe")
    return codes, index


def _cell_sums(digit_keys: np.ndarray, subset: tuple[int, ...], r: int, values: np.ndarray):
    """Occupied T-cells, as sorted compact codes (``_subset_codes``), and the sum of ``values`` over each.

    Few cells are binned by one bincount of the codes; else the codes are
    grouped (``_grouped``) and each cell's rank goes back to its samples
    through intp index blocks (numpy scatters through an int32 index more
    slowly than it converts it).  Both add in sample order, so the float64
    sums carry the same bits (for +-1 values, integers of size at most n <
    2**53: exact).  The n-sized temporaries are freed on return.
    """
    codes = _subset_codes(digit_keys, subset, r)
    if _cell_route(subset, r, len(values)) == "dense":
        span = 1 << (r * len(subset))
        cells = np.flatnonzero(np.bincount(codes, minlength=span))
        return cells, np.bincount(codes, weights=values, minlength=span)[cells]
    codes, index = _grouped(codes, r * len(subset))
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    cells = codes[first]
    rank = -1
    for lo in range(0, len(codes), LATTICE_BLOCK):
        ranks = np.cumsum(first[lo : lo + LATTICE_BLOCK]) + rank
        codes[index[lo : lo + LATTICE_BLOCK].astype(np.intp)] = ranks
        rank = ranks[-1]
    return cells, np.bincount(codes, weights=values, minlength=len(cells))


@dataclass(frozen=True)
class ProjectionTables:
    """``sum_i y_i chi(b_i(x))`` as ``sum_T c_T S_T(x)``, one sorted lookup per batch.

    ``S_T(x)`` is the sum of ``y_i`` over the samples that share x's
    resolution-r cell in every coordinate of ``T``.  Row ``t`` of ``pack``
    maps digit keys to the compact code (``_subset_codes``) of the ``t``-th
    subset with ``c_T != 0`` and ``offsets[t] = t << (r k)`` tags it, so
    each row of ``digit_keys @ pack.T + offsets`` holds
    one query's keys into ``keys``: every occupied (subset, cell) pair,
    sorted, led by a sentinel -1 of weight 0.  ``weights`` holds ``c_T S_T``
    for each.  Linear and sign models read them; generalized ones never do.
    """

    pack: np.ndarray
    offsets: np.ndarray
    keys: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, samples: SampleSet, k: int, exact: bool) -> "ProjectionTables | None":
        """Tables of keyed samples, or None where they cannot or may not be built.

        None when ``r d + bitlen(#T - 1) > 63`` or when the tables could hold
        more than ``max(n d, TABLE_ENTRY_FLOOR)`` entries: table ``T`` holds at
        most ``min(n, 2**(r |T|))``, and at least its row of ``pack``.  Both
        checks count subsets by size (``c_T`` depends only on ``|T|``), so no
        subset is listed unless the tables are built.  ``exact`` (every
        ``|y| = 1``) makes the weights integers.

        Keys need only ``r k + bitlen(#T - 1)`` bits; the rule keeps ``r d``, as
        a wider one cuts both ways.  2000 sign queries, build included, took
        0.04 s with tables and 1.39 s on the chi route at d = 12, k = 2, r = 6,
        n = 20000, but 0.75 s and 0.19 s at d = 20, k = 3, r = 4, n = 2000.
        """
        d, r, n = samples.d, samples.resolution, samples.n
        sizes = [(t, c) for t in range(k + 1) if (c := subset_coefficient(t, d, k, r))]
        if r * d + (sum(math.comb(d, t) for t, _ in sizes) - 1).bit_length() > 63:
            return None
        if sum(math.comb(d, t) * min(n, 1 << (r * t)) for t, _ in sizes) > max(n * d, TABLE_ENTRY_FLOOR):
            return None
        subsets = [(subset, c) for t, c in sizes for subset in combinations(range(d), t)]
        # A query adds one weight per subset and |S_T| <= n, so every partial
        # sum is at most n sum_T |c_T|.  Below 2**63 no int64 operation can
        # wrap (n >= 1 also keeps each c_T itself in range); otherwise the
        # weights are exact Python integers.
        in_int64 = n * sum(abs(c) for _, c in subsets) < 2**63
        dtype = np.float64 if not exact else np.int64 if in_int64 else object
        unit = np.eye(d, dtype=np.int64)  # row j: the digit 1 in coordinate j alone
        pack = np.array([_subset_codes(unit, subset, r) for subset, _ in subsets])
        offsets = np.arange(len(subsets), dtype=np.int64) << (r * k)
        keys, weights = [np.full(1, -1, dtype=np.int64)], [np.zeros(1, dtype=dtype)]
        for t, (subset, c) in enumerate(subsets):
            cells, sums = _cell_sums(samples.digit_keys, subset, r, samples.values)
            cells += offsets[t]
            if exact:
                sums = sums.astype(np.int64).astype(dtype, copy=False)
                sums *= c
            else:
                sums *= float(c)
            keys.append(cells)
            weights.append(sums)
        tables = cls(pack, offsets, np.concatenate(keys), np.concatenate(weights))
        for array in (tables.pack, tables.offsets, tables.keys, tables.weights):
            array.flags.writeable = False
        return tables

    def numerator(self, keys: np.ndarray) -> np.ndarray:
        """``sum_T c_T S_T(x)`` for each row of an (m, d) digit-key matrix, in weight dtype.

        Rows are looked up in blocks of about ``LOOKUP_BLOCK`` (row, subset)
        keys; a key of an empty cell maps to 0, the sentinel, of weight 0.
        """
        step = max(1, LOOKUP_BLOCK // len(self.offsets))
        sums = []
        # An empty batch is one empty block, so it still has a dtype.
        for lo in range(0, max(len(keys), 1), step):
            query = keys[lo : lo + step] @ self.pack.T + self.offsets
            at = np.searchsorted(self.keys, query, side="right") - 1
            sums.append(self.weights[np.where(self.keys[at] == query, at, 0)].sum(axis=1))
        return np.concatenate(sums)


@dataclass(frozen=True)
class WaveletModel:
    """A fitted approximant: digit-keyed samples plus what evaluation reads.

    ``d``, ``r`` and ``n`` are read off the samples, which must carry digit
    keys; the resolution of those keys is the model's ``r``.  Samples may
    come in any order.  Everything else is built here and cannot be passed
    in:

    * ``exact``: every sample value is +-1, so numerators are integers;
    * linear and sign modes: ``tables``, the projection sums, or None where
      they cannot or may not be built (see ``ProjectionTables.build``);
    * where ``tables`` is None (the chi route, and every generalized model):
      ``chi``, the table of the chi identity for ``k``;
    * generalized mode: ``runs``, groups of samples, with row ``j`` of
      ``run_keys`` holding the sorted key of each entry of row ``j``, so
      x's group is where ``run_keys[j]`` equals x's key (``_run_bounds``).
      At ``k < d`` there is a row per coordinate ``j``, keyed by the digit
      ``x_j``, and it holds value ranks (positions in ``order``, the value
      permutation ``argsort(values)``), ascending within each group;
      ``order`` need not be stable, as the output is the exact threshold-cut
      sum rounded once, which tied values cannot change.  At ``k = d`` the
      single row is keyed by the full-cell code (``_subset_codes``) and
      holds sample indices (``_grouped``); there is no ``order``, and past
      ``r d = 63`` bits no runs either.

    Everything not listed for a mode is None.

    Models need at least one sample.  They are immutable and thread-safe.
    """

    k: int
    mode: str
    samples: SampleSet
    chi: np.ndarray | None = field(init=False, repr=False)
    exact: bool = field(init=False)
    tables: ProjectionTables | None = field(init=False, repr=False)
    order: np.ndarray | None = field(init=False, repr=False)
    runs: np.ndarray | None = field(init=False, repr=False)
    run_keys: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.samples.digit_keys is None:
            raise ValueError("samples must carry digit keys")
        if self.n == 0:
            raise ValueError("a model needs at least one sample")
        if not 0 <= self.k <= self.d:
            raise ValueError(f"k must be in [0, {self.d}], got {self.k}")
        values = self.samples.values
        exact = all((np.abs(values[lo : lo + LATTICE_BLOCK]) == 1.0).all() for lo in range(0, self.n, LATTICE_BLOCK))
        tables = chi = order = runs = run_keys = None
        keys = self.samples.digit_keys
        if self.mode != "generalized":
            tables = ProjectionTables.build(self.samples, self.k, exact)
        elif self.k < self.d:
            order = np.argsort(values)
            runs = np.empty((self.d, self.n), dtype=np.int32 if self.n < 2**31 else np.int64)
            run_keys = np.empty((self.d, self.n), dtype=keys.dtype)
            for j in range(self.d):
                # numpy radix-sorts 8- and 16-bit keys under kind="stable".
                column = np.take(keys[:, j], order)
                runs[j] = np.argsort(column, kind="stable")
                run_keys[j] = np.sort(column, kind="stable")
        elif self.r * self.d <= 63:  # k = d: the samples grouped by full-cell code
            codes, index = _grouped(_subset_codes(keys, range(self.d), self.r), self.r * self.d)
            run_keys, runs = codes[None], index[None]
        if tables is None:
            table = chi_table(self.d, self.k, self.r)
            # Every integer a query forms is at most max(3 n, 4) max|chi| in
            # size.  Sign numerators sum_i y_i chi(b_i) (|y_i| = 1) have
            # partial sums within n max|chi|.  In _run_flips a step chi(b) -
            # chi(0) is within 2 max|chi| and a drop -2 (chi(b) - chi(0))
            # within 4 max|chi|, the one term that can pass 3 n max|chi| (at
            # n = 1); the partial sums of at most n steps are within 2 n
            # max|chi|, n chi(0) and n g_0 within n max|chi|.  Each partial
            # sum of n g_0 and the drops is a level n g_i + 2 chi(0) i with
            # i <= n, within 3 n max|chi|, and a crossing index is within
            # half a level plus 1.  Below 2**63 no int64 operation can wrap;
            # otherwise numpy carries exact Python integers.
            exact_in_int64 = max(3 * self.n, 4) * max(abs(c) for c in table) < 2**63
            chi = np.asarray(table, dtype=np.int64 if exact_in_int64 else object)
        for name, value in (("chi", chi), ("exact", exact), ("tables", tables), ("order", order),
                            ("runs", runs), ("run_keys", run_keys)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __call__(self, points) -> np.ndarray:
        """``eval_linear``, ``eval_sign`` or ``eval_generalized`` by mode, looked up per call."""
        evaluate = {"linear": eval_linear, "sign": eval_sign, "generalized": eval_generalized}[self.mode]
        return evaluate(self, points)

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

    Every mode attaches resolution-r digit keys; samples stay in draw order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return WaveletModel(k, mode, draw_samples(d, n, oracle, seed).with_resolution(r))


def _query_keys(model: WaveletModel, points) -> np.ndarray:
    """Digit keys of an (m, d) batch of query points, validated once."""
    return _cell_keys(as_points(points, model.d), model.r)


def _chi_at(model: WaveletModel, keys: np.ndarray) -> np.ndarray:
    """chi(b_i(x)) for every stored sample, from the digit keys of one point x."""
    return model.chi[(model.samples.digit_keys == keys).sum(axis=1)]


def _numerators(model: WaveletModel, points) -> np.ndarray:
    """``n * h(x)`` for every row of an (m, d) batch.

    Read off the projection tables when the model has them, else summed
    over the samples through ``chi``, one query row at a time.  When every
    sample value is +-1 the entries are exact integers (int64, or Python
    integers where int64 could wrap); floats otherwise.
    """
    keys = _query_keys(model, points)
    if model.tables is not None:
        return model.tables.numerator(keys)
    values = model.samples.values
    y, dtype = (values.astype(np.int64), model.chi.dtype) if model.exact else (values, np.float64)
    return np.array([np.dot(y, _chi_at(model, row)) for row in keys], dtype=dtype)


def reconstruction_value(model: WaveletModel, points) -> np.ndarray:
    """The linear reconstruction ``h(x) = (1/n) sum_i y_i chi(b_i(x))`` at each point."""
    numerators = _numerators(model, points)
    if model.exact:
        # Python's int / int rounds once; an int64 numerator above 2**53
        # would be rounded to float64 before numpy divides it.
        return (numerators.astype(object) / model.n).astype(np.float64)
    return numerators / model.n


def eval_linear(model: WaveletModel, points) -> np.ndarray:
    """Linear-mode output: the reconstruction itself."""
    if model.mode != "linear":
        raise ValueError(f"eval_linear requires a linear-mode model, got {model.mode!r}")
    return reconstruction_value(model, points)


def eval_sign(model: WaveletModel, points) -> np.ndarray:
    """Sign of the linear reconstruction, with sgn(0) = +1.

    For sign-valued samples the sign is decided in exact integer arithmetic.
    """
    return np.where(_numerators(model, points) >= 0, 1.0, -1.0)


def _run_bounds(run_keys: np.ndarray, query: np.ndarray):
    """Where each row of an (m, rows) query matrix has its group in each row of ``run_keys``.

    Returns the starts and the ends, as lists of m rows: the group of
    ``query[i, j]`` is ``run_keys[j][starts[i][j]:ends[i][j]]``, empty if
    absent.  One ``searchsorted`` left and one right per run row.
    """
    return [np.stack([np.searchsorted(row, column, side) for row, column in zip(run_keys, query.T)],
                     axis=1).tolist() for side in ("left", "right")]


def _run_flips(model: WaveletModel, keys: np.ndarray):
    """The flips of ``s_i = sgn(n g_i(x))``, i = 0..n, for each row of an (m, d) digit-key matrix.

    For generalized models with ``k < d``.  Yields, row by row, ``s_0`` and
    ``s_n`` (+-1.0), the flips ``f`` in 1..n, where ``s_f != s_{f-1}``,
    ascending, and ``s_{f-1}`` at each.

    ``g_i`` is the reconstruction with the ``i`` first samples in value
    order forced to -1 and the rest to +1, so ``n g_i = sum_l chi(b_l) -
    2 sum_{rank l < i} chi(b_l)``.  A sample that shares x's cell in ``b >=
    1`` coordinates lies in exactly ``b`` of x's ``d`` coordinate runs
    (``WaveletModel.runs``), and every other sample adds ``chi(0)``.  So
    with ``D_b = chi(b) - chi(0)`` and ``b_j`` the multiplicity of rank
    ``j`` in those runs,

        n g_i(x) = n chi(0) + sum_j D_{b_j} - 2 sum_{j < i} D_{b_j} - 2 chi(0) i:

    linear in ``i`` with slope ``-2 chi(0)`` between consecutive breakpoints
    ``j + 1``.  Each such segment thus changes sign at most once, at an
    index found by exact floor division; at ``k < d``, ``chi(0) = (-1)**k
    C(d - 1, k) != 0``.  The integers have ``chi``'s dtype, whose guard
    (``WaveletModel``) covers every one of them.  Rows are taken in blocks
    of about ``LOOKUP_BLOCK`` (row, coordinate) pairs, with the run bounds
    (``_run_bounds``) looked up once per block.
    """
    n, d, chi, runs = model.n, model.d, model.chi, model.runs
    steps = chi - chi[0]
    twice = 2 * chi[0]
    step = max(1, LOOKUP_BLOCK // d)
    for lo in range(0, len(keys), step):
        for starts, ends in zip(*_run_bounds(model.run_keys, keys[lo : lo + step])):
            ranks = np.concatenate([run[a:b] for run, a, b in zip(runs, starts, ends)])
            ranks.sort()
            # Each distinct rank starts at one of at[:-1]; b is the gap to the next.
            new = np.ones(len(ranks) + 1, dtype=bool)
            np.not_equal(ranks[1:], ranks[:-1], out=new[1:-1])
            at = np.flatnonzero(new)
            gains = steps[at[1:] - at[:-1]]
            # Segment s covers i in [edges[s], edges[s + 1]), where n g_i = levels[s] - twice i.
            levels = np.cumsum(np.concatenate(([n * chi[0] + gains.sum()], -2 * gains)))
            edges = np.concatenate(([0], ranks[at[:-1]] + 1, [n + 1]))
            # levels - twice i >= 0 up to floor(levels / twice) for chi(0) > 0,
            # and from ceil(levels / twice) on for chi(0) < 0: s changes at
            # cross inside a segment, and at a segment's start between two.
            cross = levels // twice + 1 if twice > 0 else -(-levels // twice)
            ends = np.stack([edges[:-1], edges[1:] - 1], axis=1).ravel()
            signs = np.where((np.repeat(cross, 2) > ends) != (twice < 0), 1.0, -1.0)
            change = np.flatnonzero(signs[1:] != signs[:-1])
            flips = np.stack([cross, edges[1:]], axis=1).ravel()[change].astype(np.int64)
            yield signs[0], signs[-1], flips, signs[change]


def eval_generalized(model: WaveletModel, points) -> np.ndarray:
    """Generalized-mode output; always in [-1, 1].

    The threshold-cut sum ``1/2 * sum_i (y_{i+1} - y_i) * s_i`` over the
    values in value order, with sentinels ``y_0 = -1`` and ``y_{n+1} = +1``
    and ``s_i = sgn(g_i(x))``, telescopes to ``(s_0 + s_n)/2 + sum_f y_f
    s_{f-1}`` over the flips ``f`` of ``s``; ``math.fsum`` returns it
    correctly rounded.  At ``k < d`` the flips come from the query's
    coordinate runs (``_run_flips``).  At ``k = d`` it is the upper median
    of the ``W`` values in x's cell (+1 if empty), read off the cell's run
    or, past 63 bits, its matching samples, in O(W) memory per row.
    """
    if model.mode != "generalized":
        raise ValueError(f"eval_generalized requires a generalized-mode model, got {model.mode!r}")
    keys = _query_keys(model, points)
    values, order, runs = model.samples.values, model.order, model.runs
    if order is not None:
        return np.array([math.fsum([(s_0 + s_n) / 2, *(values[order[f - 1]] * before)])
                         for s_0, s_n, f, before in _run_flips(model, keys)], dtype=np.float64)
    # k = d: the upper median of x's cell.
    if runs is None:
        cells = (values[(model.samples.digit_keys == row).all(axis=1)] for row in keys)
    else:
        codes = _subset_codes(keys, range(model.d), model.r)[:, None]
        cells = (values[runs[0, a:b]] for (a,), (b,) in zip(*_run_bounds(model.run_keys, codes)))
    # y + 0.0 is +0.0 for y = -0.0, as fsum([0.0, y]) is.
    return np.array([np.partition(y, len(y) // 2)[len(y) // 2] + 0.0 if len(y) else 1.0 for y in cells])
