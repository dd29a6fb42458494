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
``c_T = 2**(r d)`` for ``|T| = d``, and ``S_T(x)`` the sum of ``y_i`` over the
samples sharing x's cell in the coordinates of ``T``.  A sample matching x in
``b`` coordinates shares its cell in exactly the subsets of those, so ``h(x) =
(1/n) sum_i y_i chi(b_i(x))`` with the integer table ``chi(b) = sum_{t <=
min(b, k)} C(b, t) c_t``; no coefficient is stored.  Linear and sign models
store the nonzero ``c_T S_T`` in one sorted table (``ProjectionTables``) of
compact codes, so ``m`` queries cost one ``searchsorted`` over their ``m #T``
keys, taken in blocks of bounded size.

Every other model (``ProjectionTables.build``; all generalized ones) holds
runs, the samples grouped by a cell key (``WaveletModel``), and at ``k < d``
``chi``: a sample sharing x's cell in ``b`` coordinates lies in exactly
``b`` of x's ``d`` per-coordinate groups, so one bincount over those groups
counts every ``b_i(x)``.  Generalized models keep value ranks there, and
every sample outside x's groups adds ``chi(0)``, so ``n g_i(x)`` is linear
in ``i`` between the ranks found there: its flips follow from integer prefix
sums over those breakpoints and one exact floor division per segment.  At
``k = d`` only the full cell has ``c_T != 0``, so a model reads x's cell
alone (its full-cell run's group, or past ``r d = 63`` bits the samples in
all ``d`` of x's coordinate groups): ``n h(x)`` is ``2**(r d)`` times its
sum, and ``n g_i(x) = 2**(r d) (W - 2 cnt_i)`` flips once, where ``cnt_i``
of its ``W`` samples are among the ``i`` smallest values.  The output is the
upper median, the ``floor(W/2) + 1``-th smallest value (+1 when empty), and
no value is sorted.  Integer arithmetic is exact (Python integers, with a
64-bit fast path when magnitudes provably permit).  ``estimate_coefficients``,
the Haar transform of the projected sample histograms, is the explicit
coefficient route the identity is checked against.

Every model reads a sample only through its value and its digit keys, so a
``SampleSet`` holds just those, keyed once at its resolution; the keys of any
coarser one are a right shift away.  ``draw_samples`` draws each
``LATTICE_BLOCK`` of points into one reused buffer, answers, checks, keys and
drops it: no ``(n, d)`` float points are held (6.4 MB at n = 200 000, d = 4).

Every evaluation function takes the model and an ``(m, d)`` array of query
points in [0, 1]^d and returns the ``(m,)`` array of outputs; a model is an
oracle too, and ``model(points)`` runs the evaluation function of its mode.

Outputs are approximations of the target but carry no monotonicity guarantee
of their own; only boundedness (outputs in [-1, 1] for the generalized
estimator) is structural.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import combinations

import numpy as np

from .budget import check_budget
from .functions import LATTICE_BLOCK, _answer, _set_frozen, as_points, eval_batch
from .haar_basis import MultiIndex, enumerate_indices, haar_transform, index_set_size

MODES = ("linear", "sign", "generalized")

# Projection tables may hold max(n d, TABLE_ENTRY_FLOOR) entries: as many as
# the n d digit keys, and never fewer than 2**22.  A build peaks at about 32
# bytes per entry (key, weight and the concatenated copy; 30.6-33 B measured
# at 0.23M-3.8M entries), so the floor admits about 130 MB.  The limit bounds
# memory and is no speed rule.  On 2 CPUs (numpy 2.4), 2000 sign queries,
# build included, took 0.04 s with tables against 0.13-0.15 s on the
# coordinate runs at d = 8, k = 3, r = 4, n = 20000, but 0.83-0.90 s (0.12 s
# of it the build of 1586 tables) against 0.04-0.06 s at d = 12, k = 5,
# r = 3, n = 2000: with many subsets a query pays one lookup per subset.
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
    """Samples in [0,1]^d with values in [-1,1], held as their values and digit keys.

    ``digit_keys[i][j]`` is the index of the resolution-``r`` dyadic cell
    containing coordinate ``j`` of sample ``i``, in ``[0, 2**r)``, uint8 for
    r <= 8 and uint16 for r <= 16.  The points are checked ``LATTICE_BLOCK``
    rows at a time, keyed at ``resolution`` and dropped; keys cannot be
    passed in.  Without a resolution they are keyed at ``MAX_RESOLUTION``
    and ``resolution`` stays None, which a model refuses.  Arrays are
    read-only; a writable one passed in is copied, a read-only one adopted
    (``_set_frozen``).
    """

    points: InitVar[np.ndarray]
    values: np.ndarray
    resolution: int | None = None
    digit_keys: np.ndarray = field(init=False)

    def __post_init__(self, points) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have equal length")
        for lo in range(0, len(values), LATTICE_BLOCK):
            block = points[lo : lo + LATTICE_BLOCK]
            if not ((block >= 0.0) & (block <= 1.0)).all():  # NaN too
                raise ValueError("sample points must lie in [0, 1]^d")
            _check_values(values[lo : lo + LATTICE_BLOCK])
        own = MAX_RESOLUTION if self.resolution is None else self.resolution
        _set_frozen(self, values=values, digit_keys=_cell_keys(points, own))

    @classmethod
    def _adopt(cls, values, resolution, digit_keys) -> "SampleSet":
        """A set of arrays already checked and keyed, handed over: nothing is checked or keyed again."""
        samples = object.__new__(cls)
        _set_frozen(samples, values=values, resolution=resolution, digit_keys=digit_keys)
        return samples

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def d(self) -> int:
        return self.digit_keys.shape[1]

    def with_resolution(self, r: int) -> "SampleSet":
        """The samples keyed at r, at most their own resolution ``s``: each key shifted right by ``s - r``.

        ``floor(x 2**s) >> (s - r) = floor(x 2**r)``, and the clamped key
        ``2**s - 1`` of ``x = 1`` shifts to ``2**r - 1``.  A finer r is a ValueError.
        """
        if self.resolution == r:
            return self
        own = MAX_RESOLUTION if self.resolution is None else self.resolution
        if r > own:
            raise ValueError(f"samples keyed at resolution {own} cannot be keyed at the finer {r}")
        keys = np.empty(self.digit_keys.shape, dtype=_key_dtype(r))
        for lo in range(0, len(keys), LATTICE_BLOCK):
            np.right_shift(self.digit_keys[lo : lo + LATTICE_BLOCK], own - r, out=keys[lo : lo + LATTICE_BLOCK],
                           casting="unsafe")
        return SampleSet._adopt(self.values, r, keys)

    def sorted(self) -> "SampleSet":
        """The samples, stably sorted by value: values and keys permuted together."""
        order = np.argsort(self.values, kind="stable")
        return SampleSet._adopt(self.values[order], self.resolution, self.digit_keys[order])


def _check_values(values: np.ndarray) -> None:
    """ValueError unless every sample value lies in [-1, 1]; NaN and +-inf fail."""
    if not (np.abs(values) <= 1.0).all():
        raise ValueError("sample values must lie in [-1, 1]")


def draw_samples(d: int, n: int, oracle, seed, resolution: int | None = None) -> SampleSet:
    """Draw n i.i.d. uniform points and record oracle values as a keyed ``SampleSet``; deterministic in seed.

    The points are the rows of one ``rng.random((n, d))``, drawn
    ``LATTICE_BLOCK`` rows at a time into one reused buffer.  Each block gets
    one oracle call (``on_columns`` gets its columns), a check of its values
    (points from ``rng.random`` lie in [0, 1)) and its keys; the set equals
    ``SampleSet(points, values, resolution)`` byte for byte.  Raises
    ValueError if the oracle returns a value outside [-1, 1].
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    own = MAX_RESOLUTION if resolution is None else resolution
    keys = np.empty((n, d), dtype=_key_dtype(own))
    rng = np.random.default_rng(seed)
    values = np.empty(n)
    buffer = np.empty((min(n, LATTICE_BLOCK), d))
    kernel = getattr(oracle, "on_columns", None)
    for lo in range(0, n, LATTICE_BLOCK):
        hi = min(n, lo + LATTICE_BLOCK)
        block = rng.random(out=buffer[: hi - lo])
        # No name holds a block's answer into the next block.
        values[lo:hi] = eval_batch(oracle, block) if kernel is None else _answer(kernel(block.T), hi - lo)
        _check_values(values[lo:hi])
        _cell_keys(block, own, out=keys[lo:hi])
    return SampleSet._adopt(values, resolution, keys)


def _key_dtype(r: int):
    """The dtype of resolution-r digit keys, or ValueError unless ``1 <= r <= MAX_RESOLUTION``."""
    if r < 1:
        raise ValueError("resolution must be positive")
    if r > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {r}")
    return np.uint8 if r <= 8 else np.uint16 if r <= 16 else np.int64


def _cell_keys(points: np.ndarray, r: int, out: np.ndarray | None = None) -> np.ndarray:
    """Resolution-r cell index ``min(floor(x * 2**r), 2**r - 1)`` of every coordinate, into ``out`` if given.

    The minimum puts ``x = 1`` in the last (right-closed) cell, as
    ``haar_basis.cell_of_point`` does.  Keys are clamped before the cast, so
    ``x = 1`` cannot wrap to 0 in uint8/uint16, and past ``r = 53``, where
    ``2**r - 1`` is no float, again after it, exactly.  Past ``r =
    MAX_RESOLUTION`` the product ``2**r`` at ``x = 1`` does not fit in
    int64.  Rows are keyed ``LATTICE_BLOCK`` at a time; ``out`` must have
    the dtype ``_key_dtype(r)``.
    """
    dtype = _key_dtype(r)
    scale = 1 << r
    keys = np.empty(np.shape(points), dtype=dtype) if out is None else out
    for lo in range(0, len(keys), LATTICE_BLOCK):
        np.minimum(points[lo : lo + LATTICE_BLOCK] * scale, scale - 1, out=keys[lo : lo + LATTICE_BLOCK],
                   casting="unsafe")
    if r > 53:
        np.minimum(keys, scale - 1, out=keys)
    return keys


def _subset_codes(digit_keys: np.ndarray, subset, r: int, out: np.ndarray | None = None, shift: int = 0) -> np.ndarray:
    """Cell codes, digit ``subset[s]`` at bit ``r s + shift``, or-ed block by block into ``out`` (else int64 zeros)."""
    codes = np.zeros(len(digit_keys), dtype=np.int64) if out is None else out
    for lo in range(0, len(codes), LATTICE_BLOCK):
        block = codes[lo : lo + LATTICE_BLOCK]
        for s, j in enumerate(subset):  # in the codes' dtype: uint8 << b would wrap
            block |= np.left_shift(digit_keys[lo : lo + LATTICE_BLOCK, j], r * s + shift, dtype=block.dtype,
                                   casting="unsafe")
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
    keys = samples.with_resolution(r).digit_keys
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

    Dense where the ``2**(r |T|)`` cells number at most n: at mc-gen-d2's
    4096 cells and 726k samples two bincounts of the codes take 6-11 ms,
    ``_grouped``'s uint32 pairs and the rank scatter 13-23 ms, and an
    argsort of the codes alone (its route past 63 bits) 17-24 ms.
    """
    return "dense" if 1 << (r * len(subset)) <= n else "sorted"


def _grouped(digit_keys: np.ndarray, subset, r: int):
    """The samples grouped by their ``subset`` cell code: the codes sorted, and the sample index of each.

    Within 63 bits (``r |T| + b``, ``b = bitlen(n - 1)``) the digits are or-ed
    (``_subset_codes``) into pairs ``code << b | i`` that start as
    ``arange(n)``; one ``np.sort`` leaves each code's indices ascending.  Within
    32 bits the pairs are uint32: the codes come back in the narrowest unsigned
    dtype and the index as an int32 view of the pairs (6 n bytes at mc-gen-d2).
    Int64 pairs shift into the codes.  Past 63 bits the codes are argsorted, in
    any order within a code.  The index is int32 below ``n = 2**31``.
    """
    n = len(digit_keys)
    width, bits = r * len(subset), (n - 1).bit_length()
    wide = width + bits > 63
    pairs = (np.zeros if wide else np.arange)(n, dtype=np.uint32 if width + bits <= 32 else np.int64)
    _subset_codes(digit_keys, subset, r, out=pairs, shift=0 if wide else bits)
    index_dtype = np.int32 if n < 2**31 else np.int64
    if wide:
        return pairs[order := np.argsort(pairs)], order.astype(index_dtype)
    pairs.sort()
    if pairs.dtype == np.uint32:  # the codes first: the index is masked over the pairs
        codes = np.right_shift(pairs, bits, out=np.empty(n, np.min_scalar_type((1 << width) - 1)), casting="unsafe")
        return codes, np.bitwise_and(pairs, (1 << bits) - 1, out=pairs).view(np.int32)
    index = np.bitwise_and(pairs, (1 << bits) - 1, out=np.empty(n, dtype=index_dtype), casting="unsafe")
    return np.right_shift(pairs, bits, out=pairs), index


def _cell_sums(digit_keys: np.ndarray, subset: tuple[int, ...], r: int, values: np.ndarray):
    """Occupied T-cells, as sorted compact codes (``_subset_codes``), and the sum of ``values`` over each.

    Few cells are binned by one bincount of the codes; else the samples are
    grouped (``_grouped``) and each cell's rank goes back to its samples, in
    the sorted codes, through intp index blocks (numpy scatters through an
    int32 index more slowly than it converts it).  Both add in sample order,
    so the float64 sums carry the same bits (+-1 values: integers below n <
    2**53, exact).
    """
    if _cell_route(subset, r, len(values)) == "dense":
        codes = _subset_codes(digit_keys, subset, r)
        cells = np.flatnonzero(np.bincount(codes))
        return cells, np.bincount(codes, weights=values)[cells]
    codes, index = _grouped(digit_keys, subset, r)
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    cells = codes[first].astype(np.int64, copy=False)
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

    def __post_init__(self) -> None:
        _set_frozen(self, **{name: np.asarray(value) for name, value in vars(self).items()})

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
        0.04-0.05 s with tables (built under the wider rule) and 0.11-0.13 s on
        the coordinate runs at d = 12, k = 2, r = 6, n = 20000, but 0.76-0.79 s
        and 0.05-0.07 s at d = 20, k = 3, r = 4, n = 2000.
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
        arrays = (pack, offsets, np.concatenate(keys), np.concatenate(weights))
        for array in arrays:  # handed over: the tables adopt them
            array.flags.writeable = False
        return cls(*arrays)

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
    * where ``tables`` is None (every generalized model too): ``runs``,
      samples grouped by ``_grouped``, with ``run_keys[j]`` the sorted key
      of each entry of ``runs[j]``, and at ``k < d`` ``chi``, the table of
      the chi identity for ``k``.  The coordinate runs, one row per
      coordinate ``j`` keyed by the digit ``x_j``, hold sample indices, or
      for a generalized model at ``k < d`` value ranks (positions in
      ``order``, the value permutation ``argsort(values)``; it need not be
      stable, as tied values cannot change the exact threshold-cut sum).  A
      generalized model at ``k = d`` within ``r d = 63`` bits keeps one row
      instead, the full-cell run: sample indices keyed by full-cell code, as
      narrow as ``_grouped`` gives them (uint16 at mc-gen-d2).

    Everything not listed for a mode is None.

    Models need at least one sample.  They are immutable and thread-safe:
    every array they hold, samples and tables included, is read-only.
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
        if self.samples.resolution is None:
            raise ValueError("samples must be keyed at a resolution")
        if self.n == 0:
            raise ValueError("a model needs at least one sample")
        if not 0 <= self.k <= self.d:
            raise ValueError(f"k must be in [0, {self.d}], got {self.k}")
        values = self.samples.values
        exact = all((np.abs(values[lo : lo + LATTICE_BLOCK]) == 1.0).all() for lo in range(0, self.n, LATTICE_BLOCK))
        tables = chi = runs = run_keys = None
        order = np.argsort(values) if self.mode == "generalized" and self.k < self.d else None
        keys = self.samples.digit_keys
        if self.mode != "generalized":
            tables = ProjectionTables.build(self.samples, self.k, exact)
        if tables is None:
            if self.mode == "generalized" and self.k == self.d and self.r * self.d <= 63:
                run_keys, runs = (part[None] for part in _grouped(keys, range(self.d), self.r))
            else:  # per coordinate, the sample indices (value ranks with an order) grouped by digit
                run_keys = np.empty((self.d, self.n), dtype=keys.dtype)
                runs = np.empty((self.d, self.n), dtype=np.int32 if self.n < 2**31 else np.int64)
                for j, column in enumerate(keys.T):  # take gathers a column at twice the speed of keys[order, j]
                    run_keys[j], runs[j] = _grouped((column if order is None else column.take(order))[:, None], (0,),
                                                    self.r)
        if tables is None and self.k < self.d:
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
        _set_frozen(self, chi=chi, exact=exact, tables=tables, order=order, runs=runs, run_keys=run_keys)

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

    The samples are drawn keyed at resolution r; they stay in draw order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return WaveletModel(k, mode, draw_samples(d, n, oracle, seed, r))


def _query_keys(model: WaveletModel, points) -> np.ndarray:
    """Digit keys of an (m, d) batch of query points, validated once."""
    return _cell_keys(as_points(points, model.d), model.r)


def _numerators(model: WaveletModel, points) -> np.ndarray:
    """``n * h(x)`` for every row of an (m, d) batch.

    Read off the projection tables when the model has them; else ``2**(r
    d)`` times x's cell sum at ``k = d`` (added in sample order as a table
    cell is), and ``sum_i y_i chi(b_i(x))`` over every sample at ``k < d``.
    When every sample value is +-1 the entries are exact integers (int64, or
    Python integers where int64 could wrap); floats otherwise.
    """
    keys = _query_keys(model, points)
    if model.tables is not None:
        return model.tables.numerator(keys)
    values = model.samples.values
    if model.k == model.d:
        cells = (values[np.sort(cell)] for cell in _run_members(model, keys))
        sums = np.array([np.bincount(np.zeros(len(y), dtype=np.intp), weights=y, minlength=1)[0] for y in cells])
        shift = model.r * model.d  # exactly: 2**(r d) may be no float, and past 2**1024 ldexp gives +-inf
        with np.errstate(over="ignore"):
            return sums.astype(np.int64).astype(object) << shift if model.exact else np.ldexp(sums, shift)
    y, dtype = (values.astype(np.int64), model.chi.dtype) if model.exact else (values, np.float64)
    counts = (np.bincount(members if model.order is None else model.order[members], minlength=model.n)
              for members in _run_members(model, keys))
    return np.array([np.dot(y, model.chi[b]) for b in counts], dtype=dtype)


def reconstruction_value(model: WaveletModel, points) -> np.ndarray:
    """The linear reconstruction ``h(x) = (1/n) sum_i y_i chi(b_i(x))`` at each point."""
    numerators = _numerators(model, points)
    if model.exact:
        try:  # Python's int / int rounds once; numpy would round an int64 numerator above 2**53 first
            return (numerators.astype(object) / model.n).astype(np.float64)
        except OverflowError:  # from halfway past the largest float, h is +-inf, as a float numerator gives
            edge = (2**1024 - 2**970) * model.n  # object numerators here: int64 ones never overflow
            return np.array([v / model.n if abs(v) < edge else math.inf if v > 0 else -math.inf for v in numerators])
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


def _run_members(model: WaveletModel, keys: np.ndarray):
    """For each row x of an (m, d) digit-key matrix, the entries of x's group in every run row, concatenated.

    A coordinate-run entry appears ``b(x)`` times; at ``k = d`` only x's cell
    is kept, the full-cell run's group or the indices in all ``d`` coordinate
    groups, ascending.  Blocks of about ``LOOKUP_BLOCK`` (row, run row) pairs.
    """
    query = keys if len(model.runs) == model.d else _subset_codes(keys, range(model.d), model.r)[:, None]
    step = max(1, LOOKUP_BLOCK // len(model.runs))
    for lo in range(0, len(query), step):  # in the runs' key dtype, or each searchsorted converts its run row
        block = query[lo : lo + step].T.astype(model.run_keys.dtype, copy=False)
        lower, upper = (np.stack([np.searchsorted(row, column, side) for row, column in zip(model.run_keys, block)],
                                 axis=1).tolist() for side in ("left", "right"))
        for starts, ends in zip(lower, upper):
            members = np.concatenate([run[a:b] for run, a, b in zip(model.runs, starts, ends)])
            if model.k == model.d and len(model.runs) > 1:  # sorted, an index in all d groups repeats d times
                members.sort()
                tail = members[model.d - 1 :]
                members = tail[tail == members[: len(tail)]]
            yield members


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
    (``WaveletModel``) covers every one of them.
    """
    n, chi = model.n, model.chi
    steps = chi - chi[0]
    twice = 2 * chi[0]
    for ranks in _run_members(model, keys):
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
    of the ``W`` values in x's cell (+1 if empty, ``_run_members``).
    """
    if model.mode != "generalized":
        raise ValueError(f"eval_generalized requires a generalized-mode model, got {model.mode!r}")
    keys = _query_keys(model, points)
    values, order = model.samples.values, model.order
    if order is not None:
        return np.array([math.fsum([(s_0 + s_n) / 2, *(values[order[f - 1]] * before)])
                         for s_0, s_n, f, before in _run_flips(model, keys)], dtype=np.float64)
    # k = d: the upper median of x's cell, where y + 0.0 is +0.0 for y = -0.0, as fsum([0.0, y]) is.
    cells = (values[cell] for cell in _run_members(model, keys))
    return np.array([np.partition(y, len(y) // 2)[len(y) // 2] + 0.0 if len(y) else 1.0 for y in cells])
