"""Monotone test-function families, a monotonicity checker, and oracle helpers.

An oracle is a callable mapping an ``(m, d)`` array of points of
``[0,1]^d`` to the ``(m,)`` array of its values in ``[-1, 1]``; a single
point is a one-row batch.  Fitted models are oracles too: ``model(points)``.
Families constructed here are immutable after construction and safe to share
across threads.

An oracle may also offer ``on_columns(columns)``: its values at the points
whose j-th coordinates are ``columns[j]``, d arrays that broadcast together,
in an array of their broadcast shape.  It never writes into the columns.
Every family here and the grid model are ``ColumnOracle``s: ``__call__``
checks a batch with ``as_points`` and runs ``on_columns`` on its columns.
``lattice_values`` hands such an oracle each lattice slab as per-axis
coordinates, with no array of points; any other callable gets the slab's
points, stacked from the same coordinates.

Sign convention: ``sgn(0) = +1`` throughout, so sign-valued oracles never
return zero.

The step and level-set families tabulate their values once, at
construction (level sets while ``2**d <= LATTICE_BLOCK``), so a batch costs
one pass per coordinate and one gather, and a lattice slab a pass or two
over the slab and one gather, whatever d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, FrozenSet

import numpy as np

from .budget import check_budget

# Points of one lattice slab or block (1 MB of points at d = 4).  fit_grid of
# a step oracle at d = 4, m = 32 takes 12 ms in 29791-point slabs of per-axis
# columns and 28 ms in blocks of points of that size, against 84 ms in
# 961-point blocks and 93 ms in one (2 CPUs, numpy 2.4).  Sample draws, their
# checks and their digit keys (approx_mc) go in blocks of this many rows too.
LATTICE_BLOCK = 1 << 15


def eval_batch(oracle, points: np.ndarray) -> np.ndarray:
    """Evaluate an oracle on an (m, d) array; its values must have shape (m,)."""
    values = np.asarray(oracle(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(
            f"oracle returned shape {values.shape} for {len(points)} points; "
            f"expected ({len(points)},)"
        )
    return values


def _width(columns, d: int):
    """``columns``, or the ValueError of ``as_points`` unless there are d of them."""
    if len(columns) != d:
        raise ValueError(f"points must have shape (m, {d}), got {len(columns)} columns")
    return columns


def _horner(total, base: int, term):
    """``total * base + term``, in place when ``total`` has the term's shape.

    In place saves a batch one new array per coordinate; ``total`` must then
    be the caller's own array, never a column it was given.
    """
    if np.shape(total) != np.shape(term):
        return total * base + term
    total *= base
    total += term
    return total


def _column_sums(columns) -> np.ndarray:
    """Sums of columns that broadcast together, rounded as ``sum(axis=1)`` rounds rows.

    numpy adds fewer than 8 terms left to right; from 8 it keeps 8 running
    partials and adds them pairwise, splitting past 128 terms at a multiple
    of 8.  The result is always a new array.
    """
    n = len(columns)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sums(columns[:half]) + _column_sums(columns[half:])
    if n < 8:
        total, rest = np.array(columns[0], dtype=float), columns[1:]
    else:
        r = list(columns[:8])
        for i in range(8, n - n % 8, 8):
            r = [r[j] + columns[i + j] for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = columns[n - n % 8 :]
    for column in rest:
        if np.shape(total) == np.shape(column):
            total += column  # the total is never a column it was given
        else:
            total = total + column
    return total


def as_points(points, d: int) -> np.ndarray:
    """``points`` as a float (m, d) array inside [0, 1]^d, or ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (m, {d}), got {pts.shape}")
    if not ((pts >= 0.0) & (pts <= 1.0)).all():  # NaN fails too
        raise ValueError("points must lie in [0, 1]^d")
    return pts


class ColumnOracle:
    """An oracle of width ``d`` given by its column kernel ``on_columns``."""

    def __call__(self, points) -> np.ndarray:
        return self.on_columns(as_points(points, self.d).T)


@dataclass(frozen=True)
class Boxbslash(ColumnOracle):
    """Diagonal split function: sign of ``sum_j x_j - d/2``.

    Sign-valued and monotone; the split surface passes through the center of
    the cube, so half the volume maps to each sign.
    """

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be positive")

    def on_columns(self, columns) -> np.ndarray:
        s = _column_sums(_width(columns, self.d))
        s -= self.d / 2.0
        return np.where(s >= 0.0, 1.0, -1.0)


def boxbslash(d: int) -> Boxbslash:
    """Sign-valued monotone oracle ``sgn(sum_j x_j - d/2)`` with sgn(0) = +1."""
    return Boxbslash(d)


@dataclass(frozen=True, eq=False)
class StepFamily(ColumnOracle):
    """Piecewise-constant monotone function on the uniform m-grid.

    The cube is split into ``m**d`` subcubes indexed by ``i`` in
    ``{0..m-1}^d``; on subcube ``i`` the value is

        2 * (|i|_1 + delta_i) / (d*(m-1) + 1) - 1,

    where ``delta_i`` is a 0/1 perturbation bit per subcube.  Every bit
    assignment yields a monotone function: moving one step up any coordinate
    raises ``|i|_1`` by one, which dominates any change in ``delta``.

    The ``m**d`` cell values are computed once, at construction; a batch
    forms each point's row-major cell code and gathers its value.  Instances
    compare and hash by identity, as ``delta`` is an array.
    """

    d: int
    m: int
    delta: np.ndarray = field(repr=False)
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")
        delta = np.asarray(self.delta)
        if delta.shape != (self.m,) * self.d:
            raise ValueError(
                f"delta must cover all {self.m}**{self.d} cells, got shape {delta.shape}"
            )
        if not np.isin(delta, (0, 1)).all():
            raise ValueError("delta entries must be 0 or 1")
        arr = np.ascontiguousarray(delta, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "delta", arr)
        level = arr.copy()  # |i|_1 + delta_i
        for j in range(self.d):
            level += np.arange(self.m).reshape((-1,) + (1,) * (self.d - 1 - j))
        object.__setattr__(self, "_values", (2.0 * level / self.denominator - 1.0).ravel())

    @property
    def denominator(self) -> int:
        return self.d * (self.m - 1) + 1

    def on_columns(self, columns) -> np.ndarray:
        code = np.intp(0)
        for column in _width(columns, self.d):  # Horner: the row-major cell code
            cell = (column * self.m).astype(np.intp)
            np.minimum(cell, self.m - 1, out=cell)
            code = _horner(code, self.m, cell)
        return self._values[code]


def random_delta(d: int, m: int, seed) -> np.ndarray:
    """I.i.d. fair perturbation bits for every subcube of the m-grid."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(m,) * d)


def step_function(d: int, m: int, delta) -> StepFamily:
    """Monotone piecewise-constant oracle for the given perturbation bits."""
    return StepFamily(d, m, np.asarray(delta))


def _weight_t_masks(d: int, t: int):
    for combo in combinations(range(d), t):
        yield sum(1 << j for j in combo)


@dataclass(frozen=True)
class LevelSetFunction(ColumnOracle):
    """Sign-valued monotone function determined by a random up-set seed.

    Points of the cube are identified with Boolean vertices through the half
    split of every coordinate (coordinate j maps to bit ``[x_j >= 1/2]``,
    with ``x_j = 1`` in the upper half).  On the Boolean cube the value is
    -1 exactly when the vertex weight is at most ``b`` and no member of ``U``
    lies below the vertex; otherwise +1.  Members of ``U`` all have weight
    ``t``, and ``t <= b <= d``.

    ``U`` is stored as a set of bit-packed vertices.  While ``2**d <=
    LATTICE_BLOCK``, the ±1 value of every vertex is tabulated at
    construction, and a batch gathers from the table at its vertices' masks.
    Past that, a batch tests every member against all its vertices at once.
    """

    d: int
    t: int
    b: int
    members: FrozenSet[int]
    _values: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.b <= self.d:
            raise ValueError(f"need 1 <= t <= b <= d, got t={self.t} b={self.b} d={self.d}")
        for u in self.members:
            if u < 0 or u >= (1 << self.d) or u.bit_count() != self.t:
                raise ValueError(f"member {u:b} does not have weight {self.t}")
        values = None
        if 1 << self.d <= LATTICE_BLOCK:
            up = np.zeros(1 << self.d, dtype=bool)
            up[np.fromiter(self.members, dtype=np.intp, count=len(self.members))] = True
            weights = np.zeros(1 << self.d, dtype=np.int8)
            for j in range(self.d):  # close up along bit j: v[:, 1] holds the masks with bit j
                v = up.reshape(-1, 2, 1 << j)
                v[:, 1] |= v[:, 0]
                weights.reshape(-1, 2, 1 << j)[:, 1] += 1
            values = np.where(up | (weights > self.b), 1.0, -1.0)
        object.__setattr__(self, "_values", values)

    def on_columns(self, columns) -> np.ndarray:
        masks = weights = np.intp(0)
        for column in _width(columns, self.d)[::-1]:  # Horner: coordinate j ends up at bit j
            bit = column >= 0.5
            masks = _horner(masks, 2, bit)
            if self._values is None:
                weights = weights + bit
        if self._values is not None:
            return self._values[masks]
        covered = weights > self.b
        for u in self.members:
            covered |= (masks & u) == u
        return np.where(covered, 1.0, -1.0)


def level_set_function(d: int, t: int, b: int, U) -> LevelSetFunction:
    """Monotone sign-valued oracle from a set ``U`` of weight-t Boolean points.

    ``U`` may contain bit masks or 0/1 tuples.
    """
    members = frozenset(u if isinstance(u, int) else sum(1 << j for j, bit in enumerate(u) if bit) for u in U)
    return LevelSetFunction(d, t, b, members)


def sample_U(d: int, t: int, p: float, seed) -> frozenset[int]:
    """Draw each weight-t Boolean point into U independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    return frozenset(u for u in _weight_t_masks(d, t) if rng.random() < p)


class _Thresholded:
    def __init__(self, oracle, t: float):
        self.oracle = oracle
        self.t = t

    def __call__(self, points) -> np.ndarray:
        vals = eval_batch(self.oracle, points)
        return np.where(vals >= self.t, 1.0, -1.0)


def threshold(oracle, t: float) -> Callable:
    """Sign-valued cut of an oracle: ``x -> sgn(oracle(x) - t)``, sgn(0) = +1.

    Monotone whenever the input oracle is, and pointwise nonincreasing in t.
    """
    return _Thresholded(oracle, t)


@dataclass(frozen=True)
class Affine(ColumnOracle):
    """Smooth monotone ramp ``(2/d) * sum_j x_j - 1``, spanning [-1, 1]."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be positive")

    def on_columns(self, columns) -> np.ndarray:
        s = _column_sums(_width(columns, self.d))
        s *= 2.0
        s /= self.d
        s -= 1.0
        return s


class _Snapped:
    def __init__(self, oracle, d: int, r: int):
        self.oracle = oracle
        self.d = d
        self.r = r

    def __call__(self, points) -> np.ndarray:
        scale = 1 << self.r
        cells = np.minimum((as_points(points, self.d) * scale).astype(np.int64), scale - 1)
        return eval_batch(self.oracle, (cells + 0.5) / scale)


def snap_to_grid(oracle, d: int, r: int):
    """Piecewise-constant version of an oracle on the resolution-r dyadic grid.

    Every point is evaluated at the midpoint of its cell.  Monotonicity is
    preserved because cell midpoints are ordered like the cells themselves.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _Snapped(oracle, d, r)


def _slab_axes(size: int, d: int) -> int:
    """``t >= 1``, the most trailing axes with ``size**t <= LATTICE_BLOCK``."""
    t = 1
    while t < d and size ** (t + 1) <= LATTICE_BLOCK:
        t += 1
    return t


def lattice_values(oracle, coords, d: int) -> np.ndarray:
    """The oracle on the lattice ``coords**d``, as an array of shape ``(len(coords),)*d``.

    Filled slab by slab in C order.  A slab is the sub-lattice of the
    trailing ``t`` axes (``_slab_axes``) at one choice of leading
    coordinates, given as columns: ``coords`` along each of its trailing
    axes, and one-element arrays for its leading coordinates.  An oracle with
    ``on_columns`` gets the columns; any other callable gets the slab's
    points, stacked from them, through ``eval_batch``.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    coords = np.asarray(coords, dtype=float)
    size = len(coords)
    t = _slab_axes(size, d)
    shape = (size,) * t
    values = np.empty((size,) * d)
    on_columns = getattr(oracle, "on_columns", None)
    trailing = [coords.reshape((size,) + (1,) * (t - 1 - j)) for j in range(t)]
    for index in np.ndindex(*(size,) * (d - t)):
        columns = [coords[i : i + 1].reshape((1,) * t) for i in index] + trailing
        if on_columns is None:
            points = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, d)
            slab = eval_batch(oracle, points).reshape(shape)
        else:
            slab = on_columns(columns)
        if np.shape(slab) != shape:
            raise ValueError(f"on_columns returned shape {np.shape(slab)} for a slab of shape {shape}")
        values[index] = slab
    return values


def lattice_is_monotone(values: np.ndarray) -> bool:
    """True iff every coordinate-successor pair of a value lattice is nondecreasing."""
    for axis in range(values.ndim):
        along = np.moveaxis(values, axis, 0)
        if np.less(along[1:], along[:-1]).any():
            return False
    return True


def is_monotone_on_grid(oracle, d: int, resolution: int, budget: int | None = None) -> bool:
    """Check coordinatewise monotonicity on the midpoint lattice.

    Evaluates the oracle at the ``resolution**d`` cell midpoints and verifies
    that every coordinate-successor pair is nondecreasing.  True iff no
    violation is found; a NaN value raises ValueError.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    check_budget(resolution**d, budget, what="lattice points")
    values = lattice_values(oracle, (np.arange(resolution) + 0.5) / resolution, d)
    if np.isnan(values).any():
        raise ValueError("the oracle returned NaN on the lattice")
    return lattice_is_monotone(values)


def family_from_spec(spec: str, d: int, seed, budget: int | None = None) -> Callable:
    """Build an oracle from a CLI family string.

    Formats: ``boxbslash``; ``affine``; ``step:m=4``;
    ``levelset:t=2,b=4,p=0.3``.  Random family members are drawn
    deterministically from ``seed``, their enumerations within ``budget``.
    """
    name, _, argstr = spec.partition(":")
    args: dict[str, str] = {}
    if argstr:
        for item in argstr.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed family argument {item!r}")
            args[key.strip()] = value.strip()
    if name in ("boxbslash", "affine"):
        if args:
            raise ValueError(f"{name} takes no arguments, got {sorted(args)}")
        return boxbslash(d) if name == "boxbslash" else Affine(d)
    if name == "step":
        m = int(args.pop("m", "2"))
        if args:
            raise ValueError(f"unknown step arguments {sorted(args)}")
        if m < 1:
            raise ValueError(f"need m >= 1, got m={m}")
        check_budget(m**d, budget, what="perturbation bits")
        return step_function(d, m, random_delta(d, m, seed))
    if name == "levelset":
        t = int(args.pop("t", "1"))
        b = int(args.pop("b", str(d)))
        p = float(args.pop("p", "0.5"))
        if args:
            raise ValueError(f"unknown levelset arguments {sorted(args)}")
        if not 1 <= t <= b <= d:
            raise ValueError(f"need 1 <= t <= b <= d, got t={t} b={b} d={d}")
        check_budget(math.comb(d, t), budget, what="weight-t vertices")
        return level_set_function(d, t, b, sample_U(d, t, p, seed))
    raise ValueError(f"unknown family {name!r}")
