"""Monotone test-function families, a monotonicity checker, and oracle helpers.

An oracle is a callable mapping an ``(m, d)`` array of points of
``[0,1]^d`` to the ``(m,)`` array of its values in ``[-1, 1]``; a single
point is a one-row batch.  Fitted models follow the same protocol through
``eval_linear``/``eval_sign``/``eval_generalized``/``eval_grid(model,
points)``.  Families constructed here are immutable after construction and
safe to share across threads.

Sign convention: ``sgn(0) = +1`` throughout, so sign-valued oracles never
return zero.

Lattices of points reach oracles in blocks of at most ``LATTICE_BLOCK``
rows (``lattice_blocks``), never as one array of all the points, and so do
the random samples of ``approx_mc.draw_samples``.  The step
and level-set families tabulate their values once, at construction (level
sets while ``2**d <= LATTICE_BLOCK``), so a batch costs one pass per
coordinate and one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, FrozenSet

import numpy as np

from .budget import check_budget

# Rows of one lattice block (1 MB of points at d = 4).  fit_grid of a step
# oracle at d = 4, m = 32 took 28 ms in 29791-row blocks, 84 ms in 961-row
# blocks and 93 ms in one (2 CPUs, numpy 2.4).  Sample draws, their checks
# and their digit keys (approx_mc) go in blocks of this many rows too.
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


def _batch(points, d: int) -> np.ndarray:
    """``points`` as a float (m, d) array, or ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (m, {d}), got {pts.shape}")
    return pts


def _row_sums(points, d: int) -> np.ndarray:
    """Row sums of an (m, d) batch, rounded as ``sum(axis=1)`` rounds them."""
    pts = _batch(points, d)
    if d >= 8:  # numpy adds 8 or more terms pairwise, not left to right
        return pts.sum(axis=1)
    total = pts[:, 0].copy()
    for j in range(1, d):
        total += pts[:, j]
    return total


def as_points(points, d: int) -> np.ndarray:
    """``points`` as a float (m, d) array inside [0, 1]^d, or ValueError."""
    pts = _batch(points, d)
    if not ((pts >= 0.0) & (pts <= 1.0)).all():  # NaN fails too
        raise ValueError("points must lie in [0, 1]^d")
    return pts


@dataclass(frozen=True)
class Boxbslash:
    """Diagonal split function: sign of ``sum_j x_j - d/2``.

    Sign-valued and monotone; the split surface passes through the center of
    the cube, so half the volume maps to each sign.
    """

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be positive")

    def __call__(self, points) -> np.ndarray:
        s = _row_sums(points, self.d)
        s -= self.d / 2.0
        return np.where(s >= 0.0, 1.0, -1.0)


def boxbslash(d: int) -> Boxbslash:
    """Sign-valued monotone oracle ``sgn(sum_j x_j - d/2)`` with sgn(0) = +1."""
    return Boxbslash(d)


@dataclass(frozen=True, eq=False)
class StepFamily:
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

    def __call__(self, points) -> np.ndarray:
        columns = _batch(points, self.d).T
        code = np.zeros(columns.shape[1], dtype=np.intp)
        for column in columns:
            cell = (column * self.m).astype(np.intp)
            np.minimum(cell, self.m - 1, out=cell)
            code *= self.m
            code += cell
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
class LevelSetFunction:
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

    def __call__(self, points) -> np.ndarray:
        columns = _batch(points, self.d).T
        masks = np.zeros(columns.shape[1], dtype=np.intp)
        for column in columns[::-1]:  # Horner: coordinate j ends up at bit j
            masks <<= 1
            masks += column >= 0.5
        if self._values is not None:
            return self._values[masks]
        covered = (columns >= 0.5).sum(axis=0) > self.b
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
class Affine:
    """Smooth monotone ramp ``(2/d) * sum_j x_j - 1``, spanning [-1, 1]."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be positive")

    def __call__(self, points) -> np.ndarray:
        s = _row_sums(points, self.d)
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
        pts = _batch(points, self.d)
        scale = 1 << self.r
        cells = np.minimum((pts * scale).astype(np.int64), scale - 1)
        return eval_batch(self.oracle, (cells + 0.5) / scale)


def snap_to_grid(oracle, d: int, r: int):
    """Piecewise-constant version of an oracle on the resolution-r dyadic grid.

    Every point is evaluated at the midpoint of its cell.  Monotonicity is
    preserved because cell midpoints are ordered like the cells themselves.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _Snapped(oracle, d, r)


def lattice_blocks(coords, d: int):
    """Yield ``(index, points)``: the lattice ``coords**d`` in C order, block by block.

    A block is the sub-lattice of the trailing ``t`` axes, ``t >= 1`` the
    largest with ``len(coords)**t <= LATTICE_BLOCK``, at the leading
    coordinates ``coords[index]``: ``values[index]`` of the lattice's value
    array.  ``points`` is one buffer; only its leading columns change.
    """
    coords = np.asarray(coords, dtype=float)
    size = len(coords)
    t = 1
    while t < d and size ** (t + 1) <= LATTICE_BLOCK:
        t += 1
    points = np.empty((size**t, d))
    for j in range(t):
        points.reshape(size**j, size, size ** (t - 1 - j), d)[..., d - t + j] = coords[:, None]
    for index in np.ndindex(*(size,) * (d - t)):
        points[:, : d - t] = coords[list(index)]
        yield index, points


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
    violation is found.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    check_budget(resolution**d, budget, what="lattice points")
    values = np.empty((resolution,) * d)
    for index, points in lattice_blocks((np.arange(resolution) + 0.5) / resolution, d):
        values[index] = eval_batch(oracle, points).reshape(values.shape[len(index) :])
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
