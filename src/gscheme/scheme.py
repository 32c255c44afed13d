"""Recursive solvers for the sublinear one-step operator.

The core update is ``psi -> E-hat[ psi(x + sqrt(delta) X + delta Y) ]`` applied
once per time step.  Two backends realize it:

* a uniform spatial grid with monotone piecewise-linear interpolation and
  clamp-constant extrapolation (general, scales to d <= 3).  Every atom moves
  every node by the same vector, so on the nodes the lookup is a fixed
  2^d-tap stencil (``GridStencil``) applied as whole-array slices.  Each
  atom's moves (per axis its slices, fraction and face fills) are built
  once per solve, and each step takes the level's last-axis difference
  once for every atom to read; off-grid queries go through
  ``GridFunction.interp``.  ``solve_grid(keep='last')`` streams the levels
  through two arrays; and
* an exact recombining lattice whose nodes are the distinct reachable
  positions (interpolation-free; displacements that are whole multiples of
  one quantum give one integer interval of nodes per level).

Both, and ``forward_values`` off the grid, share one kernel, ``_sublinear_step``;
they differ only in how an atom reads the previous level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ArgumentError,
    ConfigurationError,
    EvaluationError,
    ResourceLimitError,
)
from .uncertainty import UncertaintySet, validate

LOWER_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class InitialData:
    """Initial condition descriptor: vectorized callable plus the regularity data
    the analysis layer needs (lower bound, Holder constant and exponent)."""

    name: str
    fn: object
    lower_bound: float
    c_phi: float | None = None
    beta: float = 1.0

    def __call__(self, points):
        return np.asarray(self.fn(points), dtype=float)


@dataclass(frozen=True)
class SchemeConfig:
    """Time step, horizon and spatial grid for the interpolating backend."""

    delta: float
    horizon: float
    grid_lo: tuple[float, ...]
    grid_hi: tuple[float, ...]
    grid_n: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.grid_lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.grid_hi))
        n = tuple(int(v) for v in np.atleast_1d(self.grid_n))
        object.__setattr__(self, "grid_lo", lo)
        object.__setattr__(self, "grid_hi", hi)
        object.__setattr__(self, "grid_n", n)
        if not (0 < self.delta <= 1):
            raise ArgumentError(f"delta must lie in (0, 1], got {self.delta}")
        if not (self.delta <= self.horizon < math.inf):
            raise ArgumentError(f"horizon {self.horizon} must be finite and >= delta {self.delta}")
        if not (len(lo) == len(hi) == len(n)):
            raise ArgumentError("grid_lo, grid_hi, grid_n must share one length")
        if len(lo) > 3:
            raise ArgumentError("grid backend supports at most d = 3")
        if not all(-math.inf < a < b < math.inf for a, b in zip(lo, hi)):
            raise ArgumentError("grid_lo must be finite and strictly below finite grid_hi")
        if any(k < 2 for k in n):
            raise ArgumentError("grid_n must be at least 2 per axis")

    @property
    def d(self) -> int:
        return len(self.grid_lo)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        out = []
        for lo, hi, n in zip(self.grid_lo, self.grid_hi, self.grid_n):
            ax = np.linspace(lo, hi, n)
            ax.setflags(write=False)
            out.append(ax)
        return tuple(out)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.grid_lo, self.grid_hi, self.grid_n)
        )

    @cached_property
    def _flat_nodes(self) -> np.ndarray:
        if self.d == 1:
            return self.axes[0]
        mesh = np.meshgrid(*self.axes, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=-1)
        out.setflags(write=False)
        return out

    def nodes(self) -> np.ndarray:
        """All grid nodes: shape (N,) for d=1, else (N, d) in C order."""
        return self._flat_nodes


def _as_points(points, d: int) -> np.ndarray:
    """Query points as an (N, d) array.  A scalar or a flat sequence holds N
    points when d = 1 and one point otherwise; any other width is an error."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape((-1, 1) if d == 1 else (1, -1))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ArgumentError(f"query points need {d} coordinates each, got shape {pts.shape}")
    return pts


def _cell(t: np.ndarray, lo: float, h: float, n: int):
    """Node index in [0, n-1] and fraction in [0, 1) of coordinates t on the
    uniform axis lo + k*h, k = 0..n-1, after the snap and the clamp.  A query
    at or beyond the upper face gets index n-1 and fraction 0."""
    t = (t - lo) / h
    # snap queries that are a rounding error away from a node onto it
    nearest = np.rint(t)
    snap = np.abs(t - nearest) < 1e-9
    t[snap] = nearest[snap]
    np.clip(t, 0.0, n - 1.0, out=t)
    i = t.astype(np.int64)
    return i, t - i


def _offset(s: float, h: float) -> tuple[int, float]:
    """Whole cells k and fraction f in [0, 1) of a shift s on an axis of
    spacing h, with the snap of ``_cell``."""
    t = s / h
    nearest = round(t)
    if abs(t - nearest) < 1e-9:
        t = float(nearest)
    k = math.floor(t)
    return k, t - k


class _Move(NamedTuple):
    """One atom's read along one axis, the values at index i + k + f of every
    node i, written into ``out``.  ``dst`` is the view of ``out`` on the nodes
    whose query stays in the box; ``base`` and ``upper`` index their two
    neighbours in the source; ``fills`` pairs each view of ``out`` past a face
    with the index of that face in the source.  A ``shared`` move reads the
    source's difference along the last axis instead of subtracting."""

    out: np.ndarray
    dst: np.ndarray
    base: tuple
    upper: tuple
    f: np.ndarray
    fills: tuple
    shared: bool


def _axis_move(out: np.ndarray, axis: int, k: int, f: float, shared: bool) -> _Move:
    """The move by k whole cells and fraction f along ``axis``, written into ``out``."""
    n = out.shape[axis]
    # nodes i in [lo, hi) look up inside [0, n-1]; below lo the query is
    # under the lower face, from hi on it is past the upper face
    lo = min(max(-k, 0), n)
    hi = max(min(n - k - (f > 0), n), lo)
    pre = (slice(None),) * axis
    fills = []
    if lo:
        fills.append((out[pre + (slice(0, lo),)], pre + (slice(0, 1),)))
    if hi < n:
        fills.append((out[pre + (slice(hi, n),)], pre + (slice(n - 1, n),)))
    # f as a 0-d array, which numpy takes faster than a scalar operand; a
    # move with f = 0 copies, since a + 0*d would turn -0.0 into 0.0
    return _Move(out, out[pre + (slice(lo, hi),)], pre + (slice(lo + k, hi + k),),
                 pre + (slice(lo + k + 1, hi + k + 1),), np.array(f), tuple(fills),
                 shared and f > 0)


def _shift_axis(v: np.ndarray, move: _Move, diff: np.ndarray) -> np.ndarray:
    """Write into ``move.out`` the values of ``v`` at index i + k + f along the
    move's axis: ``v[i+k] + f*(v[i+k+1] - v[i+k])`` where that lies in the box,
    the face value beyond either face (clamp-constant).  A shared move takes
    ``v[i+k+1] - v[i+k]`` from ``diff``, v's difference along the last axis."""
    dst = move.dst
    a = v[move.base]
    if move.shared:
        np.multiply(diff[move.base], move.f, dst)
        dst += a
    elif move.f > 0:
        np.subtract(v[move.upper], a, dst)
        dst *= move.f
        dst += a
    else:
        dst[...] = a
    for to, face in move.fills:
        to[...] = v[face]
    return move.out


@dataclass(frozen=True)
class GridFunction:
    """Values of one time level on the grid.  Snapshots are immutable."""

    config: SchemeConfig
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.config.grid_n:
            raise ArgumentError(f"values shape {v.shape} does not match grid {self.config.grid_n}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, config: SchemeConfig, values: np.ndarray) -> GridFunction:
        """Wrap a freshly computed array of the grid's shape without copying it;
        the caller must hold no other reference that writes to it."""
        obj = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(obj, "config", config)
        object.__setattr__(obj, "values", values)
        return obj

    def interp(self, points) -> np.ndarray:
        """Piecewise-(multi)linear interpolation with clamp-constant extrapolation.

        The grid is uniform per axis, so each query's cell index and fraction
        are computed directly (queries within 1e-9 cells of a node snap onto
        it; queries outside the box clamp to its face and return the face
        node's value exactly).  The 2^d cell corners are reduced by the
        convex two-tap form ``v[i] + frac * (v[i+1] - v[i])`` one axis at a
        time, last axis first, so no result can overshoot the surrounding
        node values.  ``points`` is laid out as ``_as_points`` reads it.  On
        the grid's own nodes ``GridStencil`` does the same lookup by slices.
        """
        cfg = self.config
        pts = _as_points(points, cfg.d)
        corners = np.zeros((1, pts.shape[0]), dtype=np.int64)
        fracs = []
        for axis in range(cfg.d):
            n = cfg.grid_n[axis]
            stride = math.prod(cfg.grid_n[axis + 1:])
            i, frac = _cell(pts[:, axis], cfg.grid_lo[axis], cfg.spacing[axis], n)
            corners = corners + i * stride
            # the upper corner of a query on the upper face is the face node;
            # corners in C order: the last axis varies fastest
            step = np.where(i < n - 1, stride, 0)
            corners = np.stack([corners, corners + step], axis=1)
            corners = corners.reshape(2 * len(corners), len(pts))
            fracs.append(frac)
        corners = self.values.ravel()[corners]
        for frac in reversed(fracs):
            lo, hi = corners[0::2], corners[1::2]
            corners = lo + frac * (hi - lo)
        return corners[0]


def reachable_halfwidth(u: UncertaintySet, horizon: float) -> float:
    """Half-width of a grid centred on its evaluation point that holds the reachable
    cone: drift horizon * max|Y|, four spreads sqrt(horizon) * max|X|, margin 1e-6."""
    if not (0 < horizon < math.inf):
        raise ArgumentError(f"horizon must be positive and finite, got {horizon}")
    max_x, max_y = _atom_extent(u)
    return horizon * max_y + math.sqrt(horizon) * max_x * 4.0 + 1e-6


def _atom_extent(u: UncertaintySet) -> tuple[float, float]:
    """max|X| and max|Y| over every atom of the family."""
    return (max(float(np.max(np.abs(m.xs), initial=0.0)) for m in u.measures),
            max(float(np.max(np.abs(m.ys), initial=0.0)) for m in u.measures))


def _shifts(u: UncertaintySet, delta: float):
    """Per measure, its atoms' (k, d) shifts sqrt(delta)X + delta*Y and their weights."""
    if not u.measures:
        raise ConfigurationError("uncertainty set has no measures")
    root = math.sqrt(delta)
    out = []
    for xs, ys, ps in u.atom_arrays():
        shift = root * xs + delta * ys
        if not np.all(np.isfinite(shift)):
            raise EvaluationError("atom displacement is non-finite")
        out.append((shift, ps))
    return out


def _sublinear_step(measures, look, out, acc, tmp) -> np.ndarray:
    """Write into ``out`` the max over measures (keys, weights) of sum_a w_a * look(key_a).

    ``look(key)`` reads the previous level through one atom: a stencil lookup,
    an interpolation or a lattice level's children.  Measures after the first
    sum in ``acc``; ``tmp`` holds a weighted term and may be what ``look`` returns.
    """
    for j, (keys, weights) in enumerate(measures):
        total = out if j == 0 else acc
        for a, (key, w) in enumerate(zip(keys, weights)):
            if a == 0:
                np.multiply(look(key), w, out=total)
            else:
                total += np.multiply(look(key), w, out=tmp)
        if j:
            np.maximum(out, total, out=out)
    return out


def forward_values(u: UncertaintySet, cfg: SchemeConfig, prev: GridFunction, points) -> np.ndarray:
    """One-step operator evaluated at arbitrary query points.

    Each atom shifts every query point at once and the previous level is
    interpolated there; ``_sublinear_step`` sums and maximizes.
    """
    pts = _as_points(points, cfg.d)
    out, acc, tmp = (np.empty(pts.shape[0]) for _ in range(3))
    return _sublinear_step(_shifts(u, cfg.delta), lambda s: prev.interp(pts + s), out, acc, tmp)


class GridStencil:
    """The one-step operator on the nodes of a uniform grid.

    An atom with shift s moves every node by s, so its lookup is the same
    2^d-tap stencil at every node: per axis, k = floor(s/h) whole cells and a
    fraction f (snapped as in ``GridFunction.interp``).  Each atom's moves,
    the index tuples of ``v[i+k] + f*(v[i+k+1] - v[i+k])`` one axis at a
    time, last axis first, are built once here; nodes whose query leaves the
    box take the face value, which is the clamp-constant rule.  Each step
    takes the level's last-axis difference once, and every atom's first move
    along that axis reads it rather than subtracting again; later axes read
    an intermediate array and subtract there.  ``_sublinear_step`` sums each
    measure's weighted lookups and takes the family maximum.  The operator
    owns its scratch arrays, so one instance serves one solve.
    """

    def __init__(self, u: UncertaintySet, cfg: SchemeConfig):
        if u.d != cfg.d:
            raise ArgumentError(f"family has d = {u.d} but the grid has d = {cfg.d}")
        self.config = cfg
        self._acc, self._look, self._spare = (np.empty(cfg.grid_n) for _ in range(3))
        self._diff = np.empty(cfg.grid_n[:-1] + (cfg.grid_n[-1] - 1,))
        # weights as 0-d arrays too (see _axis_move)
        self.measures = [([self.moves(row) for row in shifts], list(map(np.array, ps)))
                         for shifts, ps in _shifts(u, cfg.delta)]

    def moves(self, shift) -> tuple[_Move, ...]:
        """One shift vector's moves, last axis first, skipping the axes it
        leaves in place; they write the two scratch arrays in turn."""
        cfg = self.config
        out = []
        for axis in reversed(range(cfg.d)):
            k, f = _offset(float(shift[axis]), cfg.spacing[axis])
            if k or f:
                buf = (self._look, self._spare)[len(out) % 2]
                out.append(_axis_move(buf, axis, k, f, shared=axis == cfg.d - 1))
        return tuple(out)

    def lookup(self, v: np.ndarray, diff: np.ndarray, moves) -> np.ndarray:
        """Values of v at every node moved by one atom's moves; ``diff`` is
        ``v[..., 1:] - v[..., :-1]``.

        Returns v itself for a zero shift, else one of the scratch arrays,
        which the next call overwrites.
        """
        for move in moves:
            v = _shift_axis(v, move, diff)
        return v

    def __call__(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the one-step operator applied to level v into ``out``."""
        diff = np.subtract(v[..., 1:], v[..., :-1], out=self._diff)
        return _sublinear_step(self.measures, lambda moves: self.lookup(v, diff, moves), out,
                               self._acc, self._look)


def forward_operator(u: UncertaintySet, cfg: SchemeConfig, psi: GridFunction) -> GridFunction:
    """Apply the one-step operator on every grid node."""
    out = GridStencil(u, cfg)(psi.values, np.empty_like(psi.values))
    return GridFunction._adopt(cfg, out)


def scheme_residual(u: UncertaintySet, cfg: SchemeConfig, x, p: float, v: GridFunction) -> float:
    """Residual of the monotone scheme at one node: (p - one-step value at x) / delta."""
    sv = forward_values(u, cfg, v, x)
    return (p - float(sv[0])) / cfg.delta


@dataclass
class SchemeSolution:
    """The time levels one solve kept, plus the piecewise-constant query rule.

    ``steps[j]`` is level ``first_step + j``: a solve with ``keep='all'``
    holds every level from 0, one with ``keep='last'`` only the final one.
    """

    config: SchemeConfig
    family: UncertaintySet
    phi: InitialData
    steps: list[GridFunction]
    first_step: int = 0

    @property
    def n_steps(self) -> int:
        return self.first_step + len(self.steps) - 1

    def step_index(self, t: float) -> int:
        """Index of the level governing time t: constant on [n*delta, (n+1)*delta)."""
        if t < 0 or t > self.config.horizon + 1e-12:
            raise ArgumentError(f"time {t} outside [0, {self.config.horizon}]")
        n = int(math.floor(t / self.config.delta + 1e-9))
        return min(n, self.n_steps)

    def at(self, t: float) -> GridFunction:
        n = self.step_index(t)
        if n < self.first_step:
            raise ArgumentError(
                f"level {n} was not kept (levels {self.first_step}..{self.n_steps} are); "
                "solve with keep='all'"
            )
        return self.steps[n - self.first_step]

    def value_at(self, t: float, x) -> float:
        return float(self.at(t).interp(x)[0])

    def dump_csv(self, path) -> None:
        """Per-step rows ``t,x_1..x_d,value`` for every grid node of every kept level."""
        cfg = self.config
        cols = ",".join(f"x_{i+1}" for i in range(cfg.d))
        nodes = _as_points(cfg.nodes(), cfg.d)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"t,{cols},value\n")
            for n, step in enumerate(self.steps, start=self.first_step):
                t = n * cfg.delta
                vals = step.values.ravel()
                for i in range(vals.size):
                    xrow = ",".join(format(c, ".17g") for c in nodes[i])
                    fh.write(f"{format(t, '.17g')},{xrow},{format(vals[i], '.17g')}\n")


def solve_grid(
    u: UncertaintySet, cfg: SchemeConfig, phi: InitialData, keep: str = "all"
) -> SchemeSolution:
    """Run the recursion from phi for floor(horizon/delta) steps on the grid.

    Every step is one application of ``GridStencil``.  ``keep='all'`` holds
    every level; ``keep='last'`` alternates two preallocated arrays and keeps
    only the final level, so the solve holds a fixed handful of levels
    whatever its step count.  Requires a family without mean uncertainty in
    X; a trailing partial interval is left frozen at the last completed level.
    """
    if keep not in ("all", "last"):
        raise ArgumentError(f"keep must be 'all' or 'last', got {keep!r}")
    report = validate(u)
    if not report.no_mean_uncertainty:
        raise ConfigurationError(
            "family has mean uncertainty in X; the recursion requires E[X] = 0 under every measure"
        )
    vals = phi(cfg.nodes())
    if vals.size != math.prod(cfg.grid_n):
        raise EvaluationError(f"initial data gave {vals.size} values for grid {cfg.grid_n}")
    vals = vals.reshape(cfg.grid_n)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("initial data evaluated non-finite on the grid")
    floor = phi.lower_bound - LOWER_BOUND_SLACK
    if float(np.min(vals)) < floor:
        raise EvaluationError(
            f"initial data dips below its declared lower bound {phi.lower_bound}"
        )
    first = GridFunction(cfg, vals)
    step = GridStencil(u, cfg)
    n_steps = int(math.floor(cfg.horizon / cfg.delta + 1e-9))

    def checked(level):
        if float(np.min(level)) < floor:
            raise EvaluationError("solver output violated the lower bound of the initial data")
        return level

    if keep == "all":
        steps = [first]
        for _ in range(n_steps):
            out = checked(step(steps[-1].values, np.empty_like(first.values)))
            steps.append(GridFunction._adopt(cfg, out))
        return SchemeSolution(cfg, u, phi, steps)
    cur, nxt = first.values.copy(), np.empty_like(first.values)
    for _ in range(n_steps):
        cur, nxt = checked(step(cur, nxt)), cur
    last = GridFunction._adopt(cfg, cur)
    return SchemeSolution(cfg, u, phi, [last], first_step=n_steps)


@dataclass(frozen=True)
class LatticeState:
    """Values on the distinct positions reachable from x0 in ``step`` steps.

    ``positions`` has shape (N, d) and is sorted lexicographically; row i is
    the float sum ``x0 + z_1 + ... + z_step`` along one path reaching node i
    (paths whose sums differ only by rounding share the node), and
    ``values[i]`` is the recursion's value there.
    """

    x0: np.ndarray
    displacements: np.ndarray
    step: int
    positions: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LatticeResult:
    value: float
    levels: tuple[LatticeState, ...] | None = None


def _distinct_displacements(u: UncertaintySet, delta: float):
    """Distinct displacement vectors of ``_shifts`` and per-measure (index, weight) tables."""
    seen: dict[tuple, int] = {}
    tables = []
    for shift, ps in _shifts(u, delta):
        idx = [seen.setdefault(tuple(row.tolist()), len(seen)) for row in np.atleast_2d(shift)]
        tables.append((np.array(idx), ps))
    return np.array(list(seen)), tables


# Sums reaching one position by different paths differ by ~n * 1e-16 of the
# lattice's extent; positions nearer than this fraction of it are one node.
MERGE_RTOL = 1e-9


def _merge_positions(cand: np.ndarray, tol: float):
    """Group candidate positions (rows of ``cand``) that agree within tol on every axis.

    Returns each candidate's node number, nodes numbered in lexicographic
    order, and the index of one candidate per node.
    """
    labels = np.zeros(cand.shape[0], dtype=np.intp)
    for axis in range(cand.shape[1]):
        order = np.lexsort((cand[:, axis], labels))
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.greater(np.diff(cand[order, axis]), tol, out=new[1:])
        new[1:] |= labels[order[1:]] != labels[order[:-1]]
        labels[order] = np.cumsum(new) - 1
    return labels, order[new]


def solve_lattice(
    u: UncertaintySet,
    delta: float,
    n_steps: int,
    x0,
    phi: InitialData,
    node_cap: int = 2_000_000,
    keep_levels: bool = False,
) -> LatticeResult:
    """Exact backward recursion over the distinct reachable positions.

    Level j+1 holds the distinct sums p + z over the nodes p of level j and
    the distinct displacements z.  The leaves evaluate phi at their summed
    positions; each backward step takes, per displacement, the child values
    by one slice (or one gather where the children are not contiguous) and
    hands them to ``_sublinear_step``, which writes into two buffers sized
    to the widest level in turn.  No interpolation is involved, so the
    result realizes the recursion exactly at x0.

    Raises ResourceLimitError when a level would hold more than ``node_cap``
    nodes, or when a family over the cap by its multiset count needs more
    than ``2 * node_cap`` candidate sums and held child indices.
    """
    if n_steps < 1:
        raise ArgumentError("n_steps must be at least 1")
    if not (0 < delta <= 1):
        raise ArgumentError(f"delta must lie in (0, 1], got {delta}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    disp, tables = _distinct_displacements(u, delta)
    m, d = disp.shape
    if x0.shape != (d,):
        raise ArgumentError(f"x0 must have {d} coordinates, got {x0.size}")
    tol = MERGE_RTOL * (float(np.max(np.abs(x0))) + n_steps * float(np.max(np.abs(disp))))

    # the multiset count bounds every level; a lattice it does not clear is
    # held to the budget, which bounds the memory spent before a refusal
    budget = math.inf if math.comb(n_steps + m - 1, n_steps) <= node_cap else 2 * node_cap
    held = 0

    # forward: node positions per level and, per displacement, where each
    # node's child sits in the next level (a slice when contiguous)
    pos = x0[None, :]
    positions = [pos]
    links = []
    for j in range(1, n_steps + 1):
        size = pos.shape[0]
        if held + m * size > budget:
            raise ResourceLimitError(
                f"lattice level {j} of {n_steps} would need {held + m * size} candidate "
                f"sums and held child indices (> 2 x cap {node_cap}); use the grid backend"
            )
        cand = (disp[:, None, :] + pos[None, :, :]).reshape(-1, d)
        label, first = _merge_positions(cand, tol)
        if first.size > node_cap:
            raise ResourceLimitError(
                f"lattice level {j} of {n_steps} already holds {first.size} nodes "
                f"(> cap {node_cap}); use the grid backend"
            )
        children = label.reshape(m, size)
        contiguous = (np.diff(children, axis=1) == 1).all(axis=1)
        links.append((size, [slice(c[0], c[0] + size) if ok else c
                             for c, ok in zip(children, contiguous)]))
        held += size * int(np.count_nonzero(~contiguous))
        pos = cand[first]
        if keep_levels:
            positions.append(pos)

    vals = np.atleast_1d(phi(pos[:, 0] if d == 1 else pos))
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("initial data evaluated non-finite on the lattice")
    levels = [LatticeState(x0, disp, n_steps, pos, vals)] if keep_levels else None
    widest = max(size for size, _ in links)
    ping, pong, acc, tmp = (np.empty(widest) for _ in range(4))
    for j in range(n_steps - 1, -1, -1):
        size, refs = links[j]
        child = [vals[r] for r in refs]
        out = (ping, pong)[j % 2][:size]
        vals = _sublinear_step(tables, child.__getitem__, out, acc[:size], tmp[:size])
        if keep_levels:
            levels.append(LatticeState(x0, disp, j, positions[j], vals.copy()))
    return LatticeResult(float(vals[0]), tuple(levels) if keep_levels else None)
