"""Sublinear expectations as maxima over finite families of discrete measures.

An :class:`UncertaintySet` holds finitely many finitely-supported joint laws
for a pair of random vectors (X, Y).  The sublinear expectation of a payoff f
is the maximum over the family of the ordinary expectation of f, which makes
every evaluation exact up to float rounding and therefore directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, EvaluationError, ValidationError

WEIGHT_TOL = 1e-12
MEAN_TOL = 1e-12
SYMMETRY_TOL = 1e-12


def _vec(v) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise ArgumentError(f"atom component must be a scalar or 1-d vector, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Atom:
    """One support point of a joint law: values (x, y) carried with weight p."""

    x: np.ndarray
    y: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "y", _vec(self.y))
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure on (x, y) pairs.

    Weights are renormalized at construction when they sum to 1 within
    ``WEIGHT_TOL``; anything further off is left untouched so that
    :func:`validate` can report it.  Renormalized weights sum to exactly 1
    (the largest absorbs the rounding residual), so constructing a measure
    from another's weights, as a text round trip does, changes nothing.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        atoms = tuple(a if isinstance(a, Atom) else Atom(*a) for a in self.atoms)
        s = math.fsum(a.p for a in atoms)
        if atoms and abs(s - 1.0) <= WEIGHT_TOL and s != 1.0:
            ps = [a.p / s for a in atoms]
            big = max(range(len(ps)), key=ps.__getitem__)
            for _ in range(4):
                residual = 1.0 - math.fsum(ps)
                if residual == 0.0:
                    break
                ps[big] += residual
            atoms = tuple(Atom(a.x, a.y, p) for a, p in zip(atoms, ps))
        object.__setattr__(self, "atoms", atoms)

    @property
    def xs(self) -> np.ndarray:
        return np.array([a.x for a in self.atoms])

    @property
    def ys(self) -> np.ndarray:
        return np.array([a.y for a in self.atoms])

    @property
    def ps(self) -> np.ndarray:
        return np.array([a.p for a in self.atoms])

    def expect(self, f) -> float:
        """Ordinary expectation of f(x, y) under this measure."""
        total = 0.0
        for k, a in enumerate(self.atoms):
            v = float(f(a.x, a.y))
            if not math.isfinite(v):
                raise EvaluationError(
                    f"payoff returned {v!r} at atom {k} (x={a.x.tolist()}, y={a.y.tolist()}, p={a.p})"
                )
            total += a.p * v
        return total


@dataclass(frozen=True)
class UncertaintySet:
    """A finite family of discrete measures sharing one dimension d."""

    measures: tuple[DiscreteMeasure, ...]
    d: int = field(default=0)

    def __post_init__(self):
        measures = tuple(
            m if isinstance(m, DiscreteMeasure) else DiscreteMeasure(tuple(m)) for m in self.measures
        )
        object.__setattr__(self, "measures", measures)
        d = self.d
        if d == 0 and measures and measures[0].atoms:
            d = measures[0].atoms[0].x.size
        object.__setattr__(self, "d", int(d))

    def no_mean_uncertainty(self) -> bool:
        """True iff every measure gives X a mean within ``MEAN_TOL`` of zero per component."""
        for m in self.measures:
            mean = m.ps @ m.xs
            if np.any(np.abs(mean) > MEAN_TOL):
                return False
        return True

    def atom_arrays(self):
        """Per-measure (xs, ys, ps) arrays for vectorized shifting, built anew on every call."""
        return [(m.xs, m.ys, m.ps) for m in self.measures]


def sublinear_expect(u: UncertaintySet, f) -> float:
    """Max over the family of the exact weighted atom sum of f(x, y)."""
    if not u.measures:
        raise ValidationError(["uncertainty set has no measures"])
    return max(m.expect(f) for m in u.measures)


def moment(u: UncertaintySet, which: str, p: float) -> float:
    """Absolute moment of the selected component: max over measures of E|X|^p or E|Y|^p."""
    if p <= 0:
        raise ArgumentError(f"moment order must be positive, got {p}")
    if which not in ("X", "Y"):
        raise ArgumentError(f"moment selector must be 'X' or 'Y', got {which!r}")
    if which == "X":
        return sublinear_expect(u, lambda x, y: np.linalg.norm(x) ** p)
    return sublinear_expect(u, lambda x, y: np.linalg.norm(y) ** p)


def g_function(u: UncertaintySet, p, A) -> float:
    """The generating nonlinearity: max over measures of E[<p,Y> + 1/2 <AX,X>]."""
    pv = _vec(p)
    Am = np.atleast_2d(np.asarray(A, dtype=float))
    if Am.shape != (u.d, u.d):
        raise ArgumentError(f"A must be {u.d}x{u.d}, got {Am.shape}")
    if np.max(np.abs(Am - Am.T), initial=0.0) > SYMMETRY_TOL:
        raise ArgumentError("A must be symmetric within 1e-12")
    return sublinear_expect(u, lambda x, y: float(pv @ y + 0.5 * x @ Am @ x))


@dataclass(frozen=True)
class MomentReport:
    """All moments the error-constant formulas consume, plus structure flags.

    ``sigma_lower_sq`` is the lower second moment -max over measures of
    -E|X|^2, i.e. the smallest variance the family admits.
    """

    m_x2: float
    m_x3: float
    m_x4: float
    m_x_2plusalpha: float
    alpha: float
    m_y1: float
    m_y2: float
    sigma_lower_sq: float
    no_mean_uncertainty: bool
    d: int


def validate(u: UncertaintySet, alpha: float = 1.0) -> MomentReport:
    """Check every structural invariant and compute the moment report.

    Raises :class:`ValidationError` listing all violations at once.  ``alpha``
    selects the fractional moment order 2+alpha; the constants that need it
    treat alpha as a user-supplied exponent.
    """
    violations = []
    if not u.measures:
        violations.append("uncertainty set has no measures")
    if not (0 < alpha <= 1):
        raise ArgumentError(f"alpha must be in (0, 1], got {alpha}")
    for i, m in enumerate(u.measures):
        if not m.atoms:
            violations.append(f"measure {i} has no atoms")
            continue
        s = math.fsum(a.p for a in m.atoms)
        if abs(s - 1.0) > WEIGHT_TOL:
            violations.append(f"measure {i} weights sum to {s!r}, not 1 within {WEIGHT_TOL}")
        for k, a in enumerate(m.atoms):
            if a.p < 0:
                violations.append(f"measure {i} atom {k} has negative weight {a.p}")
            if a.x.size != u.d or a.y.size != u.d:
                violations.append(
                    f"measure {i} atom {k} has dimension ({a.x.size}, {a.y.size}), expected {u.d}"
                )
            if not (np.all(np.isfinite(a.x)) and np.all(np.isfinite(a.y)) and math.isfinite(a.p)):
                violations.append(f"measure {i} atom {k} has non-finite entries")
    if violations:
        raise ValidationError(violations)

    m_x2 = moment(u, "X", 2)
    return MomentReport(
        m_x2=m_x2,
        m_x3=moment(u, "X", 3),
        m_x4=moment(u, "X", 4),
        m_x_2plusalpha=moment(u, "X", 2 + alpha),
        alpha=alpha,
        m_y1=moment(u, "Y", 1),
        m_y2=moment(u, "Y", 2),
        sigma_lower_sq=min(m.expect(lambda x, y: float(x @ x)) for m in u.measures),
        no_mean_uncertainty=u.no_mean_uncertainty(),
        d=u.d,
    )


def to_text(u: UncertaintySet) -> str:
    """Serialize to the plain-text measure format.

    Header line ``d=<int> measures=<int>``, then one line per atom:
    ``measure_index x_1..x_d y_1..y_d p`` with 17-significant-digit floats.
    """
    lines = [f"d={u.d} measures={len(u.measures)}"]
    for i, m in enumerate(u.measures):
        for a in m.atoms:
            nums = [*a.x.tolist(), *a.y.tolist(), a.p]
            lines.append(" ".join([str(i)] + [format(v, ".17g") for v in nums]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> UncertaintySet:
    """Parse the plain-text measure format produced by :func:`to_text`.

    Malformed input raises :class:`ArgumentError` naming the 1-based line.
    """
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise ArgumentError("empty measure file")
    head_no, head = lines[0]
    try:
        header = dict(part.split("=") for part in head.split())
        d = int(header["d"])
        n_measures = int(header["measures"])
    except (KeyError, ValueError) as exc:
        raise ArgumentError(f"line {head_no}: bad measure-file header {head!r}") from exc
    if d < 1 or n_measures < 1:
        raise ArgumentError(f"line {head_no}: header needs d >= 1 and measures >= 1, got {head!r}")
    # filled as atom lines arrive, so a huge declared count allocates nothing
    groups: dict[int, list[Atom]] = {}
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + 2 * d + 1:
            raise ArgumentError(
                f"line {no}: bad atom line {ln!r}: expected {1 + 2 * d + 1} fields"
            )
        try:
            idx = int(parts[0])
            vals = [float(s) for s in parts[1:]]
        except ValueError as exc:
            raise ArgumentError(f"line {no}: bad atom line {ln!r}: {exc}") from exc
        if not 0 <= idx < n_measures:
            raise ArgumentError(
                f"line {no}: atom line references measure {idx}, header declared {n_measures}"
            )
        groups.setdefault(idx, []).append(Atom(vals[:d], vals[d : 2 * d], vals[2 * d]))
    if len(groups) < n_measures:
        raise ArgumentError(
            f"line {head_no}: header declares {n_measures} measures, "
            f"{n_measures - len(groups)} of them have no atoms"
        )
    return UncertaintySet(tuple(DiscreteMeasure(tuple(groups[i])) for i in range(n_measures)), d=d)


def save_measures(u: UncertaintySet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(u))


def load_measures(path) -> UncertaintySet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ArgumentError(f"measure file {path} is not UTF-8 text: {exc}") from exc
    return from_text(text)
