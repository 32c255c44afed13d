"""Executable checks: axiom suite, discrete comparison principle, regularity
moduli and convergence-order fitting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, PreconditionError
from .scheme import GridStencil, SchemeSolution
from .uncertainty import Atom, DiscreteMeasure, UncertaintySet, sublinear_expect

SLOPE_SLACK = 0.15
# how far a residual may pass h1 or h2 before check_comparison's precondition fails
PRECONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentRow:
    resolution: float
    error: float
    bound: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """A resolution/error/bound table with its fitted log-log slope."""

    rows: tuple[ExperimentRow, ...]
    fitted_slope: float
    fitted_intercept: float
    passed: bool
    label: str = ""

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.rows])

    def resolutions(self) -> np.ndarray:
        return np.array([r.resolution for r in self.rows])


def fit_rate(pairs, target: float | None = None, slack: float = SLOPE_SLACK,
             label: str = "") -> ExperimentResult:
    """Least-squares slope of log error against log resolution.

    Rows with error below 1e-14 are excluded from the fit (they sit at float
    noise).  With a ``target``, the check passes when slope >= target - slack;
    if every error is at noise level the check passes outright.
    """
    pairs = [(float(r), abs(float(e))) for r, e in pairs]
    if len(pairs) < 3:
        raise ArgumentError("need at least 3 (resolution, error) pairs")
    if len({r for r, _ in pairs}) != len(pairs):
        raise ArgumentError("resolutions must be distinct")
    pairs.sort(key=lambda p: -p[0])
    rows = tuple(ExperimentRow(r, e) for r, e in pairs)
    usable = [(r, e) for r, e in pairs if e > 1e-14]
    if len(usable) < 3:
        slope, intercept = 0.0, 0.0
        passed = True
    else:
        logr = np.log([r for r, _ in usable])
        loge = np.log([e for _, e in usable])
        slope, intercept = np.polyfit(logr, loge, 1)
        passed = True if target is None else bool(slope >= target - slack)
    return ExperimentResult(rows, float(slope), float(intercept), passed, label)


class Richardson(NamedTuple):
    """Extrapolated value, accuracy estimate, fitted order, non-contraction flag."""

    value: float | np.ndarray
    estimate: float
    order: float
    warning: bool


def richardson(v4, v2, v1) -> Richardson:
    """Extrapolate scalar or curve solves at time steps 4*delta, 2*delta, delta.

    The sup norms of d1 = v2 - v4 and d2 = v1 - v2 fit gamma = log2(|d1|/|d2|),
    and v1 + d2/(2^gamma - 1) is returned with the correction's sup norm as
    estimate (at least 1e-14 of max(|v1|, 1); 1e-13 of it, order nan, when both
    differences are below that).  If d2 = 0, |d2| >= |d1|, or d1 and d2 of
    scalars differ in sign, v1 is returned with the warning set; curves get no
    sign test, as their pointwise differences may mix signs while the sup norms
    contract.
    """
    d1, d2 = v2 - v4, v1 - v2
    a1, a2 = float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))
    scale = max(float(np.max(np.abs(v1))), 1.0)
    if a1 <= 1e-14 * scale and a2 <= 1e-14 * scale:
        return Richardson(v1, 1e-13 * scale, math.nan, False)
    order = math.log2(a1 / a2) if a1 > 0 and a2 > 0 else math.nan
    if a2 == 0 or a1 <= a2 or (np.ndim(d1) == 0 and (d1 > 0) != (d2 > 0)):
        return Richardson(v1, 3.0 * max(a1, a2), order, True)
    correction = d2 / (a1 / a2 - 1.0)
    return Richardson(v1 + correction, max(float(np.max(np.abs(correction))), 1e-14 * scale),
                      order, False)


def _residual_series(solution: SchemeSolution, step: GridStencil, n: int) -> np.ndarray:
    """Nodewise scheme residual of a solution at step n against step n-1."""
    prev = solution.steps[n - 1].values
    return (solution.steps[n].values - step(prev, np.empty_like(prev))) / solution.config.delta


def check_comparison(
    under: SchemeSolution,
    over: SchemeSolution,
    h1: float = 0.0,
    h2: float = 0.0,
    slack: float = 1e-9,
):
    """Discrete comparison check between a subsolution and a supersolution.

    First verifies the residual preconditions (under-residuals <= h1 and
    over-residuals >= h2, two real constants, on the strict interior time
    levels); then evaluates the conclusion inequality nodewise: the gap never
    exceeds its value on the initial strip plus t times the positive part of
    h1 - h2.  Returns (holds, max violation).
    """
    if not all(isinstance(h, numbers.Real) and math.isfinite(h) for h in (h1, h2)):
        raise ArgumentError(f"h1 and h2 must be finite real numbers, got {h1!r} and {h2!r}")
    h1, h2 = float(h1), float(h2)
    if under.config != over.config:
        raise ArgumentError("both solutions must share one grid configuration")
    if under.first_step or over.first_step:
        raise ArgumentError("the comparison check needs every level; solve with keep='all'")
    n_last = min(under.n_steps, over.n_steps)
    if n_last < 1:
        raise ArgumentError("solutions must contain at least one step")
    # interior levels are those strictly past the first interval; with
    # constant h, max(r - h) = max(r) - h exactly (rounding is monotone)
    interior = range(2, n_last + 1)
    under_step = GridStencil(under.family, under.config)
    over_step = GridStencil(over.family, over.config)
    for n in interior:
        excess = float(np.max(_residual_series(under, under_step, n))) - h1
        if excess > PRECONDITION_TOL:
            raise PreconditionError(
                f"under-solution residual exceeds h1 at step {n} by {excess:.3e}"
            )
        shortfall = float(np.min(_residual_series(over, over_step, n))) - h2
        if shortfall < -PRECONDITION_TOL:
            raise PreconditionError(
                f"over-solution residual undercuts h2 at step {n} by {-shortfall:.3e}"
            )
    strip = max(
        float(np.max(under.steps[n].values - over.steps[n].values)) for n in (0, min(1, n_last))
    )
    strip = max(strip, 0.0)
    h_gap = max(h1 - h2, 0.0) if interior else 0.0
    worst = -math.inf
    for n in range(0, n_last + 1):
        t = n * under.config.delta
        lhs = under.steps[n].values - over.steps[n].values
        worst = max(worst, float(np.max(lhs - (strip + t * h_gap))))
    return worst <= slack, worst


@dataclass(frozen=True)
class ModulusReport:
    kind: str
    measured: float
    stated: float
    slack: float
    passed: bool


def estimate_modulus(
    solution: SchemeSolution,
    kind: str,
    c_phi: float,
    beta: float = 1.0,
    k0: float | None = None,
    x_window: tuple[float, float] | None = None,
    time_exponent: float | None = None,
    stated: float | None = None,
) -> ModulusReport:
    """Smallest multiplier that makes the regularity inequality hold on the data.

    ``kind='space'`` scans same-level node pairs against |x - y|^beta;
    ``kind='time'`` scans level pairs at fixed nodes against
    |s - t|^q + delta^q with q = beta/2 by default.  The pass threshold is the
    stated constant plus an interpolation-slack proportional to the spacing.
    """
    cfg = solution.config
    if cfg.d != 1:
        raise ArgumentError("modulus estimation is implemented for d = 1")
    xs = cfg.axes[0]
    mask = np.ones(xs.size, dtype=bool)
    if x_window is not None:
        mask = (xs >= x_window[0]) & (xs <= x_window[1])
    xs = xs[mask]
    h = cfg.spacing[0]
    grid_slack = 2.0 * h**beta * c_phi

    if kind == "space":
        dx = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(dx, np.inf)
        measured = 0.0
        for step in solution.steps:
            v = step.values[mask]
            dv = np.abs(v[:, None] - v[None, :])
            measured = max(measured, float(np.max(dv / dx**beta)))
        stated_c = c_phi if stated is None else stated
        return ModulusReport("space", measured, stated_c, grid_slack,
                             measured <= stated_c + grid_slack)

    if kind != "time":
        raise ArgumentError("kind must be 'space' or 'time'")
    q = beta / 2.0 if time_exponent is None else time_exponent
    if stated is None:
        if k0 is None:
            raise ArgumentError("time modulus needs k0 (or an explicit stated constant)")
        stated = math.sqrt(3.0) * c_phi * k0
    measured = 0.0
    n = len(solution.steps)
    for i in range(n):
        vi = solution.steps[i].values[mask]
        for j in range(i + 1, n):
            gap = abs(j - i) * cfg.delta
            denom = gap**q + cfg.delta**q
            dv = float(np.max(np.abs(vi - solution.steps[j].values[mask])))
            measured = max(measured, dv / denom)
    return ModulusReport("time", measured, stated, grid_slack, measured <= stated + grid_slack)


# -- axiom suite ----------------------------------------------------------------

def _random_family(rng: np.random.Generator, d: int) -> UncertaintySet:
    measures = []
    for _ in range(rng.integers(1, 4)):
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.05
        w = w / w.sum()
        atoms = tuple(
            Atom(rng.normal(size=d), rng.normal(size=d), w[i]) for i in range(k)
        )
        measures.append(DiscreteMeasure(atoms))
    return UncertaintySet(tuple(measures), d=d)


def axiom_suite(n_trials: int = 200, seed: int = 0):
    """Randomized check of the four sublinear-expectation axioms.

    Each trial draws a family and random payoff tables on its atoms, then
    verifies monotonicity, constant preservation, sub-additivity and positive
    homogeneity.  Returns (max violation, per-axiom dict of max violations).
    """
    rng = np.random.default_rng(seed)
    worst = {"monotone": 0.0, "constant": 0.0, "subadditive": 0.0, "homogeneous": 0.0}
    for _ in range(n_trials):
        d = int(rng.integers(1, 3))
        u = _random_family(rng, d)
        table_f = {}
        table_g = {}
        for m in u.measures:
            for a in m.atoms:
                key = (a.x.tobytes(), a.y.tobytes())
                table_f.setdefault(key, float(rng.normal(scale=2.0)))
                table_g.setdefault(key, table_f[key] + float(rng.random()))
        f = lambda x, y: table_f[(x.tobytes(), y.tobytes())]
        g = lambda x, y: table_g[(x.tobytes(), y.tobytes())]
        c = float(rng.normal())
        lam = float(rng.random() * 3.0)
        ef = sublinear_expect(u, f)
        eg = sublinear_expect(u, g)
        worst["monotone"] = max(worst["monotone"], ef - eg)
        e_shift = sublinear_expect(u, lambda x, y: f(x, y) + c)
        worst["constant"] = max(worst["constant"], abs(e_shift - (ef + c)))
        e_sum = sublinear_expect(u, lambda x, y: f(x, y) + g(x, y))
        worst["subadditive"] = max(worst["subadditive"], e_sum - (ef + eg))
        e_scaled = sublinear_expect(u, lambda x, y: lam * f(x, y))
        worst["homogeneous"] = max(worst["homogeneous"], abs(e_scaled - lam * ef))
    return max(worst.values()), worst
