"""European option pricing under a volatility band.

The pricing PDE is attacked in log-price coordinates, where one backward time
step is the supremum over the volatility grid of a two-point average:

    v(t, x) = sup_sigma 1/2 [ v(t-d, x + (r - sigma^2/2) d + sigma sqrt(d))
                            + v(t-d, x + (r - sigma^2/2) d - sigma sqrt(d)) ]

With a single volatility this collapses to the classical binomial recursion,
and the degenerate backend runs it exactly on the recombining tree.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import ExperimentResult, ExperimentRow, Richardson, fit_rate, richardson
from .errors import ArgumentError
from .families import bsb_family, sigma_grid
from .scheme import (
    GridFunction,
    InitialData,
    SchemeConfig,
    SchemeSolution,
    forward_operator,
    reachable_halfwidth,
    solve_grid,
)
from .uncertainty import UncertaintySet

log = logging.getLogger("gscheme")


@dataclass(frozen=True)
class PutPayoff:
    strike: float

    def __post_init__(self):
        if not (0 < self.strike < math.inf):
            raise ArgumentError("strike must be positive and finite")

    name = "put"

    def value(self, s):
        return np.maximum(self.strike - np.asarray(s, dtype=float), 0.0)

    def log_value(self, x):
        return np.maximum(self.strike - np.exp(np.asarray(x, dtype=float)), 0.0)

    @property
    def lipschitz_log(self) -> float:
        # d/dx (K - e^x)^+ is -e^x on {e^x < K}
        return self.strike

    lower_bound = 0.0


@dataclass(frozen=True)
class CappedCallPayoff:
    strike: float
    cap: float

    def __post_init__(self):
        if not (0 < self.strike < math.inf and 0 < self.cap < math.inf):
            raise ArgumentError("strike and cap must be positive and finite")

    name = "capped-call"

    def value(self, s):
        return np.minimum(np.maximum(np.asarray(s, dtype=float) - self.strike, 0.0), self.cap)

    def log_value(self, x):
        return self.value(np.exp(np.asarray(x, dtype=float)))

    @property
    def lipschitz_log(self) -> float:
        # slope e^x is largest where the payoff caps out, at s = strike + cap
        return self.strike + self.cap

    lower_bound = 0.0


def make_payoff(kind: str, strike: float, cap: float | None = None):
    if kind == "put":
        return PutPayoff(strike)
    if kind == "capped-call":
        if cap is None:
            raise ArgumentError("capped-call needs a cap")
        return CappedCallPayoff(strike, cap)
    if kind == "call":
        raise ArgumentError(
            "uncapped calls are rejected: the payoff must be lower bounded and "
            "Lipschitz in log price; use capped-call"
        )
    raise ArgumentError(f"unknown payoff kind {kind!r}")


@dataclass(frozen=True)
class BsbSpec:
    """Market and discretization data for one pricing run."""

    r: float
    sigma_lo: float
    sigma_hi: float
    horizon: float
    payoff: object
    n_sigma: int = 33
    delta: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ArgumentError(f"r must be finite, got {self.r}")
        if not (0 < self.sigma_lo <= self.sigma_hi < math.inf):
            raise ArgumentError("need 0 < sigma_lo <= sigma_hi < inf")
        if self.n_sigma < 1:
            raise ArgumentError("n_sigma must be at least 1")
        if self.n_sigma == 1 and self.sigma_lo != self.sigma_hi:
            raise ArgumentError("n_sigma = 1 requires sigma_lo = sigma_hi")
        if not (0 < self.horizon < math.inf):
            raise ArgumentError(f"horizon must be positive and finite, got {self.horizon}")
        if not (0 < self.delta <= 1):
            raise ArgumentError("delta must lie in (0, 1]")

    @property
    def sigmas(self) -> np.ndarray:
        return sigma_grid(self.sigma_lo, self.sigma_hi, self.n_sigma)

    @property
    def degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi

    def uncertainty_set(self) -> UncertaintySet:
        return bsb_family(self.r, self.sigma_lo, self.sigma_hi, self.n_sigma)


def bsb_transform(spec: BsbSpec, s0: float):
    """Log-space initial-value data and the inverse value map.

    Returns (x0, phi, inverse) with x0 = log s0, phi the payoff read through
    the exponential, and inverse mapping the terminal scheme value back to the
    option price via the accumulated discount.
    """
    if not (0 < s0 < math.inf):
        raise ArgumentError("s0 must be positive and finite")
    x0 = math.log(s0)
    payoff = spec.payoff
    phi = InitialData(
        f"bsb-{payoff.name}",
        payoff.log_value,
        payoff.lower_bound,
        c_phi=payoff.lipschitz_log,
        beta=1.0,
    )

    def inverse(terminal_value: float) -> float:
        return terminal_value * math.exp(-spec.r * spec.horizon)

    return x0, phi, inverse


def bsb_step(spec: BsbSpec, v_prev: GridFunction) -> GridFunction:
    """One backward step: nodewise sup over the sigma grid of two-point averages."""
    return forward_operator(spec.uncertainty_set(), v_prev.config, v_prev)


def default_grid(spec: BsbSpec, s0: float, h: float) -> SchemeConfig:
    """Grid centred on log s0, half-width ``reachable_halfwidth`` + 2h, spacing near (not at) h."""
    x0 = math.log(s0)
    halfwidth = reachable_halfwidth(spec.uncertainty_set(), spec.horizon) + 2 * h
    n = int(round(2 * halfwidth / h)) + 1
    return SchemeConfig(
        delta=spec.delta,
        horizon=spec.horizon,
        grid_lo=(x0 - halfwidth,),
        grid_hi=(x0 + halfwidth,),
        grid_n=(n,),
    )


def _exact_binomial_value(spec: BsbSpec, x0: float, phi: InitialData) -> float:
    """Recombining-tree recursion for the single-volatility case; no interpolation."""
    sigma = spec.sigma_lo
    delta = spec.delta
    n = int(math.floor(spec.horizon / delta + 1e-9))
    if n < 1:
        return float(phi(np.array([x0]))[0])
    drift = (spec.r - 0.5 * sigma * sigma) * delta
    step = sigma * math.sqrt(delta)
    j = np.arange(n + 1, dtype=float)
    x = x0 + n * drift + (2.0 * j - n) * step
    v = phi(x)
    for _ in range(n):
        v = 0.5 * (v[1:] + v[:-1])
    return float(v[0])


def aligned_spacing(spec: BsbSpec, delta: float) -> float:
    """Spacing h that makes the smallest volatility move sigma_lo sqrt(delta) span four cells.

    With sigma ratios on a half-integer ladder (odd n_sigma here), every sigma sqrt(delta)
    is then a whole number of cells of h.  Moves still miss the nodes: ``default_grid``'s
    spacing is only near h, and no move's drift delta (r - sigma^2/2) is whole cells.
    """
    return spec.sigma_lo * math.sqrt(delta) / 4


def _grid_solution(spec: BsbSpec, s0: float, h: float | None = None,
                   keep: str = "last") -> SchemeSolution:
    """The grid solve behind a price: the band family on ``default_grid``."""
    _x0, phi, _inverse = bsb_transform(spec, s0)
    if h is None:
        h = aligned_spacing(spec, spec.delta)
    return solve_grid(spec.uncertainty_set(), default_grid(spec, s0, h), phi, keep=keep)


def bsb_price(
    spec: BsbSpec,
    s0: float,
    backend: str = "auto",
    h: float | None = None,
    return_solution: bool = False,
):
    """Price the claim at spot s0.

    ``backend='auto'`` uses the exact recombining tree when the volatility band
    is degenerate and the interpolating grid otherwise; 'exact' and 'grid'
    force a backend.  ``h`` overrides the grid spacing (default: aligned to
    the volatility displacements).  The grid solve holds only the running
    level; ``return_solution=True`` keeps every level and returns
    (undiscounted value, list of every level's ``GridFunction``).
    """
    if backend not in ("auto", "exact", "grid"):
        raise ArgumentError(f"unknown backend {backend!r}")
    x0, phi, inverse = bsb_transform(spec, s0)
    if backend == "exact" and not spec.degenerate:
        raise ArgumentError("the exact tree backend requires sigma_lo = sigma_hi")
    if backend in ("auto", "exact") and spec.degenerate:
        value = _exact_binomial_value(spec, x0, phi)
        return (value, None) if return_solution else inverse(value)

    sol = _grid_solution(spec, s0, h, keep="all" if return_solution else "last")
    value = sol.value_at(spec.horizon, x0)
    if return_solution:
        return value, sol.steps
    return inverse(value)


def _price_curve(spec: BsbSpec, s0: float, query_x: np.ndarray) -> np.ndarray:
    """Discounted grid price at each log-price in query_x."""
    return _grid_solution(spec, s0).steps[-1].interp(query_x) * math.exp(-spec.r * spec.horizon)


def richardson_reference_curve(
    spec: BsbSpec, s0: float, query_x: np.ndarray, delta_fine: float
) -> Richardson:
    """Reference price curve from solves at delta_fine, 2x and 4x, extrapolated
    by ``analysis.richardson`` with one order fitted from sup norms (pointwise
    extrapolation is too fragile near payoff kinks)."""
    return richardson(*(_price_curve(replace(spec, delta=mult * delta_fine), s0, query_x)
                        for mult in (4.0, 2.0, 1.0)))


def bsb_rate_experiment(
    spec: BsbSpec,
    s0: float,
    deltas,
    target_slope: float = 0.25,
    slack: float = 0.15,
    reference_refinement: float = 8.0,
) -> ExperimentResult:
    """Convergence study of the price surface in the time step.

    The error per time step is the sup over 41 log-price query points within
    0.5 of log s0 of the gap to a Richardson-extrapolated fine reference,
    matching the sup-norm form of the convergence claims and averaging out
    single-point lattice-phase oscillation.  Passes when the fitted slope clears
    target_slope - slack and the errors decrease monotonically.
    """
    deltas = sorted({float(d) for d in deltas}, reverse=True)
    if len(deltas) < 3:
        raise ArgumentError("need at least 3 time steps")
    x0 = math.log(s0)
    query_x = np.linspace(x0 - 0.5, x0 + 0.5, 41)
    ref = richardson_reference_curve(spec, s0, query_x, deltas[-1] / reference_refinement)
    if ref.warning:
        log.warning("bsb_rate_experiment: reference refinement does not contract (estimate "
                    "%.3e, fitted order %.4g); using its finest solve", ref.estimate, ref.order)
    errors = [
        float(np.max(np.abs(_price_curve(replace(spec, delta=d), s0, query_x) - ref.value)))
        for d in deltas
    ]
    fit = fit_rate(list(zip(deltas, errors)), target=target_slope, slack=slack, label="bsb-rate")
    monotone = all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))
    rows = tuple(ExperimentRow(d, e) for d, e in zip(deltas, errors))
    return ExperimentResult(
        rows, fit.fitted_slope, fit.fitted_intercept, fit.passed and monotone, "bsb-rate"
    )
