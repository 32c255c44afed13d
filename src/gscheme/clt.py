"""Robust central-limit-theorem and law-of-large-numbers experiments.

The normalized sums are never simulated: the nested max-expectation recursion
itself defines the quantity of interest, so each value is computed exactly on
the recombining lattice (or on a grid when the lattice would be too large).
"""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np

from .analysis import ExperimentResult, ExperimentRow, fit_rate
from .errors import ArgumentError, ConfigurationError, ResourceLimitError
from .oracles import ReferenceSolution, ThetaSet, maximal_sup
from .scheme import (InitialData, SchemeConfig, _atom_extent, reachable_halfwidth, solve_grid,
                     solve_lattice)
from .uncertainty import UncertaintySet, validate

log = logging.getLogger("gscheme")

__all__ = [
    "ThetaSet",
    "clt_functional",
    "lln_experiment",
    "clt_experiment",
]


def clt_functional(
    u: UncertaintySet,
    n: int,
    phi: InitialData,
    backend: str = "auto",
    node_cap: int = 2_000_000,
    grid_h: float | None = None,
) -> float:
    """Sublinear expectation of phi at the n-th normalized partial sum.

    Runs the recursion with time step 1/n for n steps from the origin, which
    evaluates the functional without any sampling.  The exact lattice is
    preferred; ``backend='grid'`` (or an oversized lattice under 'auto')
    falls back to the interpolating solver.
    """
    if n < 1:
        raise ArgumentError("n must be a positive integer")
    if backend not in ("auto", "lattice", "grid"):
        raise ArgumentError(f"unknown backend {backend!r}")
    if grid_h is not None and not (0 < grid_h < math.inf):
        raise ArgumentError(f"grid_h must be positive and finite, got {grid_h}")
    report = validate(u)
    if not report.no_mean_uncertainty:
        raise ConfigurationError("family has mean uncertainty in X")
    delta = 1.0 / n
    if backend in ("auto", "lattice"):
        try:
            return solve_lattice(u, delta, n, [0.0], phi, node_cap=node_cap).value
        except ResourceLimitError as exc:
            if backend == "lattice":
                raise
            log.info("clt_functional n=%d: lattice refused (%s); falling back to the grid", n, exc)
    if u.d != 1:
        raise ArgumentError("grid fallback is implemented for d = 1")
    halfwidth = reachable_halfwidth(u, 1.0)
    if grid_h is None:
        grid_h = max(math.sqrt(delta) * max(_atom_extent(u)[0], 1e-6) / 8.0, 1e-5)
    n_grid = int(round(2 * halfwidth / grid_h)) + 1
    cfg = SchemeConfig(delta=delta, horizon=1.0, grid_lo=(-halfwidth,), grid_hi=(halfwidth,),
                       grid_n=(n_grid,))
    return solve_grid(u, cfg, phi, keep="last").value_at(1.0, 0.0)


def _check_component_zero(u: UncertaintySet, component: str) -> None:
    for m in u.measures:
        arr = m.xs if component == "X" else m.ys
        if np.max(np.abs(arr), initial=0.0) > 1e-14:
            raise ConfigurationError(f"experiment requires {component} identically zero")


def lln_experiment(
    u: UncertaintySet,
    theta: ThetaSet,
    n_list,
    phi: InitialData | None = None,
) -> ExperimentResult:
    """Mean-uncertainty convergence experiment.

    With the default distance functional the rows are (n, expected distance of
    the normalized sum to theta, C n^{-1/2}) where C is measured at the first
    n.  A general phi switches the error to the gap against the maximum of phi
    over theta.  Passes when every error sits under its bound and the fitted
    slope is at most -0.35.
    """
    _check_component_zero(u, "X")
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ArgumentError("need at least 3 values of n")
    for m in u.measures:
        mean = m.ps @ m.ys
        if not theta.contains(mean, tol=1e-12):
            warnings.warn(
                f"per-measure mean {mean} lies outside theta; the limit value may be nonzero",
                stacklevel=2,
            )
    if phi is None:
        functional = InitialData("theta-distance", lambda x: _distance_vec(theta, x), 0.0, c_phi=1.0)
        reference = 0.0
    else:
        functional = phi
        reference = maximal_sup(theta, phi)

    values = [clt_functional(u, n, functional) for n in n_list]
    errors = [abs(v - reference) for v in values]
    c_measured = errors[0] * math.sqrt(n_list[0])
    rows = tuple(
        ExperimentRow(float(n), e, c_measured / math.sqrt(n))
        for n, e in sorted(zip(n_list, errors), key=lambda p: -p[0])
    )
    fit = fit_rate([(n, e) for n, e in zip(n_list, errors)], label="lln")
    if all(e <= 1e-14 for e in errors):
        passed = True
    else:
        passed = all(r.error <= r.bound + 1e-14 for r in rows) and fit.fitted_slope <= -0.35
    return ExperimentResult(rows, fit.fitted_slope, fit.fitted_intercept, passed, "lln")


def _distance_vec(theta: ThetaSet, x) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if theta.d == 1 and theta.kind == "box":
        lo, hi = float(theta.lo[0]), float(theta.hi[0])
        return np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.array([theta.distance(p) for p in pts])


def clt_experiment(
    u: UncertaintySet,
    phi: InitialData,
    n_list,
    reference: ReferenceSolution | float | None,
    c_explicit: float,
    beta: float = 1.0,
) -> ExperimentResult:
    """Volatility-uncertainty convergence experiment against the explicit bound.

    Rows are (n, |functional - reference|, c_explicit * n^(-beta/6)).  Passes
    when every error respects the bound; the fitted slope is informational.
    """
    _check_component_zero(u, "Y")
    if reference is None:
        raise ConfigurationError("clt experiment needs a reference value")
    ref_value = reference.value if isinstance(reference, ReferenceSolution) else float(reference)
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ArgumentError("need at least 3 values of n")

    values = [clt_functional(u, n, phi) for n in n_list]
    errors = [abs(v - ref_value) for v in values]
    rows = tuple(
        ExperimentRow(float(n), e, c_explicit * n ** (-beta / 6.0))
        for n, e in sorted(zip(n_list, errors), key=lambda p: -p[0])
    )
    fit = fit_rate([(n, e) for n, e in zip(n_list, errors)], label="clt")
    passed = all(r.error <= r.bound for r in rows)
    return ExperimentResult(rows, fit.fitted_slope, fit.fitted_intercept, passed, "clt")
