"""Independent reference computations the rest of the package is tested against.

Every reference value travels with its method tag and an accuracy estimate so
no oracle can masquerade as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import richardson
from .errors import ArgumentError, ResourceLimitError, UnsupportedError
from .scheme import (InitialData, SchemeConfig, _distinct_displacements, reachable_halfwidth,
                     solve_grid, solve_lattice)
from .uncertainty import UncertaintySet


@dataclass(frozen=True)
class ReferenceSolution:
    value: float
    method: str  # classical_normal | fine_grid_gheat
    accuracy: float
    meta: dict = field(default_factory=dict)
    warning: bool = False

    def __post_init__(self):
        if not self.accuracy > 0:
            raise ArgumentError("reference accuracy must be recorded and positive")


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate to ~1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_closed_form(r: float, sigma: float, T: float, K: float, s0: float) -> float:
    """Closed-form European put under a single lognormal volatility."""
    if not all(math.isfinite(v) for v in (r, sigma, T, K, s0)):
        raise ArgumentError("r, sigma, T, K and s0 must be finite")
    if sigma <= 0 or T <= 0:
        raise ArgumentError("need sigma > 0 and T > 0")
    if s0 <= 0:
        raise ArgumentError("need s0 > 0")
    if K <= 0:
        return 0.0
    srt = sigma * math.sqrt(T)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma * sigma) * T) / srt
    d2 = d1 - srt
    return K * math.exp(-r * T) * norm_cdf(-d2) - s0 * norm_cdf(-d1)


# the most full paths ``brute_force_tree`` enumerates before it refuses
PATH_CAP = 1_000_000


def brute_force_tree(u: UncertaintySet, delta: float, n: int, x0, phi: InitialData) -> float:
    """Unrolled nested max-expectation over full (non-recombined) paths."""
    if n < 1 or n > 4:
        raise ArgumentError(f"brute force supports 1 <= n <= 4, got {n}")
    total_atoms = sum(len(m.atoms) for m in u.measures)
    if total_atoms**n > PATH_CAP:
        raise ResourceLimitError(f"{total_atoms ** n} paths exceed cap {PATH_CAP}")
    root = math.sqrt(delta)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def value(x, k):
        if k == 0:
            out = phi(x[None, 0] if x.size == 1 else x[None, :])
            return float(np.atleast_1d(out)[0])
        best = -math.inf
        for m in u.measures:
            acc = 0.0
            for a in m.atoms:
                acc += a.p * value(x + root * a.x + delta * a.y, k - 1)
            best = max(best, acc)
        return best

    return value(x0, n)


def classical_normal_reference(phi: InitialData, sigma: float) -> ReferenceSolution:
    """E[phi(sigma Z)] for a standard normal Z by adaptive quadrature."""
    from scipy.integrate import quad

    if not (0 <= sigma < math.inf):
        raise ArgumentError(f"sigma must be nonnegative and finite, got {sigma}")
    if sigma == 0:
        return ReferenceSolution(float(phi(np.array([0.0]))[0]), "classical_normal", 1e-15)
    dens = 1.0 / math.sqrt(2 * math.pi)

    def integrand(z):
        return float(phi(np.array([sigma * z]))[0]) * dens * math.exp(-0.5 * z * z)

    val, err = quad(integrand, -12.0, 12.0, limit=200, epsabs=1e-12, epsrel=1e-10)
    return ReferenceSolution(val, "classical_normal", max(err, 1e-14), {"sigma": sigma})


def fine_grid_reference(
    u: UncertaintySet,
    phi: InitialData,
    t_eval: float,
    x_eval: float,
    delta_ref: float | None = None,
    target_delta: float | None = None,
) -> ReferenceSolution:
    """Reference value u(t_eval, x_eval) from the same recursion at much finer delta.

    Solves at delta_ref in (0, t_eval], 2*delta_ref and 4*delta_ref and
    extrapolates with ``analysis.richardson``; the accuracy estimate is the
    magnitude of the last extrapolation correction.  A one- or two-displacement
    family is routed through the exact lattice (interpolation-free); otherwise
    a fine grid of half-width ``reachable_halfwidth`` is shared by all three
    solves so the extrapolation isolates the time-step error.
    """
    if not (0 < t_eval < math.inf):
        raise ArgumentError(f"t_eval must be positive and finite, got {t_eval}")
    if delta_ref is None:
        delta_ref = 1.0 / 4096.0
        if target_delta is not None:
            if not (target_delta > 0):
                raise ArgumentError(f"target_delta must be positive, got {target_delta}")
            delta_ref = min(delta_ref, target_delta * target_delta)
    elif not (0 < delta_ref <= t_eval):
        raise ArgumentError(f"delta_ref must lie in (0, {t_eval}], got {delta_ref}")
    # snap so that t_eval is an integer number of steps at all three resolutions,
    # with the coarsest delta still inside (0, 1]
    n_fine = max(4, int(round(t_eval / delta_ref)), int(math.ceil(4 * t_eval)))
    n_fine += (-n_fine) % 4
    deltas = [4 * t_eval / n_fine, 2 * t_eval / n_fine, t_eval / n_fine]

    values = []
    disp, _ = _distinct_displacements(u, deltas[-1])
    used_lattice = disp.shape[0] <= 2 and u.d == 1
    if used_lattice:
        for dlt in deltas:
            n = int(round(t_eval / dlt))
            values.append(solve_lattice(u, dlt, n, [x_eval], phi).value)
    else:
        halfwidth = reachable_halfwidth(u, t_eval)
        h = max(2.0 * halfwidth / 250_000, 1.1e-4)

        def grid_value(dlt, spacing):
            n_grid = max(3, int(round(2 * halfwidth / spacing)) + 1)
            cfg = SchemeConfig(
                delta=dlt, horizon=t_eval,
                grid_lo=(x_eval - halfwidth,), grid_hi=(x_eval + halfwidth,), grid_n=(n_grid,),
            )
            return solve_grid(u, cfg, phi, keep="last").value_at(t_eval, x_eval)

        # interpolation leaves an O(h^2) bias per solve that grows with the
        # step count; a paired 2h solve extrapolates it away so the time-step
        # extrapolation below sees a clean sequence
        h_corrections = []
        for dlt in deltas:
            vh = grid_value(dlt, h)
            v2h = grid_value(dlt, 2.0 * h)
            h_corrections.append((vh - v2h) / 3.0)
            values.append(vh + h_corrections[-1])

    fit = richardson(*values)
    meta = {
        "delta_ref": deltas[-1],
        "solves": list(values),
        "backend": "lattice" if used_lattice else "grid",
        "fitted_order": fit.order,
    }
    extra = 0.0
    if not used_lattice:
        meta.update({"h": h, "halfwidth": halfwidth, "h_corrections": h_corrections})
        extra = abs(h_corrections[-1]) / 3.0
    return ReferenceSolution(
        fit.value, "fine_grid_gheat", fit.estimate + extra, meta, warning=fit.warning
    )


@dataclass(frozen=True)
class ThetaSet:
    """A bounded closed convex target set: an interval box or a point cloud."""

    kind: str  # "box" | "points"
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    points: np.ndarray | None = None

    @staticmethod
    def box(lo, hi) -> "ThetaSet":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
            raise ArgumentError("box needs finite lo <= hi componentwise")
        return ThetaSet("box", lo=lo, hi=hi)

    @staticmethod
    def from_points(points) -> "ThetaSet":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ArgumentError("point cloud must be nonempty")
        return ThetaSet("points", points=pts)

    @property
    def d(self) -> int:
        return self.lo.size if self.kind == "box" else self.points.shape[1]

    def distance(self, y) -> float:
        """Euclidean distance to the set (convex hull for point clouds, d=1 only)."""
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        if self.kind == "box":
            gap = np.maximum(np.maximum(self.lo - yv, yv - self.hi), 0.0)
            return float(np.linalg.norm(gap))
        if self.d != 1:
            raise UnsupportedError("point-cloud distance is supported in d = 1 only")
        lo, hi = float(np.min(self.points)), float(np.max(self.points))
        return float(max(lo - yv[0], yv[0] - hi, 0.0))

    def contains(self, y, tol: float = 0.0) -> bool:
        return self.distance(y) <= tol


def maximal_sup(theta: ThetaSet, phi) -> float:
    """Maximum of phi over the set: dense grid (2^14 points in d = 1, 2^7 per
    axis otherwise) plus one local refinement pass for boxes, exact
    enumeration for point clouds."""
    if theta.kind == "points":
        vals = [float(np.atleast_1d(phi(p if theta.d == 1 else p[None, :]))[0])
                for p in theta.points]
        return max(vals)
    n_grid = 2**14 if theta.d == 1 else 2**7
    axes = [np.linspace(lo, hi, n_grid) if hi > lo else np.array([lo]) for lo, hi in zip(theta.lo, theta.hi)]
    if theta.d == 1:
        grid = axes[0]
        vals = np.asarray(phi(grid), dtype=float)
        best = float(np.max(vals))
        if grid.size > 2:
            i = int(np.argmax(vals))
            lo = grid[max(0, i - 1)]
            hi = grid[min(grid.size - 1, i + 1)]
            fine = np.linspace(lo, hi, 1025)
            best = max(best, float(np.max(np.asarray(phi(fine), dtype=float))))
        return best
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(phi(pts), dtype=float)
    center = pts[int(np.argmax(vals))]
    span = np.array([(hi - lo) / (n_grid - 1) for lo, hi in zip(theta.lo, theta.hi)])
    fine_axes = [
        np.linspace(max(c - s, lo), min(c + s, hi), 65)
        for c, s, lo, hi in zip(center, span, theta.lo, theta.hi)
    ]
    mesh = np.meshgrid(*fine_axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return max(float(np.max(vals)), float(np.max(np.asarray(phi(pts), dtype=float))))
