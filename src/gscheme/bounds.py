"""Explicit error constants and consistency-error measurements.

Everything here is closed-form arithmetic in the family's moments except the
mollifier constant.  Its derivative masses are exact total variations taken
across the polynomial roots of the bump's derivatives; only the bump's own
mass needs a fixed trapezoidal rule.  Nothing here imports scipy except
:func:`cubic_spline_psi` and the independent quadrature check
:func:`mollifier_mass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ArgumentError, NumericalError, UnsupportedError
from .uncertainty import MomentReport, UncertaintySet

BOUND_VARIANTS = ("prop51_i", "prop51_ii", "prop52_iii_a", "prop52_iii_b", "appendix")


@dataclass(frozen=True)
class SmoothFunction:
    """Test function with analytic value/gradient/Hessian and its seminorms.

    ``norms`` holds whichever sup-seminorms the bound formulas need (keys
    ``d2``, ``d3``, ``d4``, ``d2_c_alpha``, ...); ``sample_region`` is the
    interval outside which the derivatives are negligible, used to build the
    sample sets that replace the sup over the whole line.
    """

    name: str
    value: object
    grad: object
    hess: object
    norms: dict
    sample_region: tuple[float, float]

    def sample_points(self) -> np.ndarray:
        """241 evenly spaced points spanning ``sample_region``."""
        lo, hi = self.sample_region
        return np.linspace(lo, hi, 241)


def gaussian_bump() -> SmoothFunction:
    """psi(x) = exp(-x^2/2); all seminorms in closed form."""
    v = lambda x: math.exp(-0.5 * x * x)
    g = lambda x: -x * math.exp(-0.5 * x * x)
    h = lambda x: (x * x - 1.0) * math.exp(-0.5 * x * x)
    # |D3 psi| peaks at x* = sqrt(3 - sqrt(6)); |D2| and |D4| peak at 0
    xs = math.sqrt(3.0 - math.sqrt(6.0))
    d3 = xs * (3.0 - xs * xs) * math.exp(-0.5 * xs * xs)
    return SmoothFunction(
        "gaussian-bump", v, g, h, {"d2": 1.0, "d3": d3, "d4": 3.0}, (-6.0, 6.0)
    )


def sine() -> SmoothFunction:
    return SmoothFunction(
        "sin", math.sin, math.cos, lambda x: -math.sin(x), {"d2": 1.0, "d3": 1.0, "d4": 1.0},
        (-math.pi, math.pi),
    )


def cubic_spline_psi() -> SmoothFunction:
    """A natural cubic spline through a fixed bump-shaped table.

    Derivatives come from the spline object itself; the third derivative is
    piecewise constant, so its sup is the largest piece coefficient.
    """
    from scipy.interpolate import CubicSpline

    knots = np.linspace(-4.0, 4.0, 17)
    table = np.exp(-0.5 * knots**2) * (1.0 + 0.3 * np.sin(2.0 * knots))
    sp = CubicSpline(knots, table, bc_type="natural")
    d1, d2, d3 = sp.derivative(1), sp.derivative(2), sp.derivative(3)
    fine = np.linspace(-4.0, 4.0, 4001)
    norms = {
        "d2": float(np.max(np.abs(d2(fine)))),
        "d3": float(np.max(np.abs(d3(knots[:-1] + 1e-9)))),
    }

    def clamped(f):
        def call(x):
            return float(f(x)) if -4.0 <= x <= 4.0 else 0.0

        return call

    return SmoothFunction(
        "cubic-spline", clamped(sp), clamped(d1), clamped(d2), norms, (-4.0, 4.0)
    )


# -- mollifier constant --------------------------------------------------------

def _bump_derivative(x: float, k: int) -> float:
    """k-th derivative of exp(-1/(1-x^2)) on (-1, 1), zero outside."""
    w = 1.0 - x * x
    if w <= 0.0:
        return 0.0
    e = -1.0 / w
    if e < -700.0:
        return 0.0
    g = math.exp(e)
    if k == 0:
        return g
    u1 = -2.0 * x / w**2
    if k == 1:
        return u1 * g
    u2 = -2.0 / w**2 - 8.0 * x * x / w**3
    if k == 2:
        return (u2 + u1 * u1) * g
    u3 = -24.0 * x / w**3 - 48.0 * x**3 / w**4
    return (u3 + 3.0 * u1 * u2 + u1**3) * g


def _bump_integrals(rel_tol: float):
    """The four derivative masses by adaptive quadrature (scipy)."""
    from scipy.integrate import quad

    out = []
    for k in range(4):
        val, err = quad(
            lambda x: abs(_bump_derivative(x, k)), -1.0, 1.0,
            limit=400, epsrel=rel_tol, epsabs=1e-14,
        )
        if not math.isfinite(val) or (val > 0 and err / val > 50 * rel_tol):
            raise NumericalError(
                f"quadrature for derivative mass {k} reached only {err / max(val, 1e-300):.2e} relative"
            )
        out.append(val)
    return out


def _bump_masses() -> list[float]:
    """The derivative masses int |g^(k)|, k = 0..3, of g(x) = exp(-1/(1-x^2)).

    On (-1, 1), g^(k) = g * N_k / w^(2k) with w = 1 - x^2 and polynomials
    N_0 = 1, N_(k+1) = -2x N_k + w^2 N_k' + 4k x w N_k.  For k >= 1 the mass
    int |g^(k)| is the total variation of g^(k-1): the sum of its absolute
    increments between consecutive real roots of N_k in (-1, 1), where
    g^(k-1) is stationary, and the endpoints, where it vanishes.  Only the
    mass of g itself needs quadrature: g and all its derivatives vanish at
    +-1, so the trapezoidal rule converges faster than any power of the step,
    and 512 intervals reach double rounding (the 1024-interval rule agrees to
    the last bit).
    """
    nodes = np.linspace(-1.0, 1.0, 513)[1:-1]
    out = [float(np.sum(np.exp(-1.0 / (1.0 - nodes * nodes))) * (2.0 / 512))]
    x = Polynomial([0.0, 1.0])
    w = 1.0 - x**2
    n_prev = Polynomial([1.0])
    for k in range(3):
        n_next = -2.0 * x * n_prev + w**2 * n_prev.deriv() + 4.0 * k * x * w * n_prev
        roots = n_next.roots()
        r = np.sort(roots.real[(np.abs(roots.imag) < 1e-9) & (np.abs(roots.real) < 1.0)])
        wr = 1.0 - r * r
        stationary = np.exp(-1.0 / wr) * n_prev(r) / wr ** (2 * k)
        out.append(float(np.sum(np.abs(np.diff(np.concatenate(([0.0], stationary, [0.0])))))))
        n_prev = n_next
    if not all(math.isfinite(v) and v > 0 for v in out):
        raise NumericalError(f"bump derivative masses are not finite and positive: {out}")
    return out


@lru_cache(maxsize=None)
def compute_c_rho() -> float:
    """Total derivative mass of the normalized space-time bump mollifier (d = 1).

    The mollifier factorizes as rho(t, x) = K * g(x) * g(2t + 1) with
    g(s) = exp(-1/(1-s^2)), so every needed mixed-derivative L1 norm reduces
    to one-dimensional masses int |g^(k)|, evaluated exactly by
    :func:`_bump_masses` with numpy alone.  Returns the sum of the five
    derivative masses entering the lower/upper error-bound constants.
    """
    i0, i1, i2, i3 = _bump_masses()
    # mass normalization: K * i0 * (i0 / 2) = 1
    d3x = i3 / i0
    d2x = i2 / i0
    dtt = 4.0 * i2 / i0
    dt_d2x = 2.0 * i2 * i1 / i0**2
    dt_d1x = 2.0 * i1 * i1 / i0**2
    return d3x + d2x + dtt + dt_d2x + dt_d1x


def mollifier_mass(rel_tol: float = 1e-6) -> float:
    """Mass of the normalized mollifier, recomputed by direct quadrature.

    The time factor is integrated over (-1, 0) without the change of variables
    used elsewhere, so this is an independent check that K normalizes to 1.
    """
    from scipy.integrate import quad

    i0 = _bump_integrals(rel_tol)[0]
    k = 2.0 / (i0 * i0)
    t_mass, _ = quad(lambda t: _bump_derivative(2.0 * t + 1.0, 0), -1.0, 0.0, limit=400,
                     epsrel=rel_tol, epsabs=1e-14)
    return k * i0 * t_mass


# -- constants -----------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Every explicit constant, with the inputs echoed alongside."""

    k0: float
    k_alpha: float
    k1: float
    c_rho: float
    c_lb: float
    c_ub: float
    c_explicit: float
    c_phi: float
    beta: float
    T: float
    moments: MomentReport
    explicit_applicable: bool

    def as_rows(self):
        return [
            ("k0", self.k0),
            ("k_alpha", self.k_alpha),
            ("k1", self.k1),
            ("c_rho", self.c_rho),
            ("c_lb", self.c_lb),
            ("c_ub", self.c_ub),
            ("c_explicit", self.c_explicit),
            ("c_phi", self.c_phi),
            ("beta", self.beta),
            ("T", self.T),
        ]


def compute_constants(
    moments: MomentReport, c_phi: float, beta: float, T: float, c_rho: float | None = None
) -> BoundsReport:
    """Evaluate all explicit constants by direct substitution of the moments.

    ``c_explicit`` (the headline rate constant with leading factor 2124) is
    derived for d = 1 and unit horizon; ``explicit_applicable`` flags T >= 1.
    """
    if not (0 < beta <= 1):
        raise ArgumentError(f"beta must lie in (0, 1], got {beta}")
    if not (0 < c_phi < math.inf):
        raise ArgumentError(f"c_phi must be positive and finite, got {c_phi}")
    if not (0 < T < math.inf):
        raise ArgumentError(f"T must be positive and finite, got {T}")
    if c_rho is None:
        c_rho = compute_c_rho()
    mx2, mx3, my1, my2 = moments.m_x2, moments.m_x3, moments.m_y1, moments.m_y2
    k0 = math.exp(beta * T / 2.0) * (mx2 ** (beta / 2.0) + my2 ** (beta / 2.0))
    k1 = 1.0 + my1 + my2 + mx2 + mx3
    k_alpha = 1.0 + my1 + my2 + mx2 + moments.m_x_2plusalpha
    c_lb = c_phi * (1.0 + k0) * (4.0 + k1 * c_rho * T)
    c_ub = 2.0 * math.sqrt(3.0) * c_lb
    c_explicit = (
        2124.0
        * c_phi
        * (1.0 + mx3 ** (beta / 3.0) + my2 ** (beta / 2.0))
        * (1.0 + mx3 ** (2.0 / 3.0) + mx3 + my2**0.5 + my2)
    )
    return BoundsReport(
        k0=k0,
        k_alpha=k_alpha,
        k1=k1,
        c_rho=c_rho,
        c_lb=c_lb,
        c_ub=c_ub,
        c_explicit=c_explicit,
        c_phi=c_phi,
        beta=beta,
        T=T,
        moments=moments,
        explicit_applicable=T >= 1.0,
    )


# -- consistency error ----------------------------------------------------------

def consistency_error(u: UncertaintySet, delta: float, psi: SmoothFunction, sample_points) -> float:
    """Largest discrepancy between the one-step difference quotient on psi and
    the generator applied to psi's analytic derivatives, over the sample set.

    The one-step value is evaluated exactly on the atoms; no grid is involved.
    """
    if not (0 < delta <= 1):
        raise ArgumentError(f"delta must lie in (0, 1], got {delta}")
    if u.d != 1:
        raise UnsupportedError("consistency measurements are implemented for d = 1")
    for attr in ("value", "grad", "hess"):
        if getattr(psi, attr, None) is None:
            raise ArgumentError(f"psi is missing the analytic callback {attr!r}")
    pts = np.atleast_1d(np.asarray(sample_points, dtype=float))
    root = math.sqrt(delta)
    tables = u.atom_arrays()
    worst = 0.0
    for x in pts:
        s_best = -math.inf
        g_best = -math.inf
        px = float(psi.grad(x))
        hx = float(psi.hess(x))
        for xs, ys, ps in tables:
            shifted = x + root * xs[:, 0] + delta * ys[:, 0]
            s_val = float(ps @ np.array([psi.value(s) for s in shifted]))
            g_val = float(ps @ (px * ys[:, 0] + 0.5 * hx * xs[:, 0] ** 2))
            s_best = max(s_best, s_val)
            g_best = max(g_best, g_val)
        disc = abs((s_best - float(psi.value(x))) / delta - g_best)
        worst = max(worst, disc)
    return worst


def consistency_bounds(moments: MomentReport, psi_norms: dict, delta: float, variant: str) -> float:
    """Right-hand side of the selected consistency-error estimate.

    ``psi_norms`` supplies the seminorms of the test function by name; a
    missing seminorm for the chosen variant raises.  Time-dependent variants
    expect the parabolic seminorm keys ``dt2``, ``dt_d1``, ``dt_d2``,
    ``d2_c_parab`` and ``dt_c_parab``.
    """
    if variant not in BOUND_VARIANTS:
        raise ArgumentError(f"variant must be one of {BOUND_VARIANTS}, got {variant!r}")
    if not (0 < delta <= 1):
        raise ArgumentError(f"delta must lie in (0, 1], got {delta}")

    def need(*keys):
        missing = [k for k in keys if k not in psi_norms]
        if missing:
            raise ArgumentError(f"variant {variant!r} needs seminorms {missing}")
        return [float(psi_norms[k]) for k in keys]

    rootd = math.sqrt(delta)
    mx2, mx3, mx4, my2 = moments.m_x2, moments.m_x3, moments.m_x4, moments.m_y2
    if variant == "prop51_i":
        (d2_ca, d2) = need("d2_c_alpha", "d2")
        return delta ** (moments.alpha / 2.0) * d2_ca * moments.m_x_2plusalpha + rootd * d2 * (
            mx2 + my2
        )
    if variant == "prop51_ii":
        (d3, d2) = need("d3", "d2")
        return rootd * d3 * mx3 + rootd * d2 * (mx2 + my2)
    if variant == "prop52_iii_a":
        (d2_ca, dt_ca, d2, dt_d2, dt_d1) = need(
            "d2_c_parab", "dt_c_parab", "d2", "dt_d2", "dt_d1"
        )
        k_alpha = 1.0 + moments.m_y1 + my2 + mx2 + moments.m_x_2plusalpha
        return k_alpha * (
            delta ** (moments.alpha / 2.0) * (d2_ca + dt_ca) + rootd * d2 + delta * (dt_d2 + dt_d1)
        )
    if variant == "prop52_iii_b":
        (d3, d2, dt2, dt_d2, dt_d1) = need("d3", "d2", "dt2", "dt_d2", "dt_d1")
        k1 = 1.0 + moments.m_y1 + my2 + mx2 + mx3
        return k1 * (rootd * (d3 + d2) + delta * (dt2 + dt_d2 + dt_d1))
    # appendix refinement: O(delta) once the family has symmetric odd moments
    # and the drift tied to the volatility; constants from the term-by-term
    # Taylor bounds
    (d4, d3, d2) = need("d4", "d3", "d2")
    return delta * (mx4 * d4 + 0.25 * (mx4 + my2) * d3 + 0.5 * my2 * d2)
