"""Reference values computed without gscheme's solvers.

Each function here re-derives a quantity from its definition so that the
benchmark can check gscheme's outputs against something that does not share
its code paths:

* ``IntLattice`` / ``lattice_value``: the max-expectation recursion on an
  integer-position lattice.  Every displacement of the family is written as
  ``offset + sum_i c_i * e_i`` with nonnegative integer coordinates ``c``, so
  one backward step is a handful of array slices (one per atom).
* ``richardson_limit``: the delta -> 0 limit of that recursion, from three
  lattice solves.
* ``crr_price``: the Cox-Ross-Rubinstein price as a binomial-weight sum
  (no backward induction).
* ``bs_put`` / ``bs_call``: Black-Scholes prices in closed form.
* ``c_explicit`` / ``consistency_error``: the headline rate constant and the
  measured one-step consistency error, recomputed from the atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntLattice:
    """A family whose step displacements lie on an affine integer lattice.

    With step ``delta`` an atom displaces the state by
    ``offset(delta) + sum_i coords[i] * basis_i(delta)``, where
    ``offset(delta) = sqrt(delta) * offset_x + delta * offset_y`` and likewise
    for each basis vector.  ``measures`` lists, per measure, the atoms as
    ``(coords, weight)`` with nonnegative integer coords of length ``rank``.
    Vectors have length ``d`` (the state dimension).
    """

    d: int
    offset_x: tuple[float, ...]
    offset_y: tuple[float, ...]
    basis_x: tuple[tuple[float, ...], ...]
    basis_y: tuple[tuple[float, ...], ...]
    measures: tuple[tuple[tuple[tuple[int, ...], float], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis_x)

    def widths(self) -> tuple[int, ...]:
        """Largest coordinate a single step can add, per basis direction."""
        return tuple(
            max(c[i] for atoms in self.measures for c, _ in atoms) for i in range(self.rank)
        )


def lattice_value(fam: IntLattice, delta: float, n: int, x0, phi) -> float:
    """Exact value of the n-step recursion at x0 on the integer lattice.

    Level j is stored on the box ``prod_i [0, j * w_i]`` of coordinates; the
    child of coordinate p through an atom with coords c is p + c, which stays
    inside the level-(j+1) box, so each atom is one slice of the next level.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    w = fam.widths()
    root = math.sqrt(delta)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    axes = [np.arange(n * wi + 1, dtype=float) for wi in w]
    mesh = np.meshgrid(*axes, indexing="ij")
    pos = np.broadcast_to(
        x0 + n * (root * np.array(fam.offset_x) + delta * np.array(fam.offset_y)),
        mesh[0].shape + (fam.d,),
    ).copy()
    for i in range(fam.rank):
        step = root * np.array(fam.basis_x[i]) + delta * np.array(fam.basis_y[i])
        pos += mesh[i][..., None] * step
    pts = pos[..., 0] if fam.d == 1 else pos.reshape(-1, fam.d)
    vals = np.asarray(phi(pts), dtype=float).reshape(mesh[0].shape)
    for j in range(n - 1, -1, -1):
        shape = tuple(j * wi + 1 for wi in w)
        best = None
        for atoms in fam.measures:
            acc = np.zeros(shape)
            for c, p in atoms:
                acc += p * vals[tuple(slice(ci, ci + s) for ci, s in zip(c, shape))]
            best = acc if best is None else np.maximum(best, acc)
        vals = best
    return float(vals.reshape(-1)[0])


def richardson_limit(fam: IntLattice, t: float, n_coarse: int, x0, phi):
    """delta -> 0 limit of the recursion from lattice solves at n, 2n and 4n steps.

    Fits one convergence order from the two refinement differences and
    extrapolates.  Returns (limit, accuracy), the accuracy being the size of
    the applied correction; a non-monotone sequence raises.
    """
    v = [lattice_value(fam, t / k, k, x0, phi) for k in (n_coarse, 2 * n_coarse, 4 * n_coarse)]
    d1, d2 = v[1] - v[0], v[2] - v[1]
    if d1 == 0.0 or d2 == 0.0 or (d1 > 0) != (d2 > 0) or abs(d2) >= abs(d1):
        raise ValueError(f"lattice refinement is not monotone: {v}")
    correction = d2 / (d1 / d2 - 1.0)
    return v[2] + correction, abs(correction)


def pm_sigma_lattice(ks, q: float) -> IntLattice:
    """Commensurate pm-sigma family sigma_i = k_i * q, as a rank-1 lattice."""
    kmax = max(ks)
    measures = tuple((((kmax + k,), 0.5), ((kmax - k,), 0.5)) for k in ks)
    return IntLattice(1, (-kmax * q,), (0.0,), ((q,),), ((0.0,),), measures)


def generic_sigma_lattice(sigmas, mus=None) -> IntLattice:
    """pm-sigma family with per-measure drift, one basis direction per number.

    Measure i has atoms x = +-sigma_i, y = mu_i.  Directions are sigma_i (in
    x) and, when drifts are given, mu_i (in y); the offset subtracts every
    sigma so all coordinates are nonnegative.
    """
    s = len(sigmas)
    drift = mus is not None
    rank = s * (2 if drift else 1)
    basis_x, basis_y = [], []
    for i in range(s):
        basis_x.append((float(sigmas[i]),))
        basis_y.append((0.0,))
        if drift:
            basis_x.append((0.0,))
            basis_y.append((float(mus[i]),))
    stride = 2 if drift else 1
    measures = []
    for i in range(s):
        atoms = []
        for sign in (1, -1):
            c = [0] * rank
            for k in range(s):
                c[k * stride] = 1
            c[i * stride] += sign
            if drift:
                c[i * stride + 1] = 1
            atoms.append((tuple(c), 0.5))
        measures.append(tuple(atoms))
    offset = -math.fsum(float(v) for v in sigmas)
    return IntLattice(1, (offset,), (0.0,), tuple(basis_x), tuple(basis_y), tuple(measures))


def two_point_y_lattice(a: float, b: float, lams) -> IntLattice:
    """X = 0 family with Y in {a, b}, P(Y = b) = lam per measure: rank 1."""
    measures = tuple((((0,), 1.0 - lam), ((1,), lam)) for lam in lams)
    return IntLattice(1, (0.0,), (a,), ((0.0,),), ((b - a,),), measures)


def grid2d_lattice(q, measures_k) -> IntLattice:
    """2-D family with x-atoms (k1 * q[0], k2 * q[1]) for integer k, y = 0.

    ``measures_k`` lists per measure the atoms as ``((k1, k2), weight)``.
    """
    kmax = [max(abs(k[i]) for atoms in measures_k for k, _ in atoms) for i in range(2)]
    measures = tuple(
        tuple(((k[0] + kmax[0], k[1] + kmax[1]), p) for k, p in atoms) for atoms in measures_k
    )
    return IntLattice(
        2,
        (-kmax[0] * q[0], -kmax[1] * q[1]),
        (0.0, 0.0),
        ((q[0], 0.0), (0.0, q[1])),
        ((0.0, 0.0), (0.0, 0.0)),
        measures,
    )


def crr_price(r: float, sigma: float, T: float, delta: float, s0: float, payoff) -> float:
    """Discounted binomial-tree price with up/down moves (r - sigma^2/2) d +- sigma sqrt(d).

    Sums payoff(S_T) against the binomial weights C(n, j) / 2^n directly.
    """
    n = int(math.floor(T / delta + 1e-9))
    j = np.arange(n + 1, dtype=float)
    log_w = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in range(n + 1)])
        - n * math.log(2.0)
    )
    drift = (r - 0.5 * sigma * sigma) * delta
    x = math.log(s0) + n * drift + (2.0 * j - n) * sigma * math.sqrt(delta)
    return math.exp(-r * n * delta) * math.fsum(np.exp(log_w) * payoff(np.exp(x)))


def bs_put(r: float, sigma: float, T: float, K: float, s0: float) -> float:
    """Black-Scholes European put."""
    srt = sigma * math.sqrt(T)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma * sigma) * T) / srt
    d2 = d1 - srt
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    return K * math.exp(-r * T) * cdf(-d2) - s0 * cdf(-d1)


def bs_call(r: float, sigma: float, T: float, K: float, s0: float) -> float:
    """Black-Scholes European call, from the put by put-call parity."""
    return bs_put(r, sigma, T, K, s0) + s0 - K * math.exp(-r * T)


def atom_table(measures):
    """(x, y, p) float arrays per measure from ``[(x, y, p), ...]`` lists."""
    return [tuple(np.array([a[i] for a in atoms], dtype=float) for i in range(3))
            for atoms in measures]


def c_explicit(measures, c_phi: float, beta: float) -> float:
    """Headline rate constant 2124 c_phi (1 + M3^(b/3) + MY2^(b/2)) (1 + M3^(2/3) + M3 + MY2^(1/2) + MY2)
    with M3 = max E|X|^3 and MY2 = max E|Y|^2 over the measures (d = 1)."""
    tab = atom_table(measures)
    m3 = max(float(p @ np.abs(x) ** 3) for x, _, p in tab)
    my2 = max(float(p @ y**2) for _, y, p in tab)
    return (
        2124.0 * c_phi
        * (1.0 + m3 ** (beta / 3.0) + my2 ** (beta / 2.0))
        * (1.0 + m3 ** (2.0 / 3.0) + m3 + my2**0.5 + my2)
    )


def consistency_error(measures, delta: float, points) -> float:
    """Sup over points of |(S_delta psi - psi)/delta - G(psi', psi'')| for psi = exp(-x^2/2)."""
    x = np.asarray(points, dtype=float)
    psi = lambda z: np.exp(-0.5 * z * z)
    g1 = -x * psi(x)
    g2 = (x * x - 1.0) * psi(x)
    s_best = np.full(x.shape, -np.inf)
    g_best = np.full(x.shape, -np.inf)
    for xs, ys, ps in atom_table(measures):
        shifted = x[:, None] + math.sqrt(delta) * xs[None, :] + delta * ys[None, :]
        s_best = np.maximum(s_best, psi(shifted) @ ps)
        g_best = np.maximum(g_best, g1 * float(ps @ ys) + 0.5 * g2 * float(ps @ xs**2))
    return float(np.max(np.abs((s_best - psi(x)) / delta - g_best)))
