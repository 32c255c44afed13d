"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import gscheme as gs
from conftest import make_random_family, make_shared_displacement_config


def report(num, label, ok, detail):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_axiom_suite():
    t0 = time.time()
    worst, per_axiom = gs.axiom_suite(n_trials=200, seed=0)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "axiom suite", ok,
           f"max violation {worst:.2e}, per-axiom {per_axiom}, {elapsed:.1f}s")


def test_criterion_2_three_way_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst_tree_lattice = 0.0
    errs_h, errs_h2 = [], []
    for _ in range(50):
        u, phi, n, delta, x0 = make_shared_displacement_config(rng)
        tree = gs.brute_force_tree(u, delta, n, [x0], phi)
        lat = gs.solve_lattice(u, delta, n, [x0], phi).value
        worst_tree_lattice = max(worst_tree_lattice, abs(tree - lat))
        half = abs(x0) + n * (math.sqrt(delta) * 1.2 + delta * 1.5) + 0.5
        pair = []
        for h in (1e-3, 5e-4):
            n_grid = int(round(2 * half / h)) + 1
            cfg = gs.SchemeConfig(delta=delta, horizon=n * delta, grid_lo=(x0 - half,),
                                  grid_hi=(x0 + half,), grid_n=(n_grid,))
            pair.append(abs(gs.solve_grid(u, cfg, phi).value_at(n * delta, x0) - lat))
        errs_h.append(pair[0])
        errs_h2.append(pair[1])
    elapsed = time.time() - t0
    max_h, max_h2 = max(errs_h), max(errs_h2)
    mean_h, mean_h2 = float(np.mean(errs_h)), float(np.mean(errs_h2))
    ok = (
        worst_tree_lattice <= 1e-12
        and max_h <= 5e-3
        and max_h2 <= max_h / 2
        and mean_h2 <= mean_h / 2
        and elapsed < 60.0
    )
    report(2, "three-way oracle agreement", ok,
           f"tree-lattice {worst_tree_lattice:.1e}; grid-lattice max {max_h:.2e} -> "
           f"{max_h2:.2e}, mean {mean_h:.2e} -> {mean_h2:.2e}, {elapsed:.1f}s")


def test_criterion_3_crr_black_scholes_limit():
    t0 = time.time()
    r, sigma, T, K, delta = 0.05, 0.2, 1.0, 1.0, 1e-3
    spec = gs.BsbSpec(r, sigma, sigma, T, gs.make_payoff("put", K), n_sigma=1, delta=delta)
    price = gs.bsb_price(spec, 1.0)

    # independent recombining-tree arithmetic
    n = int(round(T / delta))
    dt = T / n
    drift = (r - 0.5 * sigma * sigma) * dt
    dx = sigma * math.sqrt(dt)
    x = n * drift + (2 * np.arange(n + 1) - n) * dx
    v = np.maximum(K - np.exp(x), 0.0)
    for _ in range(n):
        v = 0.5 * v[1:] + 0.5 * v[:-1]
    crr = float(v[0]) * math.exp(-r * T)

    bs = gs.bs_closed_form(r, sigma, T, K, 1.0)
    grid_price = gs.bsb_price(spec, 1.0, backend="grid", h=2.5e-3)
    elapsed = time.time() - t0
    ok = (
        abs(price - crr) <= 1e-12
        and abs(price - bs) <= 5e-3
        and abs(grid_price - bs) <= 5e-3
        and elapsed < 30.0
    )
    report(3, "classical CRR / Black-Scholes limit", ok,
           f"|price-CRR| {abs(price - crr):.1e}, |price-BS| {abs(price - bs):.2e}, "
           f"|grid-BS| {abs(grid_price - bs):.2e}, {elapsed:.1f}s")


def test_criterion_4_robust_clt_explicit_bound():
    t0 = time.time()
    u = gs.pm_sigma_family([0.1, 0.3])
    phi = gs.builtin_phi("capped-relu")  # min(x+, 1): c_phi = 1, beta = 1
    moments = gs.validate(u)
    c_explicit = gs.compute_constants(moments, 1.0, 1.0, 1.0).c_explicit
    n_list = [2, 4, 8, 16, 32, 64]
    reference = gs.fine_grid_reference(u, phi, 1.0, 0.0, target_delta=1.0 / max(n_list))
    result = gs.clt_experiment(u, phi, n_list, reference, c_explicit, beta=1.0)
    elapsed = time.time() - t0
    ok = (
        reference.accuracy <= 2e-4
        and result.passed
        and all(r.error <= r.bound for r in result.rows)
        and elapsed < 300.0
    )
    slack = min(r.bound / max(r.error, 1e-300) for r in result.rows)
    report(4, "robust CLT explicit bound", ok,
           f"c_explicit {c_explicit:.1f}, ref {reference.value:.6f} "
           f"(acc {reference.accuracy:.1e}), min bound/error {slack:.1e}, "
           f"fitted slope {result.fitted_slope:.3f}, {elapsed:.1f}s")


def test_criterion_5_lln_rate():
    t0 = time.time()
    u = gs.lln_box_family(0.0, 0.1)
    theta = gs.ThetaSet.box([0.0], [0.1])
    n_list = [4, 8, 16, 32, 64, 128, 256]
    result = gs.lln_experiment(u, theta, n_list)
    elapsed = time.time() - t0
    bounds_hold = all(r.error <= r.bound + 1e-14 for r in result.rows)
    ok = result.passed and bounds_hold and result.fitted_slope <= -0.35 and elapsed < 120.0
    report(5, "law-of-large-numbers rate", ok,
           f"slope {result.fitted_slope:.3f}, bounds hold {bounds_hold}, "
           f"err(n=4) {result.rows[-1].error:.3e}, {elapsed:.1f}s")


def test_criterion_6_consistency_bounds():
    t0 = time.time()
    pm = gs.pm_sigma_family([0.1, 0.3])
    pm_moments = gs.validate(pm)
    bsb = gs.bsb_family(0.05, 0.1, 0.3, 9)
    bsb_moments = gs.validate(bsb)
    all_under = True
    slopes = {}
    for psi in (gs.gaussian_bump(), gs.sine()):
        pts = psi.sample_points()
        pairs = []
        for k in range(2, 11):
            delta = 2.0**-k
            measured = gs.consistency_error(pm, delta, psi, pts)
            bound = gs.consistency_bounds(pm_moments, psi.norms, delta, "prop51_ii")
            all_under = all_under and measured <= bound
            measured_bsb = gs.consistency_error(bsb, delta, psi, pts)
            bound_bsb = gs.consistency_bounds(bsb_moments, psi.norms, delta, "appendix")
            all_under = all_under and measured_bsb <= bound_bsb
            pairs.append((delta, measured_bsb))
        slopes[psi.name] = gs.fit_rate(pairs).fitted_slope
    elapsed = time.time() - t0
    ok = all_under and all(s >= 0.95 for s in slopes.values()) and elapsed < 30.0
    report(6, "consistency error bounds", ok,
           f"all under bound {all_under}, refined slopes {slopes}, {elapsed:.1f}s")


def test_criterion_7_comparison_principle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(50):
        u = make_random_family(rng, zero_mean_x=True)
        cfg = gs.SchemeConfig(delta=1 / 8, horizon=1.0, grid_lo=(-6.0,), grid_hi=(6.0,),
                              grid_n=(161,))
        scale = float(rng.random())
        phi_under = gs.builtin_phi("capped-relu")
        phi_over = gs.InitialData(
            "lifted",
            lambda x, s=scale: np.minimum(np.maximum(np.asarray(x, float), 0.0), 1.0)
            + s * np.abs(np.sin(3 * np.asarray(x, float))),
            0.0,
        )
        a1 = float(rng.normal(scale=0.3))
        a2 = a1 + float(rng.random())

        def shift(sol, a):
            steps = [dataclasses.replace(s, values=s.values + a * i * sol.config.delta)
                     for i, s in enumerate(sol.steps)]
            return dataclasses.replace(sol, steps=steps)

        under = shift(gs.solve_grid(u, cfg, phi_under), a1)
        over = shift(gs.solve_grid(u, cfg, phi_over), a2)
        ok_pair, viol = gs.check_comparison(under, over, a1, a2, slack=1e-9)
        assert ok_pair, f"comparison violated by {viol:.2e}"
        worst = max(worst, viol)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(7, "discrete comparison principle", ok,
           f"max violation {worst:.2e} over 50 pairs, {elapsed:.1f}s")


def test_criterion_8_constants_arithmetic():
    t0 = time.time()
    mom = gs.MomentReport(m_x2=1.0, m_x3=0.0, m_x4=0.0, m_x_2plusalpha=0.0, alpha=1.0,
                          m_y1=0.0, m_y2=0.0, sigma_lower_sq=0.0,
                          no_mean_uncertainty=True, d=1)
    k0 = gs.compute_constants(mom, 1.0, 1.0, 1.0, c_rho=1.0).k0
    mom2 = dataclasses.replace(mom, m_x2=0.0, m_x3=1.0)
    c_explicit = gs.compute_constants(mom2, 1.0, 1.0, 1.0, c_rho=1.0).c_explicit
    c_rho = gs.compute_c_rho()
    elapsed = time.time() - t0
    ok = (
        abs(k0 - math.exp(0.5)) <= 1e-12
        and abs(c_explicit - 12744.0) <= 1e-9
        and c_rho < 1e3 * math.exp(-1.0)
        and elapsed < 10.0
    )
    report(8, "explicit constants arithmetic", ok,
           f"k0-e^0.5 {abs(k0 - math.exp(0.5)):.1e}, c_explicit-12744 "
           f"{abs(c_explicit - 12744.0):.1e}, c_rho {c_rho:.2f} < 367.88, {elapsed:.1f}s")


def test_criterion_9_bsb_rate():
    t0 = time.time()
    deltas = [2.0**-k for k in range(5, 11)]
    details = {}
    ok = True
    for payoff in (gs.make_payoff("put", 1.0), gs.make_payoff("capped-call", 1.0, 0.5)):
        spec = gs.BsbSpec(0.05, 0.1, 0.3, 1.0, payoff, n_sigma=5, delta=deltas[0])
        res = gs.bsb_rate_experiment(spec, 1.0, deltas, target_slope=0.25, slack=0.15)
        errs = res.errors()
        monotone = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        details[payoff.name] = (round(res.fitted_slope, 3), monotone)
        ok = ok and res.passed and res.fitted_slope >= 0.10 and monotone
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(9, "pricing-scheme convergence rate", ok, f"{details}, {elapsed:.1f}s")
