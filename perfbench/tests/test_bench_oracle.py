"""The benchmark's oracles agree with gscheme where both are exact."""

import math

import numpy as np
import pytest

import gscheme as gs

import gen
import ops
import oracle

CAPPED = gs.capped_relu(0.4)


@pytest.mark.parametrize("ks", [[1, 3], [2, 5, 6], [1, 6]])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
def test_commensurate_lattice_matches_solve_lattice(ks, n):
    fam = {"type": "pm", "ks": ks, "q": 0.3 / max(ks)}
    got = oracle.lattice_value(ops.make_lattice(fam), 1.0 / n, n, [0.0], CAPPED)
    want = gs.solve_lattice(ops.make_family(fam), 1.0 / n, n, [0.0], CAPPED).value
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [2, 16, 32])
def test_generic_lattices_match_solve_lattice(n):
    for fam in ({"type": "pm-generic", "sigmas": [0.1734, 0.3]},
                {"type": "drift", "sigmas": [0.17, 0.29], "mus": [0.05, -0.11]}):
        if fam["type"] == "drift" and n > 16:
            continue
        got = oracle.lattice_value(ops.make_lattice(fam), 1.0 / n, n, [0.0], CAPPED)
        want = gs.solve_lattice(ops.make_family(fam), 1.0 / n, n, [0.0], CAPPED).value
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_matches_brute_force(n):
    fams = [
        {"type": "pm", "ks": [1, 3], "q": 0.1},
        {"type": "drift", "sigmas": [0.17, 0.29], "mus": [0.05, -0.11]},
    ]
    for fam in fams:
        got = oracle.lattice_value(ops.make_lattice(fam), 1.0 / n, n, [0.0], CAPPED)
        want = gs.brute_force_tree(ops.make_family(fam), 1.0 / n, n, [0.0], CAPPED)
        assert abs(got - want) <= 1e-12
    slot = [s for s in gen.generate("grid-solves", 1) if s["kind"] == "grid2d"][0]
    phi = ops.make_phi(slot["phi"])
    got = oracle.lattice_value(ops.make_lattice(slot["family"]), 1.0 / n, n, [0.0, 0.0], phi)
    want = gs.brute_force_tree(ops.make_family(slot["family"]), 1.0 / n, n, [0.0, 0.0], phi)
    assert abs(got - want) <= 1e-12


def test_two_point_lattice_matches_lln_box():
    lo, hi = -0.1, 0.05
    a, b = lo - 0.45, hi + 0.45
    lams = [(mu - a) / (b - a) for mu in np.linspace(lo, hi, 5)]
    lat = oracle.two_point_y_lattice(a, b, lams)
    fam = gs.lln_box_family(lo, hi)
    for n in (4, 64):
        got = oracle.lattice_value(lat, 1.0 / n, n, [0.0], CAPPED)
        want = gs.solve_lattice(fam, 1.0 / n, n, [0.0], CAPPED).value
        assert abs(got - want) <= 1e-12


def test_richardson_limit_converges():
    lat = oracle.pm_sigma_lattice([1, 3], 0.1)
    phi = gs.capped_relu(1.0)
    v1, acc1 = oracle.richardson_limit(lat, 1.0, 128, [0.0], phi)
    v2, acc2 = oracle.richardson_limit(lat, 1.0, 256, [0.0], phi)
    assert acc2 < acc1
    assert abs(v2 - v1) < acc1


@pytest.mark.parametrize("sigma,s0", [(0.2, 1.0), (0.13, 0.93), (0.29, 1.08)])
def test_crr_matches_exact_tree_and_black_scholes(sigma, s0):
    pay = gs.make_payoff("put", 1.0)
    delta = 1 / 512
    spec = gs.BsbSpec(0.04, sigma, sigma, 1.0, pay, n_sigma=1, delta=delta)
    crr = oracle.crr_price(0.04, sigma, 1.0, delta, s0, pay.value)
    assert abs(gs.bsb_price(spec, s0) - crr) <= gen.CRR_TOL
    assert abs(crr - oracle.bs_put(0.04, sigma, 1.0, 1.0, s0)) <= gen.PRICE_TOL
    assert oracle.bs_put(0.04, sigma, 1.0, 1.0, s0) == pytest.approx(
        gs.bs_closed_form(0.04, sigma, 1.0, 1.0, s0), abs=1e-14)


def test_constants_oracles():
    fam = {"type": "pm-generic", "sigmas": [0.1, 0.2, 0.3]}
    atoms = gen.family_atoms(fam)
    report = gs.compute_constants(gs.validate(ops.make_family(fam)), 1.0, 1.0, 1.0)
    assert report.c_explicit == pytest.approx(oracle.c_explicit(atoms, 1.0, 1.0), rel=1e-12)
    psi = gs.gaussian_bump()
    for delta in (0.25, 0.03125):
        want = gs.consistency_error(ops.make_family(fam), delta, psi, psi.sample_points())
        got = oracle.consistency_error(atoms, delta, psi.sample_points())
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_crr_weights_sum_to_one():
    # a constant payoff prices to its discounted value
    price = oracle.crr_price(0.03, 0.2, 1.0, 1 / 1024, 1.0, lambda s: np.ones_like(s))
    assert price == pytest.approx(math.exp(-0.03), rel=1e-13)


def test_bs_call_matches_crr_and_parity():
    call = lambda s: np.maximum(s - 1.05, 0.0)
    for sigma in (0.1, 0.3):
        crr = oracle.crr_price(0.04, sigma, 1.0, 1 / 2048, 1.0, call)
        assert abs(crr - oracle.bs_call(0.04, sigma, 1.0, 1.05, 1.0)) <= 1e-3


def _op(kind):
    slot = [s for s in gen.generate("grid-solves", 2) if s["kind"] == kind
            and s.get("payoff", "put") == ("capped-call" if kind == "band" else "put")][0]
    return ops.build_op(slot, "")


def test_capped_call_band_is_checked_from_above():
    op = _op("band")
    ref = op.reference()
    assert ref["endpoints"] < ref["upper"]
    assert op.compare(ref["upper"], ref) == 0.0
    assert op.compare(ref["upper"] + 2 * gen.PRICE_TOL, ref) == pytest.approx(2.0)


def test_rate_study_errors_are_checked_against_black_scholes():
    op = _op("rate")
    res = op.run()
    assert op.check(res) <= 1.0
    # errors scaled by 1.5 keep the fitted slope, so only the comparison with
    # Black-Scholes can catch them
    rows = tuple(type(r)(r.resolution, 1.5 * r.error) for r in res.rows)
    scaled = type(res)(rows, res.fitted_slope, res.fitted_intercept, res.passed, res.label)
    assert op.check(scaled) > 1.0
