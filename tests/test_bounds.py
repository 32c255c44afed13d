import math

import numpy as np
import pytest

import gscheme as gs
from gscheme.bounds import _bump_derivative, _bump_masses, mollifier_mass


def zero_moments(**overrides):
    base = dict(m_x2=0.0, m_x3=0.0, m_x4=0.0, m_x_2plusalpha=0.0, alpha=1.0,
                m_y1=0.0, m_y2=0.0, sigma_lower_sq=0.0, no_mean_uncertainty=True, d=1)
    base.update(overrides)
    return gs.MomentReport(**base)


class TestConstants:
    def test_k0_unit_moments(self):
        rep = gs.compute_constants(zero_moments(m_x2=1.0), 1.0, 1.0, 1.0, c_rho=1.0)
        assert rep.k0 == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_explicit_constant_12744(self):
        rep = gs.compute_constants(zero_moments(m_x3=1.0), 1.0, 1.0, 1.0, c_rho=1.0)
        assert rep.c_explicit == pytest.approx(12744.0, abs=1e-9)

    def test_all_zero_moments(self):
        rep = gs.compute_constants(zero_moments(), 1.0, 1.0, 1.0, c_rho=1.0)
        assert rep.k0 == 0.0
        assert rep.k1 == 1.0

    def test_ub_is_2sqrt3_lb(self):
        rep = gs.compute_constants(zero_moments(m_x2=0.3, m_x3=0.2, m_y1=0.1, m_y2=0.4),
                                   2.0, 0.7, 1.5, c_rho=5.0)
        assert rep.c_ub == pytest.approx(2 * math.sqrt(3) * rep.c_lb, abs=1e-12)
        assert rep.c_lb == pytest.approx(2.0 * (1 + rep.k0) * (4 + rep.k1 * 5.0 * 1.5), rel=1e-14)

    def test_linearity_in_c_phi(self):
        m = zero_moments(m_x2=0.3, m_x3=0.2, m_y1=0.1, m_y2=0.4)
        a = gs.compute_constants(m, 1.0, 1.0, 1.0, c_rho=2.0)
        b = gs.compute_constants(m, 3.0, 1.0, 1.0, c_rho=2.0)
        for field in ("c_lb", "c_ub", "c_explicit"):
            assert getattr(b, field) == pytest.approx(3 * getattr(a, field), rel=1e-12)

    def test_applicability_flag_and_validation(self):
        m = zero_moments()
        assert gs.compute_constants(m, 1.0, 1.0, 1.0, c_rho=1.0).explicit_applicable
        assert not gs.compute_constants(m, 1.0, 1.0, 0.5, c_rho=1.0).explicit_applicable
        with pytest.raises(gs.ArgumentError):
            gs.compute_constants(m, 1.0, 1.5, 1.0, c_rho=1.0)
        with pytest.raises(gs.ArgumentError):
            gs.compute_constants(m, -1.0, 1.0, 1.0, c_rho=1.0)


class TestMollifierConstant:
    def test_below_paper_ceiling(self):
        assert gs.compute_c_rho() < 1e3 * math.exp(-1.0)

    def test_frozen_value(self):
        # regression pin; adaptive quadrature at rel_tol 1e-9 gives 145.58578146370
        assert gs.compute_c_rho() == pytest.approx(145.5857814633, rel=1e-9)

    def test_mass_is_one(self):
        assert mollifier_mass() == pytest.approx(1.0, abs=1e-8)

    def test_masses_match_independent_quadrature(self):
        from scipy.integrate import quad

        exact = _bump_masses()
        for k in range(4):
            val, _ = quad(lambda x: abs(_bump_derivative(x, k)), -1.0, 1.0,
                          limit=400, epsrel=1e-10, epsabs=0.0)
            assert exact[k] == pytest.approx(val, rel=1e-9), k


class TestConsistencyError:
    def test_affine_psi_is_exact(self):
        u = gs.bsb_family(0.05, 0.1, 0.3, 5)
        psi = gs.SmoothFunction("affine", lambda x: 2.0 * x + 1.0, lambda x: 2.0,
                                lambda x: 0.0, {"d2": 0.0, "d3": 0.0, "d4": 0.0}, (-2, 2))
        err = gs.consistency_error(u, 0.01, psi, np.linspace(-2, 2, 41))
        assert err < 1e-12

    def test_pure_quadratic_is_exact(self):
        u = gs.pm_sigma_family([0.1, 0.3])
        psi = gs.SmoothFunction("halfsquare", lambda x: 0.5 * x * x, lambda x: x,
                                lambda x: 1.0, {"d2": 1.0, "d3": 0.0, "d4": 0.0}, (-2, 2))
        err = gs.consistency_error(u, 0.25, psi, np.linspace(-2, 2, 41))
        assert err < 1e-12

    def test_sine_under_prop51_ii_bound(self):
        u = gs.pm_sigma_family([0.1, 0.3])
        mom = gs.validate(u)
        psi = gs.sine()
        for k in range(2, 11):
            delta = 2.0**-k
            err = gs.consistency_error(u, delta, psi, psi.sample_points())
            bound = gs.consistency_bounds(mom, psi.norms, delta, "prop51_ii")
            assert err <= bound

    def test_missing_derivative_callback(self):
        u = gs.pm_sigma_family([0.1])
        psi = gs.SmoothFunction("no-hess", lambda x: x, lambda x: 1.0, None, {}, (-1, 1))
        with pytest.raises(gs.ArgumentError, match="hess"):
            gs.consistency_error(u, 0.1, psi, [0.0])


class TestConsistencyBounds:
    def test_prop51_ii_substitution(self):
        m = zero_moments(m_x2=1.0, m_x3=1.0)
        got = gs.consistency_bounds(m, {"d3": 1.0, "d2": 1.0}, 0.01, "prop51_ii")
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_appendix_zero_norms(self):
        m = zero_moments(m_x2=1.0, m_x3=1.0, m_x4=1.0, m_y2=1.0)
        got = gs.consistency_bounds(m, {"d4": 0.0, "d3": 0.0, "d2": 0.0}, 0.5, "appendix")
        assert got == 0.0

    def test_prop51_i_reduces_to_ii_at_alpha_one(self):
        m = zero_moments(m_x2=0.4, m_x3=0.2, m_x_2plusalpha=0.2, alpha=1.0, m_y2=0.1)
        via_i = gs.consistency_bounds(m, {"d2_c_alpha": 0.7, "d2": 0.3}, 0.0625, "prop51_i")
        via_ii = gs.consistency_bounds(m, {"d3": 0.7, "d2": 0.3}, 0.0625, "prop51_ii")
        assert via_i == pytest.approx(via_ii, rel=1e-14)

    def test_missing_seminorm_named(self):
        m = zero_moments()
        with pytest.raises(gs.ArgumentError, match="d3"):
            gs.consistency_bounds(m, {"d2": 1.0}, 0.1, "prop51_ii")
        with pytest.raises(gs.ArgumentError, match="variant"):
            gs.consistency_bounds(m, {}, 0.1, "nonsense")

    def test_time_dependent_variants_evaluate(self):
        m = zero_moments(m_x2=0.5, m_x3=0.25, m_x_2plusalpha=0.25, m_y1=0.1, m_y2=0.2)
        norms = {"d3": 1.0, "d2": 1.0, "dt2": 1.0, "dt_d2": 0.5, "dt_d1": 0.5,
                 "d2_c_parab": 1.0, "dt_c_parab": 1.0}
        b = gs.consistency_bounds(m, norms, 0.04, "prop52_iii_b")
        k1 = 1 + 0.1 + 0.2 + 0.5 + 0.25
        assert b == pytest.approx(k1 * (0.2 * 2.0 + 0.04 * 2.0), rel=1e-12)
        a = gs.consistency_bounds(m, norms, 0.04, "prop52_iii_a")
        k_alpha = 1 + 0.1 + 0.2 + 0.5 + 0.25
        assert a == pytest.approx(k_alpha * (0.2 * 2.0 + 0.2 * 1.0 + 0.04 * 1.0), rel=1e-12)


class TestBsbFamilyRefinement:
    def test_appendix_rate_on_drift_tied_family(self):
        u = gs.bsb_family(0.05, 0.1, 0.3, 9)
        mom = gs.validate(u)
        psi = gs.gaussian_bump()
        pairs = []
        for k in range(2, 11):
            delta = 2.0**-k
            err = gs.consistency_error(u, delta, psi, psi.sample_points())
            bound = gs.consistency_bounds(mom, psi.norms, delta, "appendix")
            assert err <= bound
            pairs.append((delta, err))
        fit = gs.fit_rate(pairs, target=1.0, slack=0.15)
        assert fit.fitted_slope >= 0.95


def test_builtin_smooth_functions_have_correct_derivatives():
    for psi in (gs.gaussian_bump(), gs.sine(), gs.cubic_spline_psi()):
        h = 1e-6
        for x in (-1.3, -0.2, 0.7, 1.9):
            fd_grad = (psi.value(x + h) - psi.value(x - h)) / (2 * h)
            fd_hess = (psi.value(x + h) - 2 * psi.value(x) + psi.value(x - h)) / h**2
            assert psi.grad(x) == pytest.approx(fd_grad, abs=5e-5)
            assert psi.hess(x) == pytest.approx(fd_hess, abs=5e-3)


def test_gaussian_bump_seminorms_are_suprema():
    psi = gs.gaussian_bump()
    xs = np.linspace(-8, 8, 20001)
    g = np.exp(-0.5 * xs**2)
    d2 = np.abs((xs**2 - 1) * g)
    d3 = np.abs(xs * (3 - xs**2) * g)
    d4 = np.abs((xs**4 - 6 * xs**2 + 3) * g)
    assert psi.norms["d2"] == pytest.approx(d2.max(), abs=1e-6)
    assert psi.norms["d3"] == pytest.approx(d3.max(), abs=1e-6)
    assert psi.norms["d4"] == pytest.approx(d4.max(), abs=1e-6)
