import dataclasses
import math

import numpy as np
import pytest

import gscheme as gs
from conftest import make_random_family
from gscheme.analysis import richardson


class TestFitRate:
    def test_exact_linear_decay(self):
        pairs = [(2.0**-k, 2.0**-k) for k in range(3, 9)]
        res = gs.fit_rate(pairs, target=1.0)
        assert res.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert res.passed

    def test_sqrt_decay_with_noise(self):
        rng = np.random.default_rng(3)
        pairs = [(r, r**0.5 * (1 + 0.01 * rng.standard_normal())) for r in
                 (0.5, 0.25, 0.125, 0.0625, 0.03125)]
        res = gs.fit_rate(pairs, target=0.5)
        assert 0.45 <= res.fitted_slope <= 0.55

    def test_constant_errors_fail_positive_target(self):
        pairs = [(0.5, 0.3), (0.25, 0.3), (0.125, 0.3)]
        res = gs.fit_rate(pairs, target=0.5)
        assert res.fitted_slope == pytest.approx(0.0, abs=1e-12)
        assert not res.passed

    def test_noise_floor_rows_pass(self):
        pairs = [(0.5, 0.0), (0.25, 1e-16), (0.125, 0.0)]
        res = gs.fit_rate(pairs, target=1.0)
        assert res.passed

    def test_requires_three_distinct(self):
        with pytest.raises(gs.ArgumentError):
            gs.fit_rate([(0.5, 1.0), (0.25, 0.5)])
        with pytest.raises(gs.ArgumentError):
            gs.fit_rate([(0.5, 1.0), (0.5, 0.5), (0.25, 0.2)])

    def test_rows_sorted_by_decreasing_resolution(self):
        res = gs.fit_rate([(0.125, 0.1), (0.5, 0.4), (0.25, 0.2)])
        assert [r.resolution for r in res.rows] == [0.5, 0.25, 0.125]
        assert all(r.error >= 0 for r in res.rows)


class TestRichardson:
    def test_scalar_monotone_extrapolates_to_limit(self):
        # v(delta) = 1 + delta: first order, limit 1
        fit = richardson(1.0 + 0.4, 1.0 + 0.2, 1.0 + 0.1)
        assert not fit.warning
        assert fit.order == pytest.approx(1.0, abs=1e-12)
        assert fit.value == pytest.approx(1.0, abs=1e-14)
        assert fit.estimate == pytest.approx(0.1, rel=1e-12)

    def test_scalar_sign_flip_warns(self):
        # d1 = +0.2, d2 = -0.1: the sup norms contract, the refinement does not
        fit = richardson(1.0, 1.2, 1.1)
        assert fit.warning
        assert fit.value == 1.1
        assert fit.estimate == pytest.approx(3 * 0.2, rel=1e-12)

    @pytest.mark.parametrize("v", [(2.0, 2.1, 2.1), (2.0, 2.0, 2.1)])
    def test_scalar_refinement_not_contracting_warns(self, v):
        fit = richardson(*v)
        assert fit.warning
        assert fit.value == v[2]
        assert fit.estimate == pytest.approx(0.3, rel=1e-12)

    def test_degenerate_differences(self):
        fit = richardson(5.0, 5.0 + 1e-14, 5.0 + 2e-14)
        assert not fit.warning
        assert fit.value == 5.0 + 2e-14
        assert fit.estimate == pytest.approx(5e-13, rel=1e-12)
        assert np.isnan(fit.order)

    def test_curve_with_mixed_sign_differences_does_not_warn(self):
        v4 = np.array([0.0, 0.0])
        v2 = v4 + np.array([0.4, -0.1])  # d1
        v1 = v2 + np.array([-0.05, 0.2])  # d2: |d2| = |d1| / 2 in the sup norm
        assert float(np.dot(v2 - v4, v1 - v2)) < 0
        fit = richardson(v4, v2, v1)
        assert not fit.warning
        assert fit.order == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fit.value, v1 + (v1 - v2), rtol=0, atol=1e-15)
        assert fit.estimate == pytest.approx(0.2, rel=1e-12)


def small_solution(phi, family=None, delta=1 / 8, half=6.0, n=161):
    cfg = gs.SchemeConfig(delta=delta, horizon=1.0, grid_lo=(-half,), grid_hi=(half,),
                          grid_n=(n,))
    fam = family if family is not None else gs.pm_sigma_family([0.2, 0.5])
    return gs.solve_grid(fam, cfg, phi)


def shift_in_time(sol, a):
    steps = [dataclasses.replace(s, values=s.values + a * i * sol.config.delta)
             for i, s in enumerate(sol.steps)]
    return dataclasses.replace(sol, steps=steps)


class TestComparison:
    def test_equality_case(self):
        sol = small_solution(gs.builtin_phi("abs"))
        ok, viol = gs.check_comparison(sol, sol, 0.0, 0.0)
        assert ok and viol <= 1e-9

    def test_constant_shift(self):
        phi = gs.builtin_phi("abs")
        sol = small_solution(phi)
        lifted = small_solution(gs.InitialData("abs+c", lambda x: np.abs(x) + 0.5, 0.5))
        ok, _ = gs.check_comparison(sol, lifted, 0.0, 0.0)
        assert ok

    def test_sin_perturbation(self):
        sol = small_solution(gs.builtin_phi("abs"))
        bumped = small_solution(
            gs.InitialData("abs+sin", lambda x: np.abs(x) + np.abs(np.sin(x)), 0.0)
        )
        ok, viol = gs.check_comparison(sol, bumped, 0.0, 0.0)
        assert ok, viol

    def test_residual_shifted_pair(self):
        sol = small_solution(gs.builtin_phi("abs"))
        under = shift_in_time(sol, -0.4)
        over = shift_in_time(sol, 0.3)
        ok, viol = gs.check_comparison(under, over, -0.4, 0.3)
        assert ok and viol <= 1e-9

    def test_h_gap_enters_conclusion(self):
        sol = small_solution(gs.builtin_phi("abs"))
        under = shift_in_time(sol, 0.2)   # residual +0.2 <= h1 = 0.2
        over = sol                        # residual 0 >= h2 = -0.1
        ok, viol = gs.check_comparison(under, over, 0.2, -0.1)
        assert ok, viol

    def test_precondition_failure_is_distinct(self):
        sol = small_solution(gs.builtin_phi("abs"))
        with pytest.raises(gs.PreconditionError):
            gs.check_comparison(shift_in_time(sol, 0.5), sol, 0.0, 0.0)
        with pytest.raises(gs.PreconditionError):
            gs.check_comparison(sol, shift_in_time(sol, -0.5), 0.0, 0.0)

    def test_randomized_pairs(self, rng):
        for _ in range(10):
            u = make_random_family(rng, zero_mean_x=True)
            base = gs.builtin_phi("capped-relu")
            bump_scale = float(rng.random())
            other = gs.InitialData(
                "perturbed",
                lambda x, s=bump_scale: np.minimum(np.maximum(np.asarray(x, float), 0.0), 1.0)
                + s * np.abs(np.sin(3 * np.asarray(x, float))),
                0.0,
            )
            a1 = float(rng.normal(scale=0.3))
            a2 = a1 + float(rng.random())
            under = shift_in_time(small_solution(base, family=u), a1)
            over = shift_in_time(small_solution(other, family=u), a2)
            ok, viol = gs.check_comparison(under, over, a1, a2)
            assert ok and viol <= 1e-9

    @pytest.mark.parametrize("h", [lambda t: 0.0, [0.0] * 8, np.zeros(161), "0", math.nan,
                                   math.inf, 1j],
                             ids=["callable", "list", "array", "str", "nan", "inf", "complex"])
    def test_h_must_be_a_finite_real(self, h):
        sol = small_solution(gs.builtin_phi("abs"))
        with pytest.raises(gs.ArgumentError, match="h1"):
            gs.check_comparison(sol, sol, h, 0.0)
        with pytest.raises(gs.ArgumentError, match="h2"):
            gs.check_comparison(sol, sol, 0.0, h)

    def test_memory_above_the_levels_is_a_few_levels(self):
        import tracemalloc

        phi = gs.builtin_phi("capped-relu")
        under = small_solution(phi, delta=1 / 64, half=4.0, n=2001)
        over = small_solution(gs.InitialData("lifted", lambda x: phi(x) + 0.1, 0.0), delta=1 / 64,
                              half=4.0, n=2001)
        tracemalloc.start()
        try:
            ok, worst = gs.check_comparison(under, over, 0.0, 0.0)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok and worst == pytest.approx(-0.1, abs=1e-12)
        assert peak < 16 * under.steps[0].values.nbytes


class TestModulus:
    def test_constant_initial_data(self):
        phi = gs.InitialData("c", lambda x: np.full_like(np.asarray(x, float), 1.0), 1.0)
        sol = small_solution(phi)
        assert gs.estimate_modulus(sol, "space", 1.0).measured == 0.0
        assert gs.estimate_modulus(sol, "time", 1.0, k0=1.0).measured == 0.0

    def test_put_space_modulus_bounded_by_strike(self):
        K = 1.0
        phi = gs.InitialData("log-put",
                             lambda x: np.maximum(K - np.exp(np.asarray(x, float)), 0.0),
                             0.0, c_phi=K)
        sol = small_solution(phi, family=gs.pm_sigma_family([0.1, 0.3]), half=3.0, n=401)
        rep = gs.estimate_modulus(sol, "space", c_phi=K, beta=1.0, x_window=(-1.5, 1.5))
        assert rep.passed
        assert rep.measured <= K + rep.slack

    def test_zero_x_refined_time_modulus(self):
        u = gs.lln_box_family(0.0, 0.1)
        cfg = gs.SchemeConfig(delta=1 / 16, horizon=1.0, grid_lo=(-2.0,), grid_hi=(2.0,),
                              grid_n=(201,))
        sol = gs.solve_grid(u, cfg, gs.builtin_phi("abs"))
        my1 = gs.moment(u, "Y", 1)
        rep = gs.estimate_modulus(sol, "time", c_phi=1.0, time_exponent=1.0, stated=my1,
                                  x_window=(-1.0, 1.0))
        assert rep.passed


def test_axiom_suite_clean():
    worst, per_axiom = gs.axiom_suite(n_trials=200, seed=0)
    assert worst <= 1e-12
    assert set(per_axiom) == {"monotone", "constant", "subadditive", "homogeneous"}


@pytest.mark.slow
def test_monotone_convergence_to_fine_reference():
    # volatility-band family with Lipschitz data: errors against a fine
    # reference shrink monotonically over dyadic time steps
    u = gs.pm_sigma_family([0.1, 0.3])
    phi = gs.builtin_phi("capped-relu")
    ref = gs.fine_grid_reference(u, phi, 1.0, 0.0, delta_ref=1.0 / 1024.0)
    errs = []
    for k in range(3, 9):
        n = 2**k
        h = 0.1 / np.sqrt(n) / 4.0  # volatility displacements land on grid cells
        errs.append(abs(gs.clt_functional(u, n, phi, backend="grid", grid_h=h) - ref.value))
    assert all(b <= a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] > 5 * ref.accuracy  # reference comfortably sharper than the errors
