import math

import numpy as np
import pytest
from scipy.stats import norm

import gscheme as gs
from conftest import make_shared_displacement_config


class TestBlackScholes:
    def test_reference_value(self):
        # independent arithmetic: scipy normal CDF
        got = gs.bs_closed_form(0.05, 0.2, 1.0, 1.0, 1.0)
        want = math.exp(-0.05) * norm.cdf(-0.15) - norm.cdf(-0.35)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.0557, abs=1e-4)

    def test_vanishing_strike(self):
        assert gs.bs_closed_form(0.05, 0.2, 1.0, 0.0, 1.0) == 0.0
        assert gs.bs_closed_form(0.05, 0.2, 1.0, 1e-12, 1.0) < 1e-11

    def test_short_maturity_limit(self):
        assert gs.bs_closed_form(0.05, 0.2, 1e-10, 1.2, 1.0) == pytest.approx(0.2, abs=1e-5)
        assert gs.bs_closed_form(0.05, 0.2, 1e-10, 0.8, 1.0) == pytest.approx(0.0, abs=1e-8)


class TestBruteForceTree:
    def test_single_step_equals_expectation(self, rng):
        u, phi, _n, delta, x0 = make_shared_displacement_config(rng)
        got = gs.brute_force_tree(u, delta, 1, [x0], phi)
        want = gs.sublinear_expect(
            u, lambda x, y: float(phi(np.array([x0 + math.sqrt(delta) * x[0] + delta * y[0]]))[0])
        )
        assert got == pytest.approx(want, abs=1e-13)

    def test_zero_family_any_depth(self):
        phi = gs.builtin_phi("abs")
        for n in (1, 2, 3, 4):
            assert gs.brute_force_tree(gs.zero_family(), 0.5, n, [0.7], phi) == pytest.approx(0.7)

    def test_depth_cap(self):
        with pytest.raises(gs.ArgumentError):
            gs.brute_force_tree(gs.zero_family(), 0.5, 5, [0.0], gs.builtin_phi("abs"))

    def test_agrees_with_lattice(self, rng):
        for _ in range(5):
            u, phi, n, delta, x0 = make_shared_displacement_config(rng)
            tree = gs.brute_force_tree(u, delta, n, [x0], phi)
            lat = gs.solve_lattice(u, delta, n, [x0], phi).value
            assert tree == pytest.approx(lat, abs=1e-12)


class TestFineGridReference:
    def test_deterministic_transport_is_exact(self):
        q = 0.25
        u = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.0], [q], 1.0),)),), d=1)
        ref = gs.fine_grid_reference(u, gs.builtin_phi("abs"), 1.0, 0.3)
        assert ref.meta["backend"] == "lattice"
        assert ref.value == pytest.approx(abs(0.3 + q), abs=1e-12)

    def test_second_moment_identity(self):
        u = gs.pm_sigma_family([0.7])
        ref = gs.fine_grid_reference(u, gs.builtin_phi("square"), 1.0, 0.0)
        assert ref.value == pytest.approx(0.49, abs=1e-6)

    def test_convex_payoff_reduces_to_largest_volatility(self):
        u = gs.pm_sigma_family([0.1, 0.3])
        ref = gs.fine_grid_reference(u, gs.builtin_phi("relu"), 1.0, 0.0,
                                     delta_ref=1.0 / 1024.0)
        classical = gs.classical_normal_reference(gs.builtin_phi("relu"), 0.3)
        assert abs(ref.value - classical.value) <= max(2e-4, 3 * ref.accuracy)

    def test_accuracy_always_recorded(self):
        u = gs.pm_sigma_family([0.5])
        ref = gs.fine_grid_reference(u, gs.builtin_phi("abs"), 1.0, 0.0, delta_ref=1 / 256)
        assert ref.accuracy > 0
        assert ref.method == "fine_grid_gheat"
        with pytest.raises(gs.ArgumentError):
            gs.ReferenceSolution(1.0, "fine_grid_gheat", 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"delta_ref": 0.0}, {"delta_ref": -1.0}, {"delta_ref": math.nan},
        {"delta_ref": 1.5}, {"target_delta": 0.0}, {"target_delta": math.nan},
    ])
    def test_rejects_out_of_range_time_step(self, kwargs):
        u = gs.pm_sigma_family([0.1, 0.3])
        with pytest.raises(gs.ArgumentError):
            gs.fine_grid_reference(u, gs.builtin_phi("relu"), 1.0, 0.0, **kwargs)

    def test_classical_limit_single_measure(self):
        # one-measure family: the recursion limit is the classical expectation
        u = gs.pm_sigma_family([0.5])
        ref = gs.fine_grid_reference(u, gs.builtin_phi("relu"), 1.0, 0.0)
        classical = gs.classical_normal_reference(gs.builtin_phi("relu"), 0.5)
        assert abs(ref.value - classical.value) <= max(3 * ref.accuracy, 1e-6)


class TestClassicalNormal:
    def test_relu_closed_form(self):
        ref = gs.classical_normal_reference(gs.builtin_phi("relu"), 1.0)
        assert ref.value == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-9)

    def test_scaling(self):
        ref = gs.classical_normal_reference(gs.builtin_phi("relu"), 0.3)
        assert ref.value == pytest.approx(0.3 / math.sqrt(2 * math.pi), abs=1e-9)

    def test_degenerate_sigma(self):
        ref = gs.classical_normal_reference(gs.builtin_phi("abs"), 0.0)
        assert ref.value == 0.0


class TestMaximalSup:
    def test_singleton(self):
        theta = gs.ThetaSet.box([0.4], [0.4])
        assert gs.maximal_sup(theta, gs.builtin_phi("square")) == pytest.approx(0.16)

    def test_monotone_function_attains_right_edge(self):
        theta = gs.ThetaSet.box([0.0], [1.0])
        fn = gs.InitialData("id", lambda x: np.asarray(x, float), -10.0)
        assert gs.maximal_sup(theta, fn) == pytest.approx(1.0, abs=1e-12)

    def test_interior_quadratic_peak(self):
        theta = gs.ThetaSet.box([-1.0], [1.0])
        fn = gs.InitialData("peak", lambda x: -((np.asarray(x, float) - 0.3) ** 2), -10.0)
        assert gs.maximal_sup(theta, fn) == pytest.approx(0.0, abs=1e-7)

    def test_point_cloud_exact(self):
        theta = gs.ThetaSet.from_points([[0.1], [0.5], [0.9]])
        fn = gs.InitialData("sq", lambda x: np.asarray(x, float) ** 2, 0.0)
        assert gs.maximal_sup(theta, fn) == pytest.approx(0.81, abs=1e-15)


@pytest.mark.slow
def test_three_way_agreement_sample(rng):
    for _ in range(10):
        u, phi, n, delta, x0 = make_shared_displacement_config(rng)
        tree = gs.brute_force_tree(u, delta, n, [x0], phi)
        lat = gs.solve_lattice(u, delta, n, [x0], phi).value
        assert abs(tree - lat) <= 1e-12
        half = abs(x0) + n * (math.sqrt(delta) * 1.2 + delta * 1.5) + 0.5
        n_grid = int(round(2 * half / 1e-3)) + 1
        cfg = gs.SchemeConfig(delta=delta, horizon=n * delta, grid_lo=(x0 - half,),
                              grid_hi=(x0 + half,), grid_n=(n_grid,))
        grid_val = gs.solve_grid(u, cfg, phi).value_at(n * delta, x0)
        assert abs(grid_val - lat) <= 5e-3
