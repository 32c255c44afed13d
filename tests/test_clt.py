import logging
import math

import numpy as np
import pytest

import gscheme as gs


class TestCltFunctional:
    def test_single_step_is_plain_expectation(self):
        u = gs.bsb_family(0.05, 0.1, 0.3, 3)
        phi = gs.builtin_phi("abs")
        got = gs.clt_functional(u, 1, phi)
        want = gs.sublinear_expect(u, lambda x, y: float(abs(x[0] + y[0])))
        assert got == pytest.approx(want, abs=1e-13)

    def test_two_steps_match_brute_force(self):
        u = gs.pm_sigma_family([0.4, 0.9])
        phi = gs.builtin_phi("capped-relu")
        got = gs.clt_functional(u, 2, phi)
        want = gs.brute_force_tree(u, 0.5, 2, [0.0], phi)
        assert got == pytest.approx(want, abs=1e-13)

    def test_deterministic_drift(self):
        q = 0.37
        u = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.0], [q], 1.0),)),), d=1)
        phi = gs.builtin_phi("abs")
        for n in (1, 3, 10):
            assert gs.clt_functional(u, n, phi) == pytest.approx(q, abs=1e-12)

    def test_shift_consistency(self):
        u = gs.pm_sigma_family([0.2, 0.5])
        a = 0.4
        base = gs.builtin_phi("capped-relu")
        shifted = gs.InitialData(
            "shifted", lambda x: base.fn(np.asarray(x, float) + a), 0.0, c_phi=1.0
        )
        for n in (1, 2, 5):
            v1 = gs.clt_functional(u, n, base)
            v2 = gs.solve_lattice(u, 1.0 / n, n, [-a], shifted).value
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_monotone_in_family(self):
        phi = gs.builtin_phi("capped-relu")
        small = gs.pm_sigma_family([0.2])
        large = gs.pm_sigma_family([0.2, 0.4])
        for n in (2, 4, 8):
            assert gs.clt_functional(large, n, phi) >= gs.clt_functional(small, n, phi) - 1e-14

    def test_grid_fallback_agrees_with_lattice(self):
        u = gs.pm_sigma_family([0.1, 0.3])
        phi = gs.builtin_phi("capped-relu")
        exact = gs.clt_functional(u, 8, phi, backend="lattice")
        approx = gs.clt_functional(u, 8, phi, backend="grid", grid_h=5e-4)
        assert approx == pytest.approx(exact, abs=5e-3)

    def test_commensurate_nine_sigma_family_stays_on_lattice(self, caplog):
        # sigma_i = k_i * 0.025: 18 displacements, yet level 64 holds only
        # 2 * 12 * 64 + 1 positions, so the lattice takes it without a fallback
        u = gs.pm_sigma_family([0.025 * k for k in (1, 2, 3, 5, 7, 8, 10, 11, 12)])
        phi = gs.builtin_phi("capped-relu")
        with caplog.at_level(logging.INFO, logger="gscheme"):
            exact = gs.clt_functional(u, 64, phi, backend="lattice")
            auto = gs.clt_functional(u, 64, phi)
        assert not caplog.records
        assert auto == exact
        approx = gs.clt_functional(u, 64, phi, backend="grid")
        assert approx == pytest.approx(exact, abs=5e-3)

    def test_lattice_fallback_is_logged(self, caplog):
        u = gs.pm_sigma_family([0.1, 0.3])
        phi = gs.builtin_phi("capped-relu")
        with caplog.at_level(logging.INFO, logger="gscheme"):
            value = gs.clt_functional(u, 8, phi, node_cap=3, grid_h=5e-4)
        # level 1 holds 4 positions, over a cap of 3
        [record] = caplog.records
        assert record.name == "gscheme"
        assert "4 nodes" in record.getMessage() and "cap 3" in record.getMessage()
        exact = gs.clt_functional(u, 8, phi, backend="lattice")
        assert value == pytest.approx(exact, abs=5e-3)
        with pytest.raises(gs.ResourceLimitError):
            gs.clt_functional(u, 8, phi, backend="lattice", node_cap=3)

    @pytest.mark.parametrize("backend", ["lattice", "grid"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_data_raises(self, backend, bad):
        u = gs.pm_sigma_family([0.1, 0.3])
        phi = gs.InitialData(
            "bad", lambda x: np.where(np.asarray(x, float) > 0.2, bad, 0.0), 0.0
        )
        with pytest.raises(gs.EvaluationError):
            gs.clt_functional(u, 8, phi, backend=backend)

    @pytest.mark.parametrize("grid_h", [0.0, -1e-3, math.nan, math.inf])
    def test_grid_h_must_be_positive_and_finite(self, grid_h):
        u = gs.pm_sigma_family([0.1, 0.3])
        with pytest.raises(gs.ArgumentError, match="grid_h"):
            gs.clt_functional(u, 4, gs.builtin_phi("capped-relu"), backend="grid", grid_h=grid_h)

    def test_rejects_mean_uncertain_x(self):
        biased = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.3], [0.0], 1.0),)),), d=1)
        with pytest.raises(gs.ConfigurationError):
            gs.clt_functional(biased, 2, gs.builtin_phi("abs"))


class TestLln:
    def test_point_target_zero_error(self):
        q = 0.05
        u = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.0], [q], 1.0),)),), d=1)
        theta = gs.ThetaSet.box([q], [q])
        res = gs.lln_experiment(u, theta, [2, 4, 8])
        assert all(r.error <= 1e-14 for r in res.rows)
        assert res.passed

    def test_atoms_inside_box_have_zero_distance(self):
        measures = []
        for lam in (0.0, 0.5, 1.0):
            measures.append(gs.DiscreteMeasure((
                gs.Atom([0.0], [0.0], 1.0 - lam if lam < 1 else 1e-300),
                gs.Atom([0.0], [0.1], lam if lam > 0 else 1e-300),
            )))
        u = gs.UncertaintySet(tuple(measures), d=1)
        theta = gs.ThetaSet.box([0.0], [0.1])
        val = gs.clt_functional(
            u, 1, gs.InitialData("dist", lambda x: np.maximum(
                np.maximum(-np.asarray(x, float), np.asarray(x, float) - 0.1), 0.0), 0.0)
        )
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_rate_experiment_passes(self):
        u = gs.lln_box_family(0.0, 0.1)
        theta = gs.ThetaSet.box([0.0], [0.1])
        res = gs.lln_experiment(u, theta, [4, 8, 16, 32, 64])
        assert res.passed
        assert res.fitted_slope <= -0.35
        for r in res.rows:
            assert r.error <= r.bound + 1e-14
        # rows carry the largest resolution first
        resolutions = [r.resolution for r in res.rows]
        assert resolutions == sorted(resolutions, reverse=True)

    def test_general_phi_variant(self):
        u = gs.lln_box_family(0.0, 0.1)
        theta = gs.ThetaSet.box([0.0], [0.1])
        res = gs.lln_experiment(u, theta, [4, 8, 16, 32], phi=gs.builtin_phi("capped-relu"))
        assert res.passed

    def test_rejects_nonzero_x(self):
        u = gs.pm_sigma_family([0.1])
        with pytest.raises(gs.ConfigurationError):
            gs.lln_experiment(u, gs.ThetaSet.box([0.0], [0.1]), [2, 4, 8])

    def test_warns_when_mean_outside_theta(self):
        u = gs.lln_box_family(0.0, 0.2)
        with pytest.warns(UserWarning, match="outside theta"):
            gs.lln_experiment(u, gs.ThetaSet.box([0.0], [0.1]), [2, 4, 8])


class TestCltExperiment:
    def test_classical_family_against_normal_reference(self):
        u = gs.pm_sigma_family([1.0])
        phi = gs.builtin_phi("relu")
        ref = gs.classical_normal_reference(phi, 1.0)
        assert ref.value == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-9)
        res = gs.clt_experiment(u, phi, [2, 4, 8, 16, 32], ref, c_explicit=5000.0)
        assert res.passed
        # rows lead with the largest n, whose error should be the smallest
        errs = res.errors()
        assert errs[0] <= errs[-1]

    def test_requires_reference(self):
        u = gs.pm_sigma_family([0.2])
        with pytest.raises(gs.ConfigurationError):
            gs.clt_experiment(u, gs.builtin_phi("relu"), [2, 4, 8], None, 1.0)

    def test_rejects_nonzero_y(self):
        u = gs.bsb_family(0.05, 0.1, 0.3, 2)
        with pytest.raises(gs.ConfigurationError):
            gs.clt_experiment(u, gs.builtin_phi("relu"), [2, 4, 8], 0.0, 1.0)


class TestThetaSet:
    def test_box_distance(self):
        theta = gs.ThetaSet.box([0.0], [1.0])
        assert theta.distance([0.5]) == 0.0
        assert theta.distance([-0.25]) == pytest.approx(0.25)
        assert theta.distance([1.75]) == pytest.approx(0.75)

    def test_point_cloud_interval_hull(self):
        theta = gs.ThetaSet.from_points([[0.2], [0.8], [0.4]])
        assert theta.distance([0.5]) == 0.0
        assert theta.distance([0.0]) == pytest.approx(0.2)

    def test_box_validation(self):
        with pytest.raises(gs.ArgumentError):
            gs.ThetaSet.box([1.0], [0.0])
