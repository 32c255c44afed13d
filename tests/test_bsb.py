import logging
import math

import numpy as np
import pytest

import gscheme as gs
import gscheme.bsb
from gscheme.analysis import Richardson
from gscheme.bsb import default_grid


def put_spec(sigma_lo=0.1, sigma_hi=0.3, n_sigma=33, delta=1e-3, r=0.05, K=1.0, T=1.0):
    return gs.BsbSpec(r, sigma_lo, sigma_hi, T, gs.make_payoff("put", K),
                      n_sigma=n_sigma, delta=delta)


class TestSpecAndTransform:
    def test_spec_validation(self):
        with pytest.raises(gs.ArgumentError):
            put_spec(sigma_lo=0.0)
        with pytest.raises(gs.ArgumentError):
            put_spec(sigma_lo=0.3, sigma_hi=0.1)
        with pytest.raises(gs.ArgumentError):
            gs.BsbSpec(0.0, 0.1, 0.3, 1.0, gs.make_payoff("put", 1.0), n_sigma=1)

    @pytest.mark.parametrize("field", ["r", "sigma_lo", "sigma_hi", "horizon", "delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spec_rejects_non_finite(self, field, bad):
        values = {"r": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3, "horizon": 1.0, "delta": 0.01}
        values[field] = bad
        with pytest.raises(gs.ArgumentError):
            gs.BsbSpec(payoff=gs.make_payoff("put", 1.0), n_sigma=3, **values)

    def test_uncapped_call_rejected(self):
        with pytest.raises(gs.ArgumentError, match="lower bounded"):
            gs.make_payoff("call", 1.0)

    def test_log_point(self):
        spec = put_spec()
        x0, phi, _ = gs.bsb_transform(spec, 1.0)
        assert x0 == 0.0
        assert phi(np.array([0.0]))[0] == 0.0  # payoff at the strike

    def test_round_trip_at_zero_horizon(self):
        spec = gs.BsbSpec(0.05, 0.2, 0.2, 1e-9, gs.make_payoff("put", 1.0), n_sigma=1,
                          delta=1e-9)
        s0 = 0.8
        x0, phi, inverse = gs.bsb_transform(spec, s0)
        assert inverse(float(phi(np.array([x0]))[0])) == pytest.approx(0.2, abs=1e-8)

    def test_rejects_nonpositive_spot(self):
        with pytest.raises(gs.ArgumentError):
            gs.bsb_transform(put_spec(), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: gs.bsb_transform(put_spec(), bad),
        lambda bad: gs.make_payoff("put", bad),
        lambda bad: gs.make_payoff("capped-call", bad, 0.5),
        lambda bad: gs.make_payoff("capped-call", 1.0, bad),
    ], ids=["spot", "put-strike", "call-strike", "call-cap"])
    def test_rejects_non_finite_spot_strike_or_cap(self, build, bad):
        with pytest.raises(gs.ArgumentError):
            build(bad)


class TestStep:
    def test_constant_preserved(self):
        spec = put_spec(n_sigma=5)
        cfg = default_grid(spec, 1.0, 0.01)
        level = gs.GridFunction(cfg, np.full(cfg.grid_n[0], 3.0))
        out = gs.bsb_step(spec, level)
        assert np.max(np.abs(out.values - 3.0)) < 1e-13

    def test_linear_data_selects_low_volatility_drift(self):
        # r = 0: moves are -sigma^2/2 * delta +- sigma sqrt(delta); for increasing
        # linear data the average is x - sigma^2/2 * delta, maximal at sigma_lo
        spec = gs.BsbSpec(0.0, 0.2, 0.6, 1.0, gs.make_payoff("put", 1.0), n_sigma=9,
                          delta=0.01)
        cfg = default_grid(spec, 1.0, 0.005)
        xs = cfg.axes[0]
        level = gs.GridFunction(cfg, xs + 10.0)
        out = gs.bsb_step(spec, level)
        interior = np.abs(xs) <= float(np.max(np.abs(xs))) - 0.1
        expected = xs + 10.0 - 0.5 * 0.2**2 * 0.01
        assert np.max(np.abs(out.values[interior] - expected[interior])) < 1e-10

    def test_matches_interpolated_two_point_averages(self):
        # the stencil step against the step written out with off-grid lookups:
        # per sigma, the average of the level interpolated at the two moves
        spec = put_spec(n_sigma=7, delta=0.02)
        cfg = default_grid(spec, 1.0, 0.01)
        _x0, phi, _ = gs.bsb_transform(spec, 1.0)
        level = gs.GridFunction(cfg, phi(cfg.axes[0]))
        nodes = cfg.axes[0]
        expected = None
        for s in spec.sigmas:
            drift = (spec.r - 0.5 * s * s) * spec.delta
            move = s * math.sqrt(spec.delta)
            avg = 0.5 * (level.interp(nodes + drift + move) + level.interp(nodes + drift - move))
            expected = avg if expected is None else np.maximum(expected, avg)
        out = gs.bsb_step(spec, level)
        assert np.max(np.abs(out.values - expected)) < 1e-12 * np.max(np.abs(level.values))


class TestPrice:
    def test_constant_payoff_discounts(self):
        class Flat:
            name = "flat"
            lower_bound = 2.0
            lipschitz_log = 0.0

            def value(self, s):
                return np.full_like(np.asarray(s, float), 2.0)

            def log_value(self, x):
                return np.full_like(np.asarray(x, float), 2.0)

        spec = gs.BsbSpec(0.0, 0.2, 0.3, 1.0, Flat(), n_sigma=3, delta=0.01)
        assert gs.bsb_price(spec, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_matches_independent_crr(self):
        r, sigma, K, T, n = 0.05, 0.2, 1.0, 1.0, 1000
        spec = put_spec(sigma_lo=sigma, sigma_hi=sigma, n_sigma=1, delta=T / n)
        mine = gs.bsb_price(spec, 1.0)

        dt = T / n
        drift = (r - 0.5 * sigma * sigma) * dt
        dx = sigma * math.sqrt(dt)
        x = np.log(1.0) + n * drift + (2 * np.arange(n + 1) - n) * dx
        v = np.maximum(K - np.exp(x), 0.0)
        for _ in range(n):
            v = 0.5 * v[1:] + 0.5 * v[:-1]
        crr = float(v[0]) * math.exp(-r * T)
        assert mine == pytest.approx(crr, abs=1e-12)

    def test_degenerate_near_black_scholes(self):
        spec = put_spec(sigma_lo=0.2, sigma_hi=0.2, n_sigma=1, delta=1e-3)
        bs = gs.bs_closed_form(0.05, 0.2, 1.0, 1.0, 1.0)
        assert gs.bsb_price(spec, 1.0) == pytest.approx(bs, abs=5e-3)

    def test_grid_backend_near_black_scholes(self):
        spec = put_spec(sigma_lo=0.2, sigma_hi=0.2, n_sigma=1, delta=1e-3)
        bs = gs.bs_closed_form(0.05, 0.2, 1.0, 1.0, 1.0)
        assert gs.bsb_price(spec, 1.0, backend="grid", h=2.5e-3) == pytest.approx(bs, abs=5e-3)

    def test_band_dominates_single_volatility(self):
        # one shared grid so the nodewise sup argument applies exactly
        band_spec = put_spec(delta=0.01)
        cfg = default_grid(band_spec, 1.0, 2e-3)
        _x0, phi, inverse = gs.bsb_transform(band_spec, 1.0)

        def run(spec):
            level = gs.GridFunction(cfg, phi(cfg.axes[0]))
            for _ in range(100):
                level = gs.bsb_step(spec, level)
            return inverse(float(level.interp(np.array([0.0]))[0]))

        band = run(band_spec)
        low = run(put_spec(0.1, 0.1, n_sigma=1, delta=0.01))
        high = run(put_spec(0.3, 0.3, n_sigma=1, delta=0.01))
        assert band >= low - 1e-12
        assert band >= high - 1e-12
        # grid and exact-tree single-volatility prices agree to grid accuracy
        assert gs.bsb_price(put_spec(0.3, 0.3, n_sigma=1, delta=0.01), 1.0) == pytest.approx(
            high, abs=5e-3
        )

    def test_monotone_in_upper_volatility(self):
        prices = [
            gs.bsb_price(put_spec(0.1, hi, n_sigma=17, delta=0.01), 1.0)
            for hi in (0.15, 0.2, 0.25, 0.3)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))

    def test_sigma_grid_refinement_monotone_and_contracting(self):
        # the capped call actually exercises interior volatilities; the grid is
        # kept fine so sigma-resolution differences dominate interpolation
        delta = 0.05
        h = 0.1 * math.sqrt(delta) / 16.0
        payoff = gs.make_payoff("capped-call", 1.0, 0.5)
        prices = [
            gs.bsb_price(gs.BsbSpec(0.05, 0.1, 0.3, 1.0, payoff, n_sigma=n, delta=delta),
                         1.0, h=h)
            for n in (3, 5, 9, 17, 33)
        ]
        diffs = [b - a for a, b in zip(prices, prices[1:])]
        assert all(d >= -1e-12 for d in diffs)
        assert diffs[0] > 1e-6  # interior volatilities genuinely matter here
        for a, b in zip(diffs, diffs[1:]):
            if a > 1e-12:
                assert b <= a / 2 + 1e-12

    def test_sigma_grid_refinement_put_is_bang_bang(self):
        # the put's optimum sits at the band edge everywhere, so refining the
        # sigma grid must not change the price beyond rounding
        prices = [
            gs.bsb_price(put_spec(n_sigma=n, delta=0.01), 1.0) for n in (2, 3, 5, 9, 17)
        ]
        diffs = [b - a for a, b in zip(prices, prices[1:])]
        assert all(d >= -1e-12 for d in diffs)
        assert all(d <= 1e-10 for d in diffs)

    def test_exact_backend_requires_degenerate(self):
        with pytest.raises(gs.ArgumentError):
            gs.bsb_price(put_spec(), 1.0, backend="exact")


@pytest.mark.slow
def test_rate_experiment_small():
    spec = gs.BsbSpec(0.05, 0.1, 0.3, 1.0, gs.make_payoff("put", 1.0), n_sigma=5,
                      delta=2**-5)
    res = gs.bsb_rate_experiment(spec, 1.0, [2.0**-k for k in range(5, 9)],
                                 reference_refinement=4.0)
    assert res.fitted_slope >= 0.10
    errs = res.errors()
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_rate_experiment_logs_a_non_contracting_reference(monkeypatch, caplog):
    spec = gs.BsbSpec(0.05, 0.1, 0.3, 1.0, gs.make_payoff("put", 1.0), n_sigma=3,
                      delta=2**-3)
    deltas = [2.0**-k for k in range(3, 6)]
    with caplog.at_level(logging.WARNING, logger="gscheme"):
        gs.bsb_rate_experiment(spec, 1.0, deltas)
    assert not caplog.records

    def flagged(spec, s0, query_x, delta_fine):
        return Richardson(np.zeros_like(query_x), 0.0123, -0.25, True)

    monkeypatch.setattr(gscheme.bsb, "richardson_reference_curve", flagged)
    with caplog.at_level(logging.WARNING, logger="gscheme"):
        gs.bsb_rate_experiment(spec, 1.0, deltas)
    [record] = caplog.records
    assert record.name == "gscheme" and record.levelno == logging.WARNING
    assert "1.230e-02" in record.getMessage() and "-0.25" in record.getMessage()
