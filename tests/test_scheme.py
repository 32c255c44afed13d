import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

import gscheme as gs
import gscheme.bsb
import gscheme.cli
import gscheme.clt
import gscheme.oracles
from conftest import make_random_family, make_shared_displacement_config


def wide_cfg(delta=0.5, horizon=1.0, half=6.0, n=241):
    return gs.SchemeConfig(delta=delta, horizon=horizon, grid_lo=(-half,), grid_hi=(half,),
                           grid_n=(n,))


def test_config_validation():
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=0.0, horizon=1.0, grid_lo=(-1,), grid_hi=(1,), grid_n=(5,))
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=1.5, horizon=2.0, grid_lo=(-1,), grid_hi=(1,), grid_n=(5,))
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=0.5, horizon=0.25, grid_lo=(-1,), grid_hi=(1,), grid_n=(5,))
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=(1,), grid_hi=(-1,), grid_n=(5,))
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=(-1,), grid_hi=(1,), grid_n=(1,))
    # delta = 1 is allowed: one unit step
    gs.SchemeConfig(delta=1.0, horizon=1.0, grid_lo=(-1,), grid_hi=(1,), grid_n=(5,))


@pytest.mark.parametrize("horizon, lo, hi", [
    (math.nan, -1.0, 1.0), (math.inf, -1.0, 1.0),
    (1.0, math.nan, 1.0), (1.0, -1.0, math.nan), (1.0, -math.inf, 1.0), (1.0, -1.0, math.inf),
])
def test_config_rejects_non_finite(horizon, lo, hi):
    with pytest.raises(gs.ArgumentError):
        gs.SchemeConfig(delta=0.5, horizon=horizon, grid_lo=(lo,), grid_hi=(hi,), grid_n=(5,))


def test_forward_identity_for_zero_family():
    cfg = wide_cfg()
    v = gs.GridFunction(cfg, np.sin(cfg.axes[0]))
    out = gs.forward_operator(gs.zero_family(), cfg, v)
    assert np.array_equal(out.values, v.values)


def test_forward_preserves_constants():
    cfg = wide_cfg()
    u = gs.pm_sigma_family([0.3, 0.7])
    v = gs.GridFunction(cfg, np.full(cfg.grid_n[0], 1.25))
    out = gs.forward_operator(u, cfg, v)
    assert np.max(np.abs(out.values - 1.25)) < 1e-14


def test_forward_linear_function_fixed_in_interior():
    cfg = wide_cfg(delta=0.25)
    u = gs.pm_sigma_family([0.5, 1.0])
    v = gs.GridFunction(cfg, cfg.axes[0].copy())
    out = gs.forward_operator(u, cfg, v)
    xs = cfg.axes[0]
    interior = np.abs(xs) <= 6.0 - 1.0  # one max-displacement safety margin
    assert np.max(np.abs(out.values[interior] - xs[interior])) < 1e-12


def test_forward_monotone_in_values(rng):
    cfg = wide_cfg()
    u = make_random_family(rng, zero_mean_x=True)
    for _ in range(10):
        base = rng.normal(size=cfg.grid_n[0])
        v = gs.GridFunction(cfg, base)
        w = gs.GridFunction(cfg, base + rng.random(cfg.grid_n[0]))
        sv = gs.forward_operator(u, cfg, v)
        sw = gs.forward_operator(u, cfg, w)
        assert np.all(sw.values >= sv.values - 1e-12)


def test_residual_definition_and_shift():
    cfg = wide_cfg(delta=0.5)
    u = gs.pm_sigma_family([0.4])
    v = gs.GridFunction(cfg, np.abs(cfg.axes[0]))
    sval = float(gs.forward_values(u, cfg, v, np.array([0.25]))[0])
    assert gs.scheme_residual(u, cfg, 0.25, sval, v) == 0.0
    base = gs.scheme_residual(u, cfg, 0.25, 1.0, v)
    shifted = gs.scheme_residual(
        u, cfg, 0.25, 1.0 + 0.3, gs.GridFunction(cfg, v.values + 0.1)
    )
    assert shifted == pytest.approx(base + (0.3 - 0.1) / 0.5, abs=1e-12)


def test_residual_zero_prev_function():
    cfg = wide_cfg(delta=0.5)
    v = gs.GridFunction(cfg, np.zeros(cfg.grid_n[0]))
    assert gs.scheme_residual(gs.zero_family(), cfg, 0.0, 1.0, v) == pytest.approx(2.0)


def test_residual_concavity(rng):
    cfg = wide_cfg(delta=0.5)
    u = make_random_family(rng, zero_mean_x=True)
    for _ in range(10):
        v1 = gs.GridFunction(cfg, rng.normal(size=cfg.grid_n[0]))
        v2 = gs.GridFunction(cfg, rng.normal(size=cfg.grid_n[0]))
        p1, p2 = rng.normal(size=2)
        lam = float(rng.random())
        mix = gs.GridFunction(cfg, lam * v1.values + (1 - lam) * v2.values)
        s_mix = gs.scheme_residual(u, cfg, 0.0, lam * p1 + (1 - lam) * p2, mix)
        s1 = gs.scheme_residual(u, cfg, 0.0, p1, v1)
        s2 = gs.scheme_residual(u, cfg, 0.0, p2, v2)
        assert s_mix >= lam * s1 + (1 - lam) * s2 - 1e-10


def test_solve_grid_trivial_cases():
    cfg = wide_cfg(delta=0.25)
    phi = gs.builtin_phi("abs")
    sol = gs.solve_grid(gs.zero_family(), cfg, phi)
    for t in (0.0, 0.3, 0.9):
        assert np.array_equal(sol.at(t).values, sol.steps[0].values)

    const = gs.InitialData("const", lambda x: np.full_like(np.asarray(x, float), 3.0), 3.0)
    sol2 = gs.solve_grid(gs.pm_sigma_family([0.2, 0.4]), cfg, const)
    assert np.max(np.abs(sol2.at(1.0).values - 3.0)) < 1e-13


def test_solve_grid_one_step_example():
    # two-point +-1 measure, phi = x^2, delta = 1: value at 0 is (1 + 1)/2
    cfg = gs.SchemeConfig(delta=1.0, horizon=1.0, grid_lo=(-4.0,), grid_hi=(4.0,), grid_n=(33,))
    sol = gs.solve_grid(gs.pm_sigma_family([1.0]), cfg, gs.builtin_phi("square"))
    assert sol.value_at(1.0, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_solve_grid_rejects_mean_uncertainty():
    biased = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.5], [0.0], 1.0),)),), d=1)
    with pytest.raises(gs.ConfigurationError, match="mean uncertainty"):
        gs.solve_grid(biased, wide_cfg(), gs.builtin_phi("abs"))


def test_piecewise_constant_queries():
    cfg = wide_cfg(delta=0.4, horizon=1.0)
    sol = gs.solve_grid(gs.pm_sigma_family([0.3]), cfg, gs.builtin_phi("abs"))
    assert sol.n_steps == 2  # floor(1.0 / 0.4)
    assert sol.at(0.4) is sol.at(0.65)
    assert sol.at(0.8) is sol.at(1.0)  # trailing partial interval stays frozen
    assert sol.at(0.0) is not sol.at(0.4)


def test_lower_bound_preserved(rng):
    cfg = wide_cfg(delta=0.25)
    u = make_random_family(rng, zero_mean_x=True)
    phi = gs.builtin_phi("capped-relu")
    sol = gs.solve_grid(u, cfg, phi)
    for step in sol.steps:
        assert np.min(step.values) >= 0.0 - 1e-9


def test_grid_function_immutable():
    cfg = wide_cfg()
    g = gs.GridFunction(cfg, np.zeros(cfg.grid_n[0]))
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_interp_clamps_and_matches_numpy(rng):
    cfg = wide_cfg(half=2.0, n=37)
    vals = rng.normal(size=37)
    g = gs.GridFunction(cfg, vals)
    pts = rng.uniform(-3.0, 3.0, size=500)
    expected = np.interp(pts, cfg.axes[0], vals)
    assert np.max(np.abs(g.interp(pts) - expected)) < 1e-13
    assert g.interp(np.array([-10.0]))[0] == vals[0]
    assert g.interp(np.array([10.0]))[0] == vals[-1]


@pytest.mark.parametrize("n", [(7, 9), (5, 4, 6)], ids=["2d", "3d"])
def test_interp_multilinear_matches_regular_grid_interpolator(rng, n):
    from scipy.interpolate import RegularGridInterpolator

    d = len(n)
    cfg = gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=tuple(rng.uniform(-2.0, -1.0, d)),
                          grid_hi=tuple(rng.uniform(1.0, 2.0, d)), grid_n=n)
    vals = rng.normal(size=n)
    g = gs.GridFunction(cfg, vals)
    # queries inside, outside the box (clamped) and a rounding error off a node (snapped)
    inside = rng.uniform(cfg.grid_lo, cfg.grid_hi, size=(300, d))
    outside = rng.uniform(-4.0, 4.0, size=(300, d))
    cells = np.stack([rng.integers(0, k, size=300) for k in n], axis=-1)
    offset = rng.uniform(-0.9e-9, 0.9e-9, size=(300, d))
    near = np.array(cfg.grid_lo) + (cells + offset) * np.array(cfg.spacing)
    pts = np.concatenate([inside, outside, near])
    # oracle: snap and clamp the queries, then scipy's multilinear interpolation
    snapped = pts.copy()
    for axis, ax in enumerate(cfg.axes):
        t = (pts[:, axis] - cfg.grid_lo[axis]) / cfg.spacing[axis]
        k = np.rint(t)
        on_node = (np.abs(t - k) < 1e-9) & (k >= 0) & (k < ax.size)
        snapped[on_node, axis] = ax[k[on_node].astype(int)]
    snapped = np.clip(snapped, cfg.grid_lo, cfg.grid_hi)
    expected = RegularGridInterpolator(cfg.axes, vals, method="linear")(snapped)
    assert np.max(np.abs(g.interp(pts) - expected)) < 1e-13
    far_corner = g.interp(np.full((1, d), 10.0))[0]
    assert far_corner == pytest.approx(vals[(-1,) * d], abs=1e-14)


def random_grid(rng, d, n=(41, 9, 7)):
    return gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=tuple(rng.uniform(-2.0, -1.0, d)),
                           grid_hi=tuple(rng.uniform(1.0, 2.0, d)), grid_n=n[:d])


def interp_on_nodes(g, shift):
    """The lookup of every node moved by shift, done by off-grid interpolation."""
    cfg = g.config
    pts = cfg.nodes() + (shift[0] if cfg.d == 1 else shift)
    return g.interp(pts).reshape(g.values.shape)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_interp_face_queries_return_face_values_exactly(rng, d):
    cfg = random_grid(rng, d)
    for _ in range(20):
        g = gs.GridFunction(cfg, rng.normal(size=cfg.grid_n))
        v = g.values
        idx = [int(rng.integers(0, k)) for k in cfg.grid_n]
        for axis in range(d):
            for beyond, face in ((cfg.grid_lo[axis] - 0.7, 0), (cfg.grid_hi[axis] + 0.7, -1)):
                pt = np.array([ax[i] for ax, i in zip(cfg.axes, idx)])
                pt[axis] = beyond
                at = list(idx)
                at[axis] = face
                got = g.interp(pt if d == 1 else pt[None, :])[0]
                assert got == v[tuple(at)]
        for corner in ((0,) * d, (-1,) * d):
            far = np.where(np.array(corner) == 0, -10.0, 10.0)
            assert g.interp(far if d == 1 else far[None, :])[0] == v[corner]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stencil_matches_interp(rng, d):
    from gscheme.scheme import GridStencil

    cfg = random_grid(rng, d)
    g = gs.GridFunction(cfg, rng.normal(size=cfg.grid_n))
    h = np.array(cfg.spacing)
    width = np.array(cfg.grid_hi) - np.array(cfg.grid_lo)
    stencil = GridStencil(gs.zero_family(d), cfg)
    scale = float(np.max(np.abs(g.values)))

    def lookup(shift):
        return stencil.lookup(g.values, np.diff(g.values, axis=-1), stencil.moves(shift))

    # zero shift: the level itself, bitwise
    assert np.array_equal(lookup(np.zeros(d)), g.values)
    shifts = [rng.uniform(-0.8, 0.8, d) * width for _ in range(30)]
    # whole multiples of the spacing, a rounding error off (the snap)
    for _ in range(30):
        cells = rng.integers(-cfg.grid_n[0], cfg.grid_n[0], d)
        shifts.append((cells + rng.choice([-1e-10, 1e-10], d)) * h)
    for shift in shifts:
        assert np.max(np.abs(lookup(shift) - interp_on_nodes(g, shift))) <= 1e-12 * scale
    # shifts wider than the box clamp every node to one corner, bitwise
    for sign in rng.choice([-1.0, 1.0], size=(8, d)):
        shift = sign * width * rng.uniform(1.01, 3.0, d)
        got = lookup(shift)
        assert np.array_equal(got, interp_on_nodes(g, shift))
        assert np.all(got == g.values[tuple(0 if c < 0 else -1 for c in sign)])
    # in 1-D the nodes whose query leaves the box take the face value, bitwise
    if d == 1:
        for shift in shifts:
            moved = cfg.axes[0] + shift[0]
            out = (moved < cfg.grid_lo[0] - h[0]) | (moved > cfg.grid_hi[0] + h[0])
            assert np.array_equal(lookup(shift)[out], interp_on_nodes(g, shift)[out])


def _reference_shift_axis(v, axis, k, f, out):
    """Reference for the stencil's one-axis read: slice bounds and the
    difference v[i+k+1] - v[i+k] worked out afresh for every atom."""
    n = v.shape[axis]
    lo = min(max(-k, 0), n)
    hi = max(min(n - k - (f > 0), n), lo)
    pre = (slice(None),) * axis
    dst = out[pre + (slice(lo, hi),)]
    a = v[pre + (slice(lo + k, hi + k),)]
    if f > 0:
        np.subtract(v[pre + (slice(lo + k + 1, hi + k + 1),)], a, out=dst)
        dst *= f
        dst += a
    else:
        dst[...] = a
    if lo:
        out[pre + (slice(0, lo),)] = v[pre + (slice(0, 1),)]
    if hi < n:
        out[pre + (slice(hi, n),)] = v[pre + (slice(n - 1, n),)]
    return out


def _reference_levels(u, cfg, phi):
    """solve_grid's levels by a recursion on ``_reference_shift_axis``."""
    from gscheme.scheme import _offset, _shifts, _sublinear_step

    look, spare, acc = (np.empty(cfg.grid_n) for _ in range(3))

    def lookup(v, taps):
        src = v
        for axis in reversed(range(len(taps))):
            k, f = taps[axis]
            if k or f:
                dst = look if src is not look else spare
                src = _reference_shift_axis(src, axis, k, f, dst)
        return src

    measures = [([tuple(_offset(float(c), h) for c, h in zip(row, cfg.spacing)) for row in shifts],
                 ps) for shifts, ps in _shifts(u, cfg.delta)]
    levels = [phi(cfg.nodes()).reshape(cfg.grid_n)]
    for _ in range(int(math.floor(cfg.horizon / cfg.delta + 1e-9))):
        v = levels[-1]
        levels.append(_sublinear_step(measures, lambda taps: lookup(v, taps),
                                      np.empty(cfg.grid_n), acc, look))
    return levels


def _stencil_cases(rng, d, h, width):
    """Zero-mean measures of 2 and 4 atoms with unequal weights and drift.  Over
    delta = 1/4 an atom moves by X/2 + Y/4: one atom is still, one moves by
    whole cells (f = 0 on every axis), one leaves the last axis in place, one
    moves wider than the box, and the rest by fractions of a cell."""
    def atom(x, y, p):
        return gs.Atom(np.atleast_1d(x), np.atleast_1d(y), p)

    c = rng.uniform(0.3, 1.5, d) * h * rng.choice([-1.0, 1.0], d)
    two = gs.DiscreteMeasure((atom(3 * c, rng.normal(scale=0.3, size=d), 0.25),
                              atom(-c, rng.normal(scale=0.3, size=d), 0.75)))
    whole = 2 * rng.integers(-4, 5, d) * h
    still_last = rng.uniform(-2.0, 2.0, d) * h
    still_last[-1] = 0.0
    wide = 2 * rng.uniform(1.2, 2.0, d) * width * rng.choice([-1.0, 1.0], d)
    ps = [0.1, 0.2, 0.3, 0.4]
    xs = [np.zeros(d), whole, wide]
    xs.append(-sum(p * x for p, x in zip(ps, xs)) / ps[3])
    ys = [np.zeros(d), np.zeros(d), rng.normal(size=d), rng.normal(size=d)]
    four = gs.DiscreteMeasure(tuple(atom(x, y, p) for x, y, p in zip(xs, ys, ps)))
    moved = gs.DiscreteMeasure((atom(still_last, np.zeros(d), 0.5),
                                atom(-still_last, np.zeros(d), 0.5)))
    return [gs.UncertaintySet((two, four), d=d), gs.UncertaintySet((four, moved, two), d=d)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stencil_steps_are_bitwise_the_reference_recursion(rng, d):
    cfg = gs.SchemeConfig(delta=0.25, horizon=0.75, grid_lo=tuple(rng.uniform(-2.0, -1.0, d)),
                          grid_hi=tuple(rng.uniform(1.0, 2.0, d)), grid_n=(41, 9, 7)[:d])
    h = np.array(cfg.spacing)
    width = np.array(cfg.grid_hi) - np.array(cfg.grid_lo)
    a, b = rng.normal(size=(2, d))
    phi = gs.InitialData("waves", lambda x: np.sin(x.reshape(len(x), -1) @ a)
                         + np.cos(x.reshape(len(x), -1) @ b), -2.0)
    for _ in range(3):
        for u in _stencil_cases(rng, d, h, width):
            got = gs.solve_grid(u, cfg, phi).steps
            want = _reference_levels(u, cfg, phi)
            assert len(got) == len(want) == 4
            for level, ref in zip(got, want):
                assert np.array_equal(level.values, ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_forward_values_on_nodes_match_forward_operator(rng, d):
    # the off-grid operator, queried at the nodes, against the stencil operator
    cfg = random_grid(rng, d)
    for _ in range(5):
        u = make_random_family(rng, d=d)
        while len(u.measures) < 2:
            u = make_random_family(rng, d=d)
        g = gs.GridFunction(cfg, rng.normal(size=cfg.grid_n))
        on_nodes = gs.forward_operator(u, cfg, g).values
        off_grid = gs.forward_values(u, cfg, g, cfg.nodes()).reshape(cfg.grid_n)
        assert np.max(np.abs(off_grid - on_nodes)) <= 1e-12 * np.max(np.abs(g.values))


def test_queries_of_the_wrong_width_are_rejected(rng):
    cfg2 = random_grid(rng, 2)
    g2 = gs.GridFunction(cfg2, rng.normal(size=cfg2.grid_n))
    u2 = make_random_family(rng, d=2)
    for bad in (np.zeros((5, 3)), [0.1, 0.2, 0.3, 0.4], 0.5, np.zeros((2, 2, 2))):
        with pytest.raises(gs.ArgumentError, match="2 coordinates"):
            g2.interp(bad)
        with pytest.raises(gs.ArgumentError, match="2 coordinates"):
            gs.forward_values(u2, cfg2, g2, bad)
    # one point as a flat pair, several as rows
    assert g2.interp([0.1, 0.2]).shape == (1,)
    assert g2.interp(np.zeros((7, 2))).shape == (7,)
    cfg1 = random_grid(rng, 1)
    g1 = gs.GridFunction(cfg1, rng.normal(size=cfg1.grid_n))
    with pytest.raises(gs.ArgumentError, match="1 coordinates"):
        g1.interp(np.zeros((4, 2)))
    # in d = 1 a flat sequence is that many points, and a column the same points
    pts = rng.uniform(-3.0, 3.0, size=9)
    assert np.array_equal(g1.interp(pts), g1.interp(pts[:, None]))
    assert g1.interp(0.3).shape == (1,)


@pytest.mark.parametrize("d", [1, 2])
def test_solve_grid_keep_last_matches_all(rng, d):
    u = make_random_family(rng, d=d, zero_mean_x=True)
    half = 4.0
    cfg = gs.SchemeConfig(delta=0.125, horizon=1.0, grid_lo=(-half,) * d, grid_hi=(half,) * d,
                          grid_n=(81, 21)[:d])
    phi = gs.InitialData("norm", lambda p: np.sqrt(1.0 + np.sum(p.reshape(len(p), -1) ** 2, 1)),
                         0.0, c_phi=1.0)
    full = gs.solve_grid(u, cfg, phi)
    last = gs.solve_grid(u, cfg, phi, keep="last")
    assert len(full.steps) == 9 and len(last.steps) == 1
    assert last.n_steps == full.n_steps == 8
    assert np.array_equal(last.at(1.0).values, full.at(1.0).values)
    assert last.value_at(1.0, 0.0 if d == 1 else [0.0] * d) == full.value_at(
        1.0, 0.0 if d == 1 else [0.0] * d)
    with pytest.raises(gs.ArgumentError, match="keep='all'"):
        last.at(0.5)
    with pytest.raises(gs.ArgumentError, match="keep='all'"):
        gs.check_comparison(last, last)
    with pytest.raises(gs.ArgumentError):
        gs.solve_grid(u, cfg, phi, keep="some")


def test_grid_reference_holds_a_few_levels():
    import tracemalloc

    u = gs.pm_sigma_family([0.1, 0.2, 0.3])  # six displacements: the grid route
    phi = gs.builtin_phi("capped-relu")
    tracemalloc.start()
    try:
        ref = gs.fine_grid_reference(u, phi, 1.0, 0.0, delta_ref=1.0 / 256.0)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ref.meta["backend"] == "grid"
    level_bytes = 8 * (int(round(2 * ref.meta["halfwidth"] / ref.meta["h"])) + 1)
    assert peak < 20 * level_bytes


def test_lattice_one_step_equals_sublinear_expect(rng):
    u = make_random_family(rng)
    phi = gs.builtin_phi("abs")
    got = gs.solve_lattice(u, 0.49, 1, [0.2], phi).value
    expected = gs.sublinear_expect(
        u, lambda x, y: float(abs(0.2 + math.sqrt(0.49) * x[0] + 0.49 * y[0]))
    )
    assert got == pytest.approx(expected, abs=1e-13)


def test_lattice_matches_brute_force_two_steps(rng):
    for _ in range(10):
        u, phi, _n, delta, x0 = make_shared_displacement_config(rng)
        v_lat = gs.solve_lattice(u, delta, 2, [x0], phi).value
        v_tree = gs.brute_force_tree(u, delta, 2, [x0], phi)
        assert v_lat == pytest.approx(v_tree, abs=1e-12)


def _distinct_sums(disp, j, x0):
    """Sorted distinct values of x0 plus j displacements, by multiset enumeration."""
    sums = sorted(x0 + sum(c) for c in combinations_with_replacement(disp, j))
    return [v for i, v in enumerate(sums) if i == 0 or v - sums[i - 1] > 1e-9]


def test_lattice_recombination_counts(rng):
    u_rand, phi, _n, delta, x0 = make_shared_displacement_config(rng)
    # the commensurate family recombines far below the multiset count
    for u in (u_rand, gs.pm_sigma_family([0.1, 0.3])):
        n = 5
        res = gs.solve_lattice(u, delta, n, [x0], phi, keep_levels=True)
        disp = res.levels[0].displacements[:, 0].tolist()
        m = len(disp)
        assert [level.step for level in res.levels] == list(range(n, -1, -1))
        for level in res.levels:
            want = _distinct_sums(disp, level.step, x0)
            assert level.values.shape == (len(want),)
            assert level.positions.shape == (len(want), 1)
            assert np.allclose(level.positions[:, 0], want, rtol=0, atol=1e-12)
            assert len(want) <= math.comb(level.step + m - 1, level.step)
    # pm-sigma{0.1, 0.3}: positions k * 0.1 * sqrt(delta) with |k| <= 3j, k = j mod 2
    assert [len(level.values) for level in res.levels] == [3 * j + 1 for j in range(n, -1, -1)]


def test_lattice_node_cap():
    phi = gs.builtin_phi("abs")
    # incommensurate sigmas: level j holds ~j^4/3 positions, so the forward
    # pass passes twice the cap in candidate sums and held links by j ~ 11
    u = gs.pm_sigma_family([0.1, 0.1 * math.sqrt(2), 0.1 * math.sqrt(3), 0.1 * math.sqrt(5)])
    with pytest.raises(gs.ResourceLimitError, match="grid backend"):
        gs.solve_lattice(u, 1e-4, 200, [0.0], phi, node_cap=10_000)
    # a level over the cap: pm-sigma{0.1, 0.3} has 4 positions after one step
    u2 = gs.pm_sigma_family([0.1, 0.3])
    with pytest.raises(gs.ResourceLimitError, match="holds 4 nodes .* cap 3.*grid backend"):
        gs.solve_lattice(u2, 1 / 8, 8, [0.0], phi, node_cap=3)
    # within the cap by the multiset count: never refused, however many
    # child indices the forward pass holds (about 3 * C(12, 3) = 660 > 2 * 66)
    u3 = gs.UncertaintySet((gs.DiscreteMeasure((
        gs.Atom([0.5], [0.1], 0.25), gs.Atom([-0.5], [0.3], 0.25), gs.Atom([0.0], [-0.2], 0.5),
    )),), d=1)
    res = gs.solve_lattice(u3, 0.5, 10, [0.0], phi, node_cap=math.comb(12, 10), keep_levels=True)
    assert len(res.levels[0].values) == math.comb(12, 10)


def test_lattice_generic_two_sigma_matches_brute_force():
    u = gs.pm_sigma_family([0.1734567, 0.3])
    phi = gs.builtin_phi("capped-relu")
    for n in (1, 2, 3, 4):
        for x0 in (0.0, -0.07):
            lat = gs.solve_lattice(u, 1.0 / n, n, [x0], phi).value
            tree = gs.brute_force_tree(u, 1.0 / n, n, [x0], phi)
            assert lat == pytest.approx(tree, abs=1e-12)


def test_lattice_crr_matches_degenerate_pricer():
    r, sigma, delta, K = 0.05, 0.2, 0.01, 1.0
    fam = gs.bsb_family(r, sigma, sigma, 1)
    payoff = gs.make_payoff("put", K)
    spec = gs.BsbSpec(r, sigma, sigma, 1.0, payoff, n_sigma=1, delta=delta)
    x0, phi, inverse = gs.bsb_transform(spec, 1.0)
    lat = gs.solve_lattice(fam, delta, 100, [x0], phi).value
    price = gs.bsb_price(spec, 1.0)
    assert inverse(lat) == pytest.approx(price, abs=1e-12)


def test_grid_converges_to_lattice(rng):
    u, phi, _n, delta, x0 = make_shared_displacement_config(rng)
    n = 3
    v_lat = gs.solve_lattice(u, delta, n, [x0], phi).value
    half = abs(x0) + n * (math.sqrt(delta) * 1.2 + delta * 1.5) + 0.5
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        n_grid = int(round(2 * half / h)) + 1
        cfg = gs.SchemeConfig(delta=delta, horizon=n * delta, grid_lo=(x0 - half,),
                              grid_hi=(x0 + half,), grid_n=(n_grid,))
        sol = gs.solve_grid(u, cfg, phi)
        errs.append(abs(sol.value_at(n * delta, x0) - v_lat))
    assert errs[-1] <= 5e-3
    # fitted linear-in-h envelope: halving h at least roughly halves the error
    assert errs[-1] <= errs[0] / 2 + 1e-9


def test_space_and_time_regularity_of_solver_output():
    u = gs.pm_sigma_family([0.1, 0.3])
    K = 1.0
    cfg = gs.SchemeConfig(delta=1 / 16, horizon=1.0, grid_lo=(-3.0,), grid_hi=(3.0,),
                          grid_n=(401,))
    phi = gs.InitialData("log-put", lambda x: np.maximum(K - np.exp(np.asarray(x, float)), 0.0),
                         0.0, c_phi=K)
    sol = gs.solve_grid(u, cfg, phi)
    mom = gs.validate(u)
    k0 = gs.compute_constants(mom, K, 1.0, 1.0, c_rho=1.0).k0
    space = gs.estimate_modulus(sol, "space", c_phi=K, beta=1.0, x_window=(-1.5, 1.5))
    assert space.passed, f"space modulus {space.measured} > {space.stated} + {space.slack}"
    time_mod = gs.estimate_modulus(sol, "time", c_phi=K, beta=1.0, k0=k0, x_window=(-1.5, 1.5))
    assert time_mod.passed, f"time modulus {time_mod.measured} > {time_mod.stated}"


def test_solution_dump_csv(tmp_path):
    cfg = gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=(-1.0,), grid_hi=(1.0,), grid_n=(5,))
    sol = gs.solve_grid(gs.pm_sigma_family([0.2]), cfg, gs.builtin_phi("abs"))
    path = tmp_path / "steps.csv"
    sol.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,value"
    assert len(lines) == 1 + 5 * len(sol.steps)


def test_two_dimensional_lattice_matches_brute_force():
    m1 = gs.DiscreteMeasure((gs.Atom([0.6, 0.0], [0.1, 0.0], 0.5),
                             gs.Atom([-0.6, 0.0], [0.0, 0.2], 0.5)))
    m2 = gs.DiscreteMeasure((gs.Atom([0.0, 0.8], [0.0, 0.0], 0.5),
                             gs.Atom([0.0, -0.8], [0.1, 0.1], 0.5)))
    u = gs.UncertaintySet((m1, m2), d=2)
    phi = gs.InitialData("norm", lambda p: np.linalg.norm(p, axis=-1), 0.0, c_phi=1.0)
    for n in (1, 2, 3):
        lat = gs.solve_lattice(u, 0.49, n, [0.2, -0.1], phi).value
        tree = gs.brute_force_tree(u, 0.49, n, [0.2, -0.1], phi)
        assert lat == pytest.approx(tree, abs=1e-12)
    with pytest.raises(gs.ArgumentError, match="2 coordinates"):
        gs.solve_lattice(u, 0.49, 2, [0.2], phi)


def test_two_dimensional_forward_operator():
    cfg = gs.SchemeConfig(delta=0.5, horizon=1.0, grid_lo=(-3.0, -3.0), grid_hi=(3.0, 3.0),
                          grid_n=(31, 31))
    # symmetric two-point family along each axis
    m1 = gs.DiscreteMeasure((gs.Atom([0.5, 0.0], [0.0, 0.0], 0.5),
                             gs.Atom([-0.5, 0.0], [0.0, 0.0], 0.5)))
    m2 = gs.DiscreteMeasure((gs.Atom([0.0, 0.5], [0.0, 0.0], 0.5),
                             gs.Atom([0.0, -0.5], [0.0, 0.0], 0.5)))
    u = gs.UncertaintySet((m1, m2), d=2)
    phi = gs.InitialData("sum-abs", lambda p: np.abs(p).sum(axis=-1), 0.0, c_phi=1.0)
    sol = gs.solve_grid(u, cfg, phi)
    assert sol.steps[-1].values.shape == (31, 31)
    # constants preserved in 2-d as well
    const = gs.InitialData("c", lambda p: np.full(p.shape[0], 2.0), 2.0)
    solc = gs.solve_grid(u, cfg, const)
    assert np.max(np.abs(solc.steps[-1].values - 2.0)) < 1e-12


def _cone_grids(monkeypatch, module, run):
    """Configs of every grid solve ``run`` makes through ``module.solve_grid``."""
    seen = []

    def recording(u, cfg, phi, keep="all"):
        seen.append(cfg)
        return gs.solve_grid(u, cfg, phi, keep=keep)

    monkeypatch.setattr(module, "solve_grid", recording)
    run()
    assert seen
    return seen


def _cone(u, horizon):
    # drift over the horizon plus four sqrt(horizon) spreads of the X part
    max_x = max(abs(a.x[0]) for m in u.measures for a in m.atoms)
    max_y = max(abs(a.y[0]) for m in u.measures for a in m.atoms)
    return horizon * max_y + 4.0 * math.sqrt(horizon) * max_x


@pytest.mark.parametrize("caller", ["clt-fallback", "fine-reference", "gheat", "default-grid"])
def test_every_sizing_caller_holds_the_cone(monkeypatch, caller):
    drift = gs.UncertaintySet(tuple(
        gs.DiscreteMeasure((gs.Atom([s], [mu], 0.5), gs.Atom([-s], [mu], 0.5)))
        for s, mu in ((0.1, 0.05), (0.2, -0.3), (0.3, 0.1))), d=1)
    phi = gs.builtin_phi("capped-relu")
    if caller == "clt-fallback":
        u, horizon, x_eval = gs.pm_sigma_family([0.1, 0.3]), 1.0, 0.0
        cfgs = _cone_grids(monkeypatch, gscheme.clt, lambda: gs.clt_functional(
            u, 4, phi, backend="grid"))
    elif caller == "fine-reference":
        u, horizon, x_eval = drift, 0.5, 0.3
        cfgs = _cone_grids(monkeypatch, gscheme.oracles, lambda: gs.fine_grid_reference(
            u, phi, horizon, x_eval, delta_ref=1 / 16))
    elif caller == "gheat":
        u, horizon, x_eval = gs.pm_sigma_family([0.1, 0.3]), 0.5, -0.2
        argv = ["gheat", "--family", "builtin:pm-sigma", "--sigma-lo", "0.1",
                "--sigma-hi", "0.3", "--phi", "capped-relu", "--delta", "0.125",
                "--T", "0.5", "--x-eval", "-0.2"]
        cfgs = _cone_grids(monkeypatch, gscheme.cli, lambda: gscheme.cli.main(argv))
    else:
        spec = gs.BsbSpec(0.05, 0.1, 0.3, 0.75, gs.make_payoff("put", 1.0), n_sigma=5,
                          delta=0.01)
        u, horizon, x_eval = spec.uncertainty_set(), spec.horizon, math.log(1.3)
        cfgs = [gscheme.bsb.default_grid(spec, 1.3, 0.01)]
    reach = _cone(u, horizon)
    assert reach > 0
    for cfg in cfgs:
        assert cfg.grid_lo[0] <= x_eval - reach
        assert cfg.grid_hi[0] >= x_eval + reach
