import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gscheme as gs
from conftest import make_random_family


def test_constant_payoff_preserved():
    u = gs.pm_sigma_family([0.1, 0.2, 0.3])
    assert gs.sublinear_expect(u, lambda x, y: 2.75) == pytest.approx(2.75, abs=1e-15)


def test_symmetric_two_point_second_moment():
    u = gs.pm_sigma_family([1.0])
    assert gs.sublinear_expect(u, lambda x, y: float(x @ x)) == pytest.approx(1.0, abs=1e-15)


def test_family_max_over_three_sigmas():
    u = gs.pm_sigma_family([0.1, 0.2, 0.3])
    # brute force over the three measures with exact sums
    expected = max(0.5 * s * s + 0.5 * s * s for s in (0.1, 0.2, 0.3))
    got = gs.sublinear_expect(u, lambda x, y: float(x @ x))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.09, abs=1e-12)


def test_nonfinite_payoff_names_the_atom():
    u = gs.pm_sigma_family([0.1])
    with pytest.raises(gs.EvaluationError, match="atom"):
        gs.sublinear_expect(u, lambda x, y: float("nan"))


def test_moment_zero_family():
    u = gs.zero_family()
    for p in (0.5, 1, 2, 3):
        assert gs.moment(u, "X", p) == 0.0


def test_moment_examples():
    u = gs.pm_sigma_family([0.1, 0.3])
    assert gs.moment(u, "X", 2) == pytest.approx(0.09, abs=1e-14)
    bsb = gs.bsb_family(0.05, 0.1, 0.3, 2)
    assert gs.moment(bsb, "Y", 1) == pytest.approx(0.045, abs=1e-14)


def test_moment_rejects_bad_order():
    with pytest.raises(gs.ArgumentError):
        gs.moment(gs.zero_family(), "X", 0.0)
    with pytest.raises(gs.ArgumentError):
        gs.moment(gs.zero_family(), "Z", 1.0)


def test_g_function_trivial_and_bsb():
    bsb = gs.bsb_family(0.05, 0.1, 0.3, 33)
    assert gs.g_function(bsb, [0.0], [[0.0]]) == 0.0
    assert gs.g_function(bsb, [0.0], [[1.0]]) == pytest.approx(0.045, abs=1e-12)
    assert gs.g_function(bsb, [1.0], [[0.0]]) == pytest.approx(0.045, abs=1e-12)


def test_g_function_rejects_asymmetric():
    u = make_random_family(np.random.default_rng(0), d=2)
    with pytest.raises(gs.ArgumentError, match="symmetric"):
        gs.g_function(u, [0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]])


def test_validate_reports_moments_and_flags():
    u = gs.pm_sigma_family([0.1, 0.3])
    rep = gs.validate(u)
    assert rep.no_mean_uncertainty
    assert rep.m_x2 == pytest.approx(0.09, abs=1e-14)
    assert rep.sigma_lower_sq == pytest.approx(0.01, abs=1e-14)
    assert rep.sigma_lower_sq <= rep.m_x2
    assert rep.m_y1 <= math.sqrt(rep.m_y2) + 1e-12

    single = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([1.0], [0.0], 1.0),)),), d=1)
    assert not gs.validate(single).no_mean_uncertainty

    shifted = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([0.0], [2.0], 1.0),)),), d=1)
    rep3 = gs.validate(shifted)
    assert rep3.m_x3 == 0.0
    assert rep3.m_y1 == pytest.approx(2.0, abs=1e-14)


def test_validate_lists_every_violation():
    bad = gs.UncertaintySet(
        (
            gs.DiscreteMeasure((gs.Atom([1.0], [0.0], 0.4),)),  # weights sum to 0.4
            gs.DiscreteMeasure((gs.Atom([1.0, 2.0], [0.0, 0.0], 1.0),)),  # dimension 2
        ),
        d=1,
    )
    with pytest.raises(gs.ValidationError) as err:
        gs.validate(bad)
    text = str(err.value)
    assert "weights sum" in text and "dimension" in text


def test_weights_renormalized_only_within_tolerance():
    # within 1e-12: renormalized to exactly 1
    atoms = (gs.Atom([1.0], [0.0], 0.5 + 4e-13), gs.Atom([-1.0], [0.0], 0.5))
    m = gs.DiscreteMeasure(atoms)
    assert math.fsum(a.p for a in m.atoms) == pytest.approx(1.0, abs=1e-15)
    # far off: left as-is, flagged by validate
    bad = gs.UncertaintySet((gs.DiscreteMeasure((gs.Atom([1.0], [0.0], 0.7),)),), d=1)
    with pytest.raises(gs.ValidationError):
        gs.validate(bad)


def test_jensen_between_y_moments(rng):
    for _ in range(20):
        u = make_random_family(rng)
        rep = gs.validate(u)
        assert rep.m_y1 <= math.sqrt(rep.m_y2) + 1e-12


def test_family_monotonicity(rng):
    for _ in range(20):
        u = make_random_family(rng)
        bigger = gs.UncertaintySet(u.measures + make_random_family(rng, d=u.d).measures, d=u.d)
        f = lambda x, y: float(np.sum(x) + np.cos(np.sum(y)))
        assert gs.sublinear_expect(bigger, f) >= gs.sublinear_expect(u, f) - 1e-15


def test_oracle_equality_against_fsum(rng):
    for _ in range(20):
        u = make_random_family(rng)
        f = lambda x, y: float(np.sum(x * x) - np.sum(y))
        expected = max(
            math.fsum(a.p * f(a.x, a.y) for a in m.atoms) for m in u.measures
        )
        assert gs.sublinear_expect(u, f) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    c=st.floats(-5, 5),
    lam=st.floats(0, 4),
)
def test_axioms_property(seed, c, lam):
    rng = np.random.default_rng(seed)
    u = make_random_family(rng)
    vals_f, vals_g = {}, {}
    for m in u.measures:
        for a in m.atoms:
            key = a.x.tobytes()
            vals_f.setdefault(key, float(rng.normal()))
            vals_g.setdefault(key, vals_f[key] + float(rng.random()))
    f = lambda x, y: vals_f[x.tobytes()]
    g = lambda x, y: vals_g[x.tobytes()]
    ef, eg = gs.sublinear_expect(u, f), gs.sublinear_expect(u, g)
    assert ef <= eg + 1e-12
    assert gs.sublinear_expect(u, lambda x, y: f(x, y) + c) == pytest.approx(ef + c, abs=1e-12)
    assert gs.sublinear_expect(u, lambda x, y: f(x, y) + g(x, y)) <= ef + eg + 1e-12
    assert gs.sublinear_expect(u, lambda x, y: lam * f(x, y)) == pytest.approx(
        lam * ef, abs=1e-12 * max(1.0, lam)
    )


def test_text_round_trip(rng):
    for _ in range(10):
        u = make_random_family(rng, d=int(rng.integers(1, 3)))
        text = gs.to_text(u)
        back = gs.from_text(text)
        assert gs.to_text(back) == text
        for m1, m2 in zip(u.measures, back.measures):
            for a1, a2 in zip(m1.atoms, m2.atoms):
                assert np.array_equal(a1.x, a2.x)
                assert np.array_equal(a1.y, a2.y)
                assert a1.p == a2.p


def test_file_round_trip(tmp_path):
    u = gs.bsb_family(0.05, 0.1, 0.3, 3)
    path = tmp_path / "family.txt"
    gs.save_measures(u, path)
    back = gs.load_measures(path)
    assert gs.to_text(back) == gs.to_text(u)


def test_from_text_rejects_malformed():
    with pytest.raises(gs.ArgumentError):
        gs.from_text("")
    with pytest.raises(gs.ArgumentError):
        gs.from_text("d=1 measures=1\n0 1.0 0.0\n")  # missing weight column
    with pytest.raises(gs.ArgumentError):
        gs.from_text("d=1 measures=2\n0 1.0 0.0 1.0\n")  # declared measure missing


@pytest.mark.parametrize(
    "text, where",
    [
        ("d=1 measures=1\n0 abc 0 1\n", "line 2"),
        ("d=1 measures=1\n\n# comment\nx 0.5 0 1\n", "line 4"),
        ("d=1 measures\n0 0.5 0 1\n", "line 1"),
        ("# header follows\nd=1 measures=1 v2\n0 0.5 0 1\n", "line 2"),
        ("d=0 measures=1\n0 1\n", "line 1"),
        ("d=1 measures=0\n", "line 1"),
        ("d=1 measures=1000000000000\n0 0.5 0 1\n", "line 1"),
    ],
)
def test_from_text_names_the_bad_line(text, where):
    with pytest.raises(gs.ArgumentError, match=where):
        gs.from_text(text)


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_token = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "1e308", "1e-320", "nan", "inf", "-0", "x",
                     "=", "d=1", "measures=1", "1_0", "#", "", "\x00", "٣"]),
    _finite.map(repr),
    st.text(max_size=6),
)
_line = st.lists(_token, max_size=7).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    header=st.one_of(
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(lambda t: f"d={t[0]} measures={t[1]}"),
        _line,
    ),
    body=st.lists(_line, max_size=6),
    noise=st.text(max_size=40),
)
def test_from_text_fuzz_raises_only_gscheme_errors(header, body, noise):
    for text in ("\n".join([header, *body]), noise, header + "\n" + noise):
        try:
            u = gs.from_text(text)
        except gs.GschemeError:
            continue
        assert isinstance(u, gs.UncertaintySet)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=200))
@example(data=b"\x80")  # not UTF-8
def test_load_measures_fuzz_raises_only_gscheme_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-family.txt"
    path.write_bytes(data)
    try:
        gs.load_measures(path)
    except gs.GschemeError:
        pass


@st.composite
def _families(draw):
    d = draw(st.integers(1, 3))
    measures = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        vec = st.lists(_finite, min_size=d, max_size=d)
        raw = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
        weights = [w / math.fsum(raw) for w in raw]
        measures.append(gs.DiscreteMeasure(tuple(
            gs.Atom(draw(vec), draw(vec), w) for w in weights)))
    return gs.UncertaintySet(tuple(measures), d=d)


@settings(max_examples=200, deadline=None)
@given(u=_families())
# weights whose renormalized sum is not exactly 1 (renormalized again on reading)
@example(u=gs.UncertaintySet((gs.DiscreteMeasure(tuple(
    gs.Atom([0.0], [0.0], p) for p in (0.0007716386855731596, 0.06715433970647779,
                                       0.3171376197660688, 0.6149364018418804))),), d=1))
def test_to_text_round_trip_fuzz(u):
    text = gs.to_text(u)
    back = gs.from_text(text)
    assert gs.to_text(back) == text
    assert back.d == u.d and len(back.measures) == len(u.measures)
    for m1, m2 in zip(u.measures, back.measures):
        assert len(m1.atoms) == len(m2.atoms)
        for a1, a2 in zip(m1.atoms, m2.atoms):
            assert np.array_equal(a1.x, a2.x)
            assert np.array_equal(a1.y, a2.y)
            assert a1.p == a2.p
