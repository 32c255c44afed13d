"""Turn generated slots into gscheme calls and output checks.

``build(slots, workdir)`` returns one :class:`Op` per slot.  ``Op.run`` calls
gscheme's public API (``import gscheme`` and ``gscheme.cli.main``) and nothing
else; ``Op.check`` compares the result with a reference from
:mod:`oracle` and returns ``|result - reference| / tolerance`` (an operation
passes when that ratio is at most 1).  References are computed on the first
check and cached, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import gscheme as gs
import gscheme.cli

import gen
import oracle


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    """One operation: ``run()`` calls gscheme, ``reference()`` computes its
    oracle (once), ``compare(result, reference)`` returns the error ratio and
    may note observations in ``info`` (bracket ratio, an escaped exception)."""

    slot: dict
    run: object
    reference: object
    compare: object
    _ref: object = field(default=None, repr=False)
    _have_ref: bool = False
    info: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.slot["slot"]

    def check(self, result) -> float:
        if not self._have_ref:
            self._ref = self.reference()
            self._have_ref = True
        return float(self.compare(result, self._ref))


def _ratio(value: float, ref: float, tol: float) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite result {value!r}")
    return abs(value - ref) / tol


def make_phi(desc: dict) -> gs.InitialData:
    shift = desc["shift"]
    if desc["type"] == "capped-relu":
        cap = desc["cap"]
        return gs.InitialData(
            "bench-capped-relu",
            lambda x: np.minimum(np.maximum(np.asarray(x, float) - shift, 0.0), cap),
            0.0, c_phi=1.0,
        )
    if desc["type"] == "logistic":
        width = desc["width"]
        return gs.InitialData(
            "bench-logistic",
            lambda x: 1.0 / (1.0 + np.exp((shift - np.asarray(x, float)) / width)),
            0.0, c_phi=0.25 / width,
        )
    if desc["type"] == "softplus2":
        width, w = desc["width"], np.array(desc["w"], dtype=float)
        return gs.InitialData(
            "bench-softplus2",
            lambda x: width * np.logaddexp(0.0, (np.atleast_2d(x) @ w - shift) / width),
            0.0, c_phi=float(np.abs(w).sum()),
        )
    raise ValueError(f"unknown phi type {desc['type']!r}")


def make_family(desc: dict) -> gs.UncertaintySet:
    if desc["type"] == "2d":
        q = desc["q"]
        return gs.UncertaintySet(tuple(
            gs.DiscreteMeasure(tuple(gs.Atom([k[0] * q[0], k[1] * q[1]], [0.0, 0.0], p)
                                     for k, p in atoms))
            for atoms in desc["measures"]), d=2)
    return gs.UncertaintySet(tuple(
        gs.DiscreteMeasure(tuple(gs.Atom([x], [y], p) for x, y, p in atoms))
        for atoms in gen.family_atoms(desc)), d=1)


def make_lattice(desc: dict) -> oracle.IntLattice:
    if desc["type"] == "pm":
        return oracle.pm_sigma_lattice(desc["ks"], desc["q"])
    if desc["type"] == "pm-generic":
        return oracle.generic_sigma_lattice(desc["sigmas"])
    if desc["type"] == "drift":
        return oracle.generic_sigma_lattice(desc["sigmas"], desc["mus"])
    if desc["type"] == "2d":
        return oracle.grid2d_lattice(desc["q"], desc["measures"])
    raise ValueError(f"no lattice for family type {desc['type']!r}")


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gscheme.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _float_after(text: str, key: str) -> float:
    m = re.search(rf"^{re.escape(key)}\s*=\s*(\S+)\s*$", text, re.MULTILINE)
    if m is None:
        raise CheckFailed(f"no '{key} = ...' line in output")
    return float(m.group(1))


def _payoff(slot: dict):
    return gs.make_payoff(slot["payoff"], slot["K"], slot["cap"])


def _spec(slot: dict) -> gs.BsbSpec:
    lo, hi = slot["sigma"]
    return gs.BsbSpec(slot["r"], lo, hi, 1.0, _payoff(slot), n_sigma=slot["n_sigma"],
                      delta=slot["delta"])


def _crr(slot: dict, sigma: float) -> float:
    return oracle.crr_price(slot["r"], sigma, 1.0, slot["delta"], slot["s0"], _payoff(slot).value)


def _price_ratio(price: float, ref: dict) -> float:
    """Band price against its exact endpoint-sigma prices from below, and from
    above against Black-Scholes (equal to it for puts, at most the bound for
    capped calls)."""
    tol = gen.PRICE_TOL
    if not math.isfinite(price):
        raise CheckFailed(f"non-finite price {price!r}")
    ratio = max(ref["endpoints"] - price, 0.0) / tol
    if "bs" in ref:
        ratio = max(ratio, abs(price - ref["bs"]) / tol)
    if "upper" in ref:
        ratio = max(ratio, max(price - ref["upper"], 0.0) / tol)
    return ratio


def _band_reference(slot: dict) -> dict:
    lo, hi = slot["sigma"]
    r, K, s0 = slot["r"], slot["K"], slot["s0"]
    ref = {"endpoints": max(_crr(slot, lo), _crr(slot, hi))}
    if slot["payoff"] == "put":
        ref["bs"] = oracle.bs_put(r, hi, 1.0, K, s0)
    else:
        # capped call = call(K) - call(K + cap): at most the first at sigma_hi
        # less the second at sigma_lo
        ref["upper"] = oracle.bs_call(r, hi, 1.0, K, s0) - oracle.bs_call(r, lo, 1.0,
                                                                          K + slot["cap"], s0)
    return ref


def _grid_config(slot: dict, d: int) -> gs.SchemeConfig:
    half, n = slot["half"], slot["grid_n"]
    return gs.SchemeConfig(delta=1.0 / slot["steps"], horizon=1.0, grid_lo=(-half,) * d,
                           grid_hi=(half,) * d, grid_n=(n,) * d)


def _slope(deltas, errors) -> float:
    """Least-squares slope of log error on log delta, written out."""
    x = np.log(np.asarray(deltas, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    xm, ym = x.mean(), y.mean()
    return float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())


def build_op(slot: dict, workdir: str) -> Op:
    kind = slot["kind"]
    tol = slot["tags"]["tol"]

    if kind == "clt":
        fam, phi, n = make_family(slot["family"]), make_phi(slot["phi"]), slot["n"]
        lat = make_lattice(slot["family"])
        return Op(slot, lambda: gs.clt_functional(fam, n, phi),
                  lambda: oracle.lattice_value(lat, 1.0 / n, n, [0.0], phi),
                  lambda v, ref: _ratio(v, ref, tol))

    if kind == "lln":
        lo, hi = slot["theta"]
        fam = gs.lln_box_family(lo, hi, n_measures=slot["n_measures"], spread=slot["spread"])
        theta = gs.ThetaSet.box([lo], [hi])
        a, b = lo - slot["spread"], hi + slot["spread"]
        lams = [(mu - a) / (b - a) for mu in np.linspace(lo, hi, slot["n_measures"])]
        lat = oracle.two_point_y_lattice(a, b, lams)
        dist = lambda x: np.maximum(np.maximum(lo - np.asarray(x, float), np.asarray(x, float) - hi), 0.0)

        def reference():
            return {n: oracle.lattice_value(lat, 1.0 / n, n, [0.0], dist) for n in slot["n_list"]}

        def compare(res, ref):
            if not res.passed:
                raise CheckFailed("lln experiment reported FAIL")
            rows = {int(round(r.resolution)): r.error for r in res.rows}
            if sorted(rows) != sorted(ref):
                raise CheckFailed(f"rows {sorted(rows)} != n_list {sorted(ref)}")
            return max(_ratio(rows[n], ref[n], tol) for n in ref)

        return Op(slot, lambda: gs.lln_experiment(fam, theta, slot["n_list"]), reference, compare)

    if kind == "constants":
        fam = make_family(slot["family"])
        atoms = gen.family_atoms(slot["family"])
        return Op(slot, lambda: gs.compute_constants(gs.validate(fam), 1.0, 1.0, 1.0).c_explicit,
                  lambda: oracle.c_explicit(atoms, 1.0, 1.0),
                  lambda v, ref: _ratio(v, ref, tol * ref))

    if kind in ("cli-bounds", "cli-consistency", "cli-malformed"):
        path = os.path.join(workdir, slot["slot"] + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(slot["text"])
        if kind == "cli-consistency":
            argv = ["consistency", "--family", path]
        else:
            argv = ["bounds", "--cphi", "1", "--beta", "1", "--T", "1", "--family", path]
        run = lambda: _call_cli(argv)
        if kind == "cli-malformed":
            info = {}

            def run_malformed():
                try:
                    return _call_cli(argv)
                except Exception as exc:  # noqa: BLE001  (the escape is what is counted)
                    return exc

            def compare(res, _ref):
                # the file must be rejected; an exception escaping cli.main
                # (exit 1 with an "error:" line is documented) is counted apart
                info["escaped"] = isinstance(res, Exception)
                if not info["escaped"] and (res[0] != 1 or not res[2].startswith("error:")):
                    raise CheckFailed(f"exit {res[0]}, stderr {res[2][:80]!r}")
                return 0.0

            return Op(slot, run_malformed, lambda: None, compare, info=info)
        atoms = gen.family_atoms(slot["family"])
        if kind == "cli-bounds":
            def compare(res, ref):
                code, out, _err = res
                if code != 0:
                    raise CheckFailed(f"exit code {code}")
                return _ratio(_float_after(out, "c_explicit"), ref, tol * ref)
            return Op(slot, run, lambda: oracle.c_explicit(atoms, 1.0, 1.0), compare)
        deltas = [0.25, 0.125, 0.0625, 0.03125]  # the CLI's default --delta-list
        pts = np.linspace(-6.0, 6.0, 241)  # gaussian bump sample set
        def compare(res, ref):
            code, out, _err = res
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            rows = re.findall(r"^([0-9.e-]+),([0-9.e+-]+),([0-9.e+-]+),true$", out, re.MULTILINE)
            if len(rows) != len(deltas):
                raise CheckFailed(f"{len(rows)} passing rows, expected {len(deltas)}")
            got = {float(d): float(m) for d, m, _b in rows}
            # a difference quotient: rounding is absolute, about 1e-16 / delta
            return max(_ratio(got[d], ref[d], tol * max(ref[d], 1.0)) for d in deltas)
        return Op(slot, run,
                  lambda: {d: oracle.consistency_error(atoms, d, pts) for d in deltas}, compare)

    if kind == "band":
        spec = _spec(slot)
        return Op(slot, lambda: gs.bsb_price(spec, slot["s0"]),
                  lambda: _band_reference(slot), _price_ratio)

    if kind == "degenerate":  # a put on a single volatility
        spec = _spec(slot)
        sigma = slot["sigma"][0]

        def reference():
            return {"crr": _crr(slot, sigma),
                    "bs": oracle.bs_put(slot["r"], sigma, 1.0, slot["K"], slot["s0"])}

        def compare(v, ref):
            return max(_ratio(v, ref["crr"], tol), abs(v - ref["bs"]) / gen.PRICE_TOL)

        return Op(slot, lambda: gs.bsb_price(spec, slot["s0"], backend=slot["backend"]),
                  reference, compare)

    if kind == "rate":  # a put on the band: its limit price is Black-Scholes at sigma_hi
        spec = _spec(slot)
        s0, hi = slot["s0"], slot["sigma"][1]
        # the experiment's default query band: 41 log prices within 0.5 of log s0
        query = np.linspace(math.log(s0) - 0.5, math.log(s0) + 0.5, 41)

        def reference():
            """Each time step's error measured against Black-Scholes instead of
            gscheme's Richardson reference, from gscheme's price curve at that step."""
            bs = np.array([oracle.bs_put(slot["r"], hi, 1.0, slot["K"], math.exp(x))
                           for x in query])
            errors = {}
            for d in slot["deltas"]:
                sub = gs.BsbSpec(spec.r, spec.sigma_lo, hi, 1.0, spec.payoff,
                                 n_sigma=spec.n_sigma, delta=d)
                _value, levels = gs.bsb_price(sub, s0, return_solution=True)
                curve = levels[-1].interp(query) * math.exp(-spec.r)
                errors[d] = float(np.max(np.abs(curve - bs)))
            return errors

        def compare(res, ref):
            errs = [r.error for r in res.rows]
            deltas = [r.resolution for r in res.rows]
            if not res.passed:
                raise CheckFailed(f"rate experiment reported FAIL (slope {res.fitted_slope:.3f})")
            if sorted(deltas) != sorted(ref):
                raise CheckFailed(f"rows {deltas} != time steps {sorted(ref)}")
            return max(_ratio(res.fitted_slope, _slope(deltas, errs), gen.CHECK_REL_TOL),
                       max(_ratio(e, ref[d], tol) for d, e in zip(deltas, errs)))

        return Op(slot, lambda: gs.bsb_rate_experiment(spec, s0, slot["deltas"]),
                  reference, compare)

    if kind == "reference":
        fam, phi = make_family(slot["family"]), make_phi(slot["phi"])
        lat = make_lattice(slot["family"])

        def reference():
            # lattice solves at 1024, 2048 and 4096 steps: the limit agrees
            # with the one from 512/1024/2048 to about 1e-8, far inside REF_TOL
            return {"value": oracle.richardson_limit(lat, 1.0, 1024, [0.0], phi)[0]}

        info = {}

        def compare(res, ref):
            info["bracket_ratio"] = abs(res.value - ref["value"]) / res.accuracy
            return _ratio(res.value, ref["value"], tol)

        return Op(slot, lambda: gs.fine_grid_reference(fam, phi, 1.0, 0.0,
                                                        delta_ref=slot["delta_ref"]),
                  reference, compare, info=info)

    if kind == "brute":
        fam, phi, n = make_family(slot["family"]), make_phi(slot["phi"]), slot["n"]
        lat = make_lattice(slot["family"])
        return Op(slot, lambda: gs.brute_force_tree(fam, 1.0 / n, n, [0.0], phi),
                  lambda: oracle.lattice_value(lat, 1.0 / n, n, [0.0], phi),
                  lambda v, ref: _ratio(v, ref, tol))

    if kind in ("grid1d", "grid2d"):
        d = 2 if kind == "grid2d" else 1
        fam, phi = make_family(slot["family"]), make_phi(slot["phi"])
        lat = make_lattice(slot["family"])
        cfg = _grid_config(slot, d)
        x0 = [0.0] * d
        n = slot["steps"]
        return Op(slot, lambda: gs.solve_grid(fam, cfg, phi).value_at(1.0, x0 if d > 1 else 0.0),
                  lambda: oracle.lattice_value(lat, 1.0 / n, n, x0, phi),
                  lambda v, ref: _ratio(v, ref, tol))

    if kind == "comparison":
        fam, phi = make_family(slot["family"]), make_phi(slot["phi"])
        lift = slot["lift"]
        lifted = gs.InitialData("bench-lifted", lambda x: phi(x) + lift, 0.0, c_phi=1.0)
        cfg = _grid_config(slot, 1)

        def run():
            under = gs.solve_grid(fam, cfg, phi)
            over = gs.solve_grid(fam, cfg, lifted)
            return gs.check_comparison(under, over)

        def compare(res, _ref):
            holds, worst = res
            if not holds:
                raise CheckFailed(f"comparison reported a violation of {worst:.3e}")
            # over = under + lift exactly, so the largest gap is -lift
            return _ratio(worst, -lift, tol * lift)

        return Op(slot, run, lambda: None, compare)

    raise ValueError(f"unknown slot kind {kind!r}")


def build(slots: list[dict], workdir: str) -> list[Op]:
    return [build_op(s, workdir) for s in slots]
