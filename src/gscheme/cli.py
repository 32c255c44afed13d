"""Command-line entry point.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error, 3 a requested
check ran and failed.  Data files never contain timestamps; run metadata goes
to ``#``-prefixed sidecar lines, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis import ExperimentResult
from .bounds import (
    BoundsReport,
    compute_constants,
    consistency_bounds,
    consistency_error,
    gaussian_bump,
    sine,
)
from .bsb import BsbSpec, bsb_price, bsb_transform, make_payoff
from .clt import clt_experiment, lln_experiment
from .errors import ArgumentError, GschemeError
from .families import builtin_family, builtin_phi
from .oracles import (
    ThetaSet,
    bs_closed_form,
    classical_normal_reference,
    fine_grid_reference,
    maximal_sup,
)
from .scheme import SchemeConfig, SchemeSolution, reachable_halfwidth, solve_grid
from .uncertainty import load_measures, validate


def fmt17(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


def _family_options(p, need_theta=False):
    p.add_argument("--family", required=True,
                   help="measure file path or builtin:{pm-sigma,bsb,lln-box,zero}")
    p.add_argument("--sigma-lo", type=float, default=None)
    p.add_argument("--sigma-hi", type=float, default=None)
    p.add_argument("--n-sigma", type=int, default=None)
    p.add_argument("--r", type=float, default=0.0)
    if need_theta:
        p.add_argument("--theta-lo", type=float, default=None)
        p.add_argument("--theta-hi", type=float, default=None)


def _load_family(ns):
    name = ns.family
    if not name.startswith("builtin:"):
        return load_measures(name)
    kind = name.split(":", 1)[1]
    params = {}
    if ns.sigma_lo is not None:
        params["sigma_lo"] = ns.sigma_lo
    if ns.sigma_hi is not None:
        params["sigma_hi"] = ns.sigma_hi
    if getattr(ns, "n_sigma", None) is not None:
        params["n_sigma"] = ns.n_sigma
    if kind == "bsb":
        params["r"] = ns.r
    if kind == "lln-box":
        params["theta_lo"] = ns.theta_lo if ns.theta_lo is not None else 0.0
        params["theta_hi"] = ns.theta_hi if ns.theta_hi is not None else 0.1
    return builtin_family(kind, **params)


def _parse_list(text: str, flag: str, kind=int) -> list:
    """Comma-separated finite numbers of one kind; at least one is required."""
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ArgumentError(f"bad {flag} {text!r}: want comma-separated finite {kind.__name__}s")
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gscheme", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gheat", help="solve the nonlinear heat recursion and print one value")
    _family_options(p)
    p.add_argument("--phi", required=True, help="builtin initial data name")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--x-eval", type=float, default=0.0)
    p.add_argument("--grid-half", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=2001)
    p.add_argument("--dump-steps", default=None, help="write per-step CSV here")
    p.add_argument("--out", default=None)

    p = sub.add_parser("clt", help="normalized-sum convergence against the explicit bound")
    _family_options(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--cphi", type=float, help="default: the Holder constant phi declares")
    p.add_argument("--beta", type=float, help="default: the Holder exponent phi declares")
    p.add_argument("--delta-ref", type=float, default=None,
                   help="time step of the fine reference solve (default 1/4096)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lln", help="mean-uncertainty convergence toward the target set")
    _family_options(p, need_theta=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--phi", default=None, help="optional builtin payoff; default distance to theta")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bsb", help="price a European claim under a volatility band")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--sigma-lo", type=float, required=True)
    p.add_argument("--sigma-hi", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--payoff", choices=("put", "capped-call"), required=True)
    p.add_argument("--cap", type=float, default=None)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--nsigma", type=int, default=33)
    p.add_argument("--backend", choices=("auto", "exact", "grid"), default="auto")
    p.add_argument("--dump-steps", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="print every explicit constant for a family")
    _family_options(p)
    p.add_argument("--cphi", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None, help="also write the report as key,value CSV")

    p = sub.add_parser("consistency", help="measured one-step consistency error vs its bound")
    _family_options(p)
    p.add_argument("--psi", choices=("gauss", "sin"), default="gauss")
    p.add_argument("--delta-list", default="0.25,0.125,0.0625,0.03125")
    # the variants whose seminorms both --psi choices declare
    p.add_argument("--variant", default="prop51_ii", choices=("prop51_ii", "appendix"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="reference-value diagnostics")
    p.add_argument("--which", choices=("bs", "normal", "maximal"), required=True)
    p.add_argument("--r", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--phi", default="relu")
    p.add_argument("--theta-lo", type=float, default=0.0)
    p.add_argument("--theta-hi", type=float, default=1.0)
    return ap


def parse_args(argv) -> argparse.Namespace:
    """Validated run options; argparse exits with code 2 on usage errors."""
    return build_parser().parse_args(argv)


def emit_csv(rows, path, header=None, sidecar: str | None = None) -> None:
    """Write rows of floats with round-trip-exact formatting.

    ``rows`` may be a list of tuples, an ExperimentResult, or a BoundsReport
    (emitted as key,value pairs).
    """
    if isinstance(rows, BoundsReport):
        header = ("key", "value")
        data = [(k, fmt17(v)) for k, v in rows.as_rows()]
    elif isinstance(rows, ExperimentResult):
        header = ("resolution", "error", "bound")
        data = [
            (fmt17(r.resolution), fmt17(r.error), "" if r.bound is None else fmt17(r.bound))
            for r in rows.rows
        ]
    else:
        data = [tuple(fmt17(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
        if header is None:
            header = ("resolution", "error", "bound")[: len(data[0])] if data else ("resolution", "error")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if sidecar:
                fh.write(f"# {sidecar}\n")
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(str(c) for c in row) + "\n")
    except OSError as exc:
        raise GschemeError(f"cannot write {path}: {exc}") from exc


def parse_csv(path):
    """Read back a CSV written by emit_csv: (header, float rows)."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(tuple(float(c) if c else None for c in line.split(",")))
    return header, rows


def _print_experiment(result: ExperimentResult, out=sys.stdout):
    print("resolution,error,bound,passed", file=out)
    for r in result.rows:
        ok = "" if r.bound is None else str(r.error <= r.bound).lower()
        bound = "" if r.bound is None else fmt17(r.bound)
        print(f"{fmt17(r.resolution)},{fmt17(r.error)},{bound},{ok}", file=out)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{result.label or 'experiment'}: {verdict} (fitted slope {result.fitted_slope:.4f})",
          file=out)


def _sidecar(ns: argparse.Namespace) -> str:
    skip = {"out", "dump_steps", "subcommand"}
    parts = [ns.subcommand] + [
        f"--{k.replace('_', '-')}={v}"
        for k, v in sorted(vars(ns).items())
        if k not in skip and v is not None
    ]
    return "gscheme " + " ".join(parts)


def _run(ns: argparse.Namespace) -> int:
    cmd = ns.subcommand
    if cmd == "gheat":
        u = _load_family(ns)
        phi = builtin_phi(ns.phi)
        half = ns.grid_half if ns.grid_half is not None else reachable_halfwidth(u, ns.T)
        cfg_g = SchemeConfig(delta=ns.delta, horizon=ns.T,
                             grid_lo=(ns.x_eval - half,), grid_hi=(ns.x_eval + half,),
                             grid_n=(ns.grid_n,))
        sol = solve_grid(u, cfg_g, phi, keep="all" if ns.dump_steps else "last")
        value = sol.value_at(ns.T, ns.x_eval)
        if ns.dump_steps:
            sol.dump_csv(ns.dump_steps)
        print(f"u({fmt17(ns.T)}, {fmt17(ns.x_eval)}) = {fmt17(value)}")
        if ns.out:
            emit_csv([(ns.T, ns.x_eval, value)], ns.out, header=("t", "x", "value"),
                     sidecar=_sidecar(ns))
        return 0

    if cmd == "clt":
        u = _load_family(ns)
        phi = builtin_phi(ns.phi)
        # resolved before _sidecar, which records the values the bound used
        ns.cphi = phi.c_phi if ns.cphi is None else ns.cphi
        ns.beta = phi.beta if ns.beta is None else ns.beta
        if ns.cphi is None:
            raise ArgumentError(f"phi {ns.phi!r} declares no Holder constant; pass --cphi")
        n_list = _parse_list(ns.n_list, "--n-list")
        moments = validate(u)
        report = compute_constants(moments, ns.cphi, ns.beta, 1.0)
        ref = fine_grid_reference(u, phi, 1.0, 0.0, delta_ref=ns.delta_ref,
                                  target_delta=1.0 / max(n_list))
        if ref.warning:
            print(f"warning: reference refinement does not contract (estimate "
                  f"{ref.accuracy:.2e}, fitted order {ref.meta['fitted_order']:.4g}); "
                  "its value is the finest solve", file=sys.stderr)
        result = clt_experiment(u, phi, n_list, ref, report.c_explicit, beta=ns.beta)
        _print_experiment(result)
        print(f"reference {fmt17(ref.value)} (accuracy {ref.accuracy:.2e}, {ref.method})")
        if ns.out:
            emit_csv(result, ns.out, sidecar=_sidecar(ns))
        return 0 if result.passed else 3

    if cmd == "lln":
        u = _load_family(ns)
        theta = ThetaSet.box([ns.theta_lo or 0.0], [ns.theta_hi if ns.theta_hi is not None else 0.1])
        n_list = _parse_list(ns.n_list, "--n-list")
        phi = builtin_phi(ns.phi) if ns.phi else None
        result = lln_experiment(u, theta, n_list, phi=phi)
        _print_experiment(result)
        if ns.out:
            emit_csv(result, ns.out, sidecar=_sidecar(ns))
        return 0 if result.passed else 3

    if cmd == "bsb":
        payoff = make_payoff(ns.payoff, ns.K, ns.cap)
        spec = BsbSpec(ns.r, ns.sigma_lo, ns.sigma_hi, ns.T, payoff,
                       n_sigma=ns.nsigma, delta=ns.delta)
        if ns.dump_steps:
            value, steps = bsb_price(spec, ns.s0, backend=ns.backend, return_solution=True)
            if steps is None:
                raise ArgumentError("--dump-steps writes grid levels, but this run prices on "
                                    "the exact tree; pass --backend grid")
            _x0, phi, inverse = bsb_transform(spec, ns.s0)
            price = inverse(value)
            SchemeSolution(steps[0].config, spec.uncertainty_set(), phi, steps).dump_csv(
                ns.dump_steps
            )
        else:
            price = bsb_price(spec, ns.s0, backend=ns.backend)
        print(f"price = {fmt17(price)}")
        if ns.out:
            emit_csv([(ns.s0, float(price))], ns.out, header=("s0", "price"), sidecar=_sidecar(ns))
        return 0

    if cmd == "bounds":
        u = _load_family(ns)
        moments = validate(u, alpha=ns.alpha)
        report = compute_constants(moments, ns.cphi, ns.beta, ns.T)
        width = max(len(k) for k, _ in report.as_rows())
        for key, val in report.as_rows():
            print(f"{key:<{width}} = {fmt17(val)}")
        print(f"{'explicit_applicable':<{width}} = {str(report.explicit_applicable).lower()}")
        if ns.out:
            emit_csv(report, ns.out, sidecar=_sidecar(ns))
        return 0

    if cmd == "consistency":
        u = _load_family(ns)
        psi = gaussian_bump() if ns.psi == "gauss" else sine()
        moments = validate(u)
        deltas = _parse_list(ns.delta_list, "--delta-list", float)
        rows = []
        ok = True
        for d in sorted(deltas, reverse=True):
            measured = consistency_error(u, d, psi, psi.sample_points())
            bound = consistency_bounds(moments, psi.norms, d, ns.variant)
            rows.append((d, measured, bound))
            ok = ok and measured <= bound
        print("resolution,error,bound,passed")
        for d, m, b in rows:
            print(f"{fmt17(d)},{fmt17(m)},{fmt17(b)},{str(m <= b).lower()}")
        print(f"consistency[{ns.variant}]: {'PASS' if ok else 'FAIL'}")
        if ns.out:
            emit_csv(rows, ns.out, header=("resolution", "error", "bound"), sidecar=_sidecar(ns))
        return 0 if ok else 3

    if cmd == "oracle":
        if ns.which == "bs":
            v = bs_closed_form(ns.r, ns.sigma, ns.T, ns.K, ns.s0)
            print(f"black-scholes put = {fmt17(v)}")
        elif ns.which == "normal":
            ref = classical_normal_reference(builtin_phi(ns.phi), ns.sigma)
            print(f"E[phi(sigma Z)] = {fmt17(ref.value)} (accuracy {ref.accuracy:.2e})")
        else:
            theta = ThetaSet.box([ns.theta_lo], [ns.theta_hi])
            v = maximal_sup(theta, builtin_phi(ns.phi))
            print(f"max over theta = {fmt17(v)}")
        return 0

    raise GschemeError(f"unhandled subcommand {cmd!r}")


def main(argv=None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _run(ns)
    except GschemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
