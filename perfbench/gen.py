"""Seeded input generators for the two benchmark workloads.

A generator returns a list of *slots*: plain JSON-able dicts that fully
describe one operation's inputs.  The seed draws values (volatilities,
strikes, caps, drifts, file contents); it never draws sizes.  For every slot
the step count, time step, ``n_sigma``, atom counts and the largest |X|
(which sets grid widths) are fixed, so every seed asks for the same work.

Each slot carries ``tags``:

* ``m`` -- number of distinct one-step displacements,
* ``rank1`` -- whether every displacement difference is an integer multiple of
  one quantum (the commensurate case a position-keyed lattice can exploit),
* ``nodes`` and ``steps`` -- the problem size (lattice leaves as counted by the
  count-tuple lattice, or grid nodes), and ``nodes_x_steps``.  Where gscheme
  sizes the grid itself (pricing, the 9-sigma fallback, the fine reference)
  ``nodes`` is None: the traced run reports the node counts gscheme used
  (``scheme.solve_grid.node_steps``, ``bsb.bsb_step.node_steps``),
* ``oracle`` and ``tol`` -- the independent reference and its tolerance.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("clt-lattice", "grid-solves")

SIGMA_MAX = 0.3  # largest |X| of every pm-sigma family: fixes grid widths
LATTICE_TOL = 1e-12
GRID_FALLBACK_TOL = 5e-3
PRICE_TOL = 5e-3
CRR_TOL = 1e-10
REF_TOL = 1e-4
CHECK_REL_TOL = 1e-9
RATE_ERR_TOL = 2e-4  # the smallest error the rate study reports (delta = 2^-7)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _near(rng: random.Random, centre: float, rel: float = 0.05) -> float:
    """A value within +-rel of centre.

    Values that set an operation's discretization error are drawn in narrow
    bands, so the error ratios (and ``err_ratio_max``) compare like with like
    from seed to seed.
    """
    return round(centre * (1.0 + rng.uniform(-rel, rel)), 9)


def _commensurate(rng: random.Random, count: int, kmax: int) -> dict:
    """pm-sigma family sigma_i = k_i * q: k = 1 and kmax plus count-2 drawn between.

    The extremes are fixed because the G-equation of a pm-sigma family only
    sees its smallest and largest sigma.
    """
    ks = [1] + sorted(rng.sample(range(2, kmax), count - 2)) + [kmax]
    return {"type": "pm", "ks": ks, "q": SIGMA_MAX / kmax}


def _capped_relu(rng: random.Random) -> dict:
    return {"type": "capped-relu", "shift": round(rng.uniform(-0.05, 0.05), 6),
            "cap": round(rng.uniform(0.3, 0.6), 6)}


def _logistic(rng: random.Random) -> dict:
    """Smooth S-shaped initial data for the 9-sigma grid fallback: the grid's
    interpolation error, not where a kink falls between nodes, sets its error,
    and the family maximum switches between sigma_min and sigma_max."""
    return {"type": "logistic", "shift": round(rng.uniform(-0.004, 0.004), 9), "width": 0.1}


def _softplus2(rng: random.Random) -> dict:
    """Smooth convex ramp softplus(w . x) for the 2-D grid: the interpolation
    bias has one sign, so the solve's error stays away from zero."""
    return {"type": "softplus2", "shift": round(rng.uniform(-0.02, 0.02), 9), "width": 0.2,
            "w": [1.0, _near(rng, 0.5)]}


def _tags(m: int, rank1: bool, nodes: int | None, steps: int, oracle: str, tol: float,
          **sizes) -> dict:
    return {"m": m, "rank1": rank1, "nodes": nodes, "steps": steps,
            "nodes_x_steps": None if nodes is None else nodes * steps, "oracle": oracle,
            "tol": tol, **sizes}


def family_atoms(fam: dict):
    """Per-measure ``(x, y, p)`` atom lists of a 1-D family descriptor."""
    if fam["type"] == "pm":
        sig = [k * fam["q"] for k in fam["ks"]]
        return [[(s, 0.0, 0.5), (-s, 0.0, 0.5)] for s in sig]
    if fam["type"] == "pm-generic":
        return [[(s, 0.0, 0.5), (-s, 0.0, 0.5)] for s in fam["sigmas"]]
    if fam["type"] == "drift":
        return [[(s, u, 0.5), (-s, u, 0.5)] for s, u in zip(fam["sigmas"], fam["mus"])]
    raise ValueError(f"no 1-D atom table for family type {fam['type']!r}")


def measure_text(fam: dict) -> str:
    """The family in gscheme's plain-text measure format (``d=1 measures=k``)."""
    atoms = family_atoms(fam)
    lines = [f"d=1 measures={len(atoms)}"]
    for i, measure in enumerate(atoms):
        for x, y, p in measure:
            lines.append(f"{i} {x!r} {y!r} {p!r}")
    return "\n".join(lines) + "\n"


def clt_lattice(seed: int) -> list[dict]:
    rng = _rng("clt-lattice", seed)
    slots = []
    families = [
        ("c2", {"type": "pm", "ks": [rng.randint(1, 5), 6], "q": SIGMA_MAX / 6},
         (8, 16, 32, 48, 64), _capped_relu(rng)),
        ("g2", {"type": "pm-generic", "sigmas": [round(rng.uniform(0.08, 0.26), 9), SIGMA_MAX]},
         (8, 16, 32, 48, 64), _capped_relu(rng)),
        ("c3", _commensurate(rng, 3, 6), (8, 12, 16, 20), _capped_relu(rng)),
        ("c9", _commensurate(rng, 9, 12), (64,), _logistic(rng)),
    ]
    for label, fam, ns, phi in families:
        s = len(fam["ks"]) if fam["type"] == "pm" else len(fam["sigmas"])
        for n in ns:
            if label == "c9":
                # the count-tuple lattice refuses 18 displacements and
                # clt_functional falls back to a grid of its own sizing
                tags = _tags(2 * s, True, None, n, "int-lattice", GRID_FALLBACK_TOL)
            else:  # count-tuple leaves C(n + m - 1, n) with m = 2s displacements
                tags = _tags(2 * s, fam["type"] == "pm", math.comb(n + 2 * s - 1, n), n,
                             "int-lattice", LATTICE_TOL)
            slots.append({"slot": f"clt/{label}/n{n}", "kind": "clt", "family": fam,
                          "phi": phi, "n": n, "tags": tags})
    theta_lo = round(rng.uniform(-0.2, 0.0), 6)
    theta = [theta_lo, round(theta_lo + rng.uniform(0.05, 0.2), 6)]
    slots.append({"slot": "lln/box", "kind": "lln", "theta": theta, "n_measures": 5,
                  "spread": 0.45, "n_list": [16, 64, 256, 1024],
                  "tags": _tags(2, True, 1025, 1024, "int-lattice", LATTICE_TOL)})
    bounds_fam = {"type": "pm-generic",
                  "sigmas": sorted(round(rng.uniform(0.05, SIGMA_MAX), 9) for _ in range(3))}
    for kind, fam in (("constants", families[0][1]), ("cli-bounds", bounds_fam),
                      ("cli-consistency", bounds_fam)):
        oracle = "consistency" if kind == "cli-consistency" else "c-explicit"
        slot = {"slot": kind, "kind": kind, "family": fam,
                "tags": _tags(2 * len(family_atoms(fam)), fam["type"] == "pm", 0, 0, oracle,
                              CHECK_REL_TOL)}
        if kind != "constants":
            slot["text"] = measure_text(fam)
        slots.append(slot)
    good = measure_text(bounds_fam).splitlines()
    bad_float = rng.choice(["abc", "0.1.2", "nan?", "1e", "--3"])
    bad_lines = [good[0], f"0 {bad_float} 0 0.5"] + good[2:]
    bad_header = [good[0] + f" {rng.choice(['junk', 'seed', 'x', 'v2'])}"] + good[1:]
    for kind, lines in (("cli-bad-float", bad_lines), ("cli-bad-header", bad_header)):
        slots.append({"slot": kind, "kind": "cli-malformed", "text": "\n".join(lines) + "\n",
                      "tags": _tags(0, False, 0, 0, "exit-code-1", 0.0)})
    return slots


def _bsb_market(rng: random.Random, payoff: str) -> dict:
    """Rate, strike and spot for one price.

    Puts are priced at the money (s0 = K) with the rate in a narrow band: their
    gap to Black-Scholes feeds ``err_ratio_max``, and that gap changes sign
    as the strike moves across the scheme's step lattice.
    """
    mk = {"r": _near(rng, 0.04, 0.01), "K": _near(rng, 1.0, 0.02), "payoff": payoff,
          "cap": None}
    if payoff == "put":
        mk["s0"] = mk["K"]
    else:
        mk["cap"] = _near(rng, 0.3)
        mk["s0"] = _near(rng, 1.0)
    return mk


def _pricing_slots(seed: int) -> list[dict]:
    rng = _rng("bsb-pricing", seed)
    slots = []
    payoffs = ("put", "capped-call")
    for count, n_sigma, delta in ((4, 33, 1 / 256), (2, 33, 1 / 512), (2, 5, 1 / 1024)):
        for i in range(count):
            mk = _bsb_market(rng, payoffs[i % 2])
            oracle = "bs-put+endpoints" if mk["payoff"] == "put" else "endpoints+bs-call-bound"
            tags = _tags(2 * n_sigma, False, None, round(1 / delta), oracle, PRICE_TOL,
                         n_sigma=n_sigma, delta=delta)
            slots.append({"slot": f"band/ns{n_sigma}/d{round(1 / delta)}/{i}", "kind": "band",
                          "sigma": [0.1, 0.3], "n_sigma": n_sigma, "delta": delta,
                          "tags": tags, **mk})
    for i in range(4):
        # degenerate bands are puts, so both CRR and Black-Scholes apply
        mk = _bsb_market(rng, "put")
        sigma = _near(rng, 0.2, 0.02)
        delta = 1 / 1024
        for backend in ("exact", "grid"):
            # the exact tree has n + 1 leaves; gscheme sizes the grid
            nodes = 1025 if backend == "exact" else None
            tags = _tags(2, True, nodes, 1024, "crr+bs-put", CRR_TOL if backend == "exact"
                         else PRICE_TOL, n_sigma=1, delta=delta)
            slots.append({"slot": f"degenerate/{backend}/{i}", "kind": "degenerate",
                          "backend": backend, "sigma": [sigma, sigma], "n_sigma": 1,
                          "delta": delta, "tags": tags, **mk})
    mk = _bsb_market(rng, "put")
    deltas = [2.0**-k for k in range(4, 8)]
    slots.append({"slot": "rate", "kind": "rate", "sigma": [0.1, 0.3], "n_sigma": 5,
                  "deltas": deltas, "delta": deltas[0],
                  # steps: 16 + 32 + 64 + 128, then the reference's 256 + 512 + 1024
                  "tags": _tags(10, False, None, 2032, "bs-put-errors+slope", RATE_ERR_TOL,
                                n_sigma=5, delta=deltas[-1]), **mk})
    return slots


def _reference_slots(seed: int) -> list[dict]:
    rng = _rng("gheat-reference", seed)
    fam = {"type": "pm", "ks": [rng.randint(1, 5), 6], "q": SIGMA_MAX / 6}
    phi = {"type": "capped-relu", "shift": 0.0, "cap": 1.0}
    slots = [{"slot": "fine-reference", "kind": "reference", "family": fam, "phi": phi,
              "delta_ref": 1 / 1024,
              "tags": _tags(4, True, None, 1024, "int-lattice-richardson", REF_TOL)}]
    for n in (2, 3, 4):
        slots.append({"slot": f"brute/n{n}", "kind": "brute", "family": fam, "phi": phi, "n": n,
                      "tags": _tags(4, True, 4**n, n, "int-lattice", LATTICE_TOL)})
    measures = [
        [[[1, 0], 0.5], [[-1, 0], 0.5]],
        [[[0, 2], 0.5], [[0, -2], 0.5]],
        [[[s1, s2], 0.25] for s1 in (1, -1) for s2 in (1, -1)],
    ]
    slots.append({"slot": "grid2d", "kind": "grid2d",
                  "family": {"type": "2d", "q": [0.15, 0.15], "measures": measures},
                  "phi": _softplus2(rng), "grid_n": 161, "half": 1.2,
                  "steps": 32,
                  "tags": _tags(8, False, 161 * 161, 32, "int-lattice", GRID_FALLBACK_TOL)})
    drift = {"type": "drift", "sigmas": [round(rng.uniform(0.1, 0.25), 9), SIGMA_MAX],
             "mus": [round(rng.uniform(-0.2, 0.2), 9), round(rng.uniform(-0.2, 0.2), 9)]}
    slots.append({"slot": "grid-drift", "kind": "grid1d", "family": drift,
                  "phi": _capped_relu(rng), "grid_n": 4801, "half": 1.6, "steps": 24,
                  "tags": _tags(4, False, 4801, 24, "int-lattice", GRID_FALLBACK_TOL)})
    slots.append({"slot": "comparison", "kind": "comparison", "family": fam, "phi": phi,
                  "lift": round(rng.uniform(0.01, 0.1), 6), "grid_n": 6001, "half": 1.2,
                  "steps": 256,
                  "tags": _tags(4, True, 6001, 256, "constant-lift", CHECK_REL_TOL)})
    return slots


def grid_solves(seed: int) -> list[dict]:
    """Every grid-backend path: pricing slots, then reference slots (each
    drawn from its own random stream)."""
    return _pricing_slots(seed) + _reference_slots(seed)


GENERATORS = {"clt-lattice": clt_lattice, "grid-solves": grid_solves}


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[workload](seed)


def inputs_bytes(slots: list[dict]) -> bytes:
    """Canonical serialization of a workload's inputs (tags excluded)."""
    plain = [{k: v for k, v in s.items() if k != "tags"} for s in slots]
    return json.dumps(plain, sort_keys=True).encode()


def rank1_share(slots: list[dict]) -> float:
    return sum(1 for s in slots if s["tags"]["rank1"]) / len(slots)
