"""The tracer patches every reference, nests spans and restores the originals."""

import gscheme as gs
import gscheme.clt
import gscheme.oracles
import gscheme.scheme

import run
import spans


def test_tracer_patches_each_importing_module_and_restores():
    originals = (gscheme.clt.solve_lattice, gscheme.oracles.solve_lattice,
                 gscheme.scheme.GridFunction.interp)
    fam = gs.pm_sigma_family([0.1, 0.3])
    with spans.Tracer() as tracer:
        assert gscheme.clt.solve_lattice is not originals[0]
        assert gscheme.oracles.solve_lattice is gscheme.clt.solve_lattice
        gs.clt_functional(fam, 4, gs.capped_relu(1.0))
    assert (gscheme.clt.solve_lattice, gscheme.oracles.solve_lattice,
            gscheme.scheme.GridFunction.interp) == originals
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {s[1]: names.get(s[4]) for s in tracer.spans}
    assert parents["scheme.solve_lattice"] == "clt.clt_functional"
    assert parents["uncertainty.validate"] == "clt.clt_functional"
    assert parents["clt.clt_functional"] is None
    lattice = [s for s in tracer.spans if s[1] == "scheme.solve_lattice"][0]
    assert lattice[6] == {"leaf_nodes": 35}  # C(4 + 4 - 1, 4) count tuples


def test_refusal_and_layer_metrics():
    fam = gs.pm_sigma_family([0.1 * k for k in range(1, 10)])
    with spans.Tracer() as tracer:
        gs.clt_functional(fam, 64, gs.capped_relu(1.0))
    m = run.layer_metrics(tracer.spans, tracer.spans, 1.0)
    assert m["scheme.solve_lattice.refused"] == 1
    assert m["clt.lattice_hit_ratio"] == 0.0
    assert m["scheme.solve_grid.calls"] == 1
    # 513 grid nodes, 64 steps of 18 atoms, then one query at the origin
    assert m["scheme.solve_grid.node_steps"] == 513 * 64
    assert m["scheme.interp.calls"] == 64 * 18 + 1
    assert m["scheme.interp.points"] == 64 * 18 * 513 + 1


def test_self_time_subtracts_covered_child_time():
    span_list = [
        (0, "a", 0.0, 10.0, -1, None, None),
        (1, "b", 1.0, 4.0, 0, None, None),
        (2, "c", 2.0, 3.0, 1, None, None),
        (3, "b", 3.5, 6.0, 0, None, None),
    ]
    st = spans.self_times(span_list)
    assert st[0] == 10.0 - 5.0  # children cover [1, 6]
    assert st[1] == 3.0 - 1.0
    assert st[2] == 1.0
    assert st[3] == 2.5
