"""Everything but the ``oracle`` subcommand, the cubic-spline test function and
the quadrature cross-check runs on numpy alone: no scipy import at any point."""

import os
import subprocess
import sys

import gscheme as gs

SCRIPT = r"""
import sys

import numpy as np

import gscheme as gs
from gscheme import cli

gs.compute_c_rho()
u = gs.pm_sigma_family([0.1, 0.3])
gs.compute_constants(gs.validate(u), 1.0, 1.0, 1.0)
for d, n in ((2, 9), (3, 5)):
    measures = []
    for e in np.eye(d):
        measures.append(gs.DiscreteMeasure((gs.Atom(0.5 * e, 0.1 * e, 0.5),
                                            gs.Atom(-0.5 * e, 0.0 * e, 0.5))))
    cfg = gs.SchemeConfig(delta=0.25, horizon=0.5, grid_lo=(-2.0,) * d, grid_hi=(2.0,) * d,
                          grid_n=(n,) * d)
    phi = gs.InitialData("abs-sum", lambda p: np.abs(p).sum(axis=-1), 0.0, c_phi=1.0)
    gs.solve_grid(gs.UncertaintySet(tuple(measures), d=d), cfg, phi)
gs.clt_functional(u, 16, gs.relu())
spec = gs.BsbSpec(0.05, 0.1, 0.3, 1.0, gs.make_payoff("put", 1.0), n_sigma=3, delta=0.125)
gs.bsb_price(spec, 1.0)
family = ["--family", "builtin:pm-sigma", "--sigma-lo", "0.1", "--sigma-hi", "0.3"]
assert cli.main(["bounds", *family, "--cphi", "1", "--beta", "1", "--T", "1"]) == 0
assert cli.main(["gheat", *family, "--phi", "relu", "--delta", "0.25", "--T", "1",
                 "--grid-n", "101"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", loaded)
sys.exit(1 if loaded else 0)
"""


def test_first_calls_never_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
