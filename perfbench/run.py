"""gscheme benchmark: one seeded workload, timed, checked against oracles.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clt-lattice --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced and one traced batch and reports the per-layer metrics
derived from the spans (written to ``perfbench/out/``; see spans.py).
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The controller and its workers are pinned to one CPU.  The batches run
serially in one fresh worker process, with ``GSCHEME_THREADS`` unset,
numerical libraries limited to one thread and the allocator left at its
defaults; it runs as many whole batches as fit in ``--seconds`` of batch
time (at least one).  ``setup_s`` is the median over eight fresh
processes (four before the batch worker, four after it) of the time each
takes, inside the process, to import gscheme, generate the inputs and pay the
first-call costs.  Both times are rescaled by the host probe (probe.py):
``wall_s`` is the sum over operations of each one's median time, each time
divided by the mean of the probe readings taken between the operations of
its batch; the median of the set-up samples is divided by the mean of the
readings the controller takes after each process.  The raw times are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 8

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GSCHEME_THREADS", None)

import gen  # noqa: E402  (stdlib only)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "err_ratio_max": "ratio",
}

PER_LAYER = {
    "scheme.solve_lattice.calls": "count",
    "scheme.solve_lattice.self_s": "s",
    "scheme.solve_lattice.leaf_nodes": "count",
    "scheme.solve_lattice.refused": "count",
    "scheme.interp.calls": "count",
    "scheme.interp.points": "count",
    "scheme.interp.self_s": "s",
    "scheme.forward_values.calls": "count",
    "scheme.forward_values.self_s": "s",
    "scheme.forward_operator.calls": "count",
    "scheme.forward_operator.self_s": "s",
    "scheme.solve_grid.calls": "count",
    "scheme.solve_grid.self_s": "s",
    "scheme.solve_grid.node_steps": "count",
    "scheme.solve_grid.levels_held_mb": "MB",
    "bsb.bsb_step.calls": "count",
    "bsb.bsb_step.self_s": "s",
    "bsb.bsb_step.node_steps": "count",
    "bsb.bsb_price.self_s": "s",
    "bsb.richardson_reference_curve.self_s": "s",
    "bsb.rate_experiment.threads2_s": "s",
    "clt.clt_functional.calls": "count",
    "clt.clt_functional.self_s": "s",
    "clt.lattice_hit_ratio": "ratio",
    "oracles.fine_grid_reference.self_s": "s",
    "oracles.fine_grid_reference.grid_solves": "count",
    "oracles.bracket_ratio": "ratio",
    "oracles.brute_force_tree.self_s": "s",
    "uncertainty.validate.calls": "count",
    "uncertainty.validate.self_s": "s",
    "bounds.compute_c_rho.self_s": "s",
    "bounds.consistency_error.self_s": "s",
    "analysis.check_comparison.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.escaped": "count",
    "batch.minor_faults": "count",
    "batch.sys_s": "s",
    "batch.raw_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "calib.start_s": "s",
    "calib.end_s": "s",
}


def setup(workload: str, seed: int):
    """Import gscheme, generate the inputs, build the operations and pay
    first-call costs (the c_rho quadrature cache, scipy's interpolator import)."""
    import gscheme as gs
    import numpy as np

    import ops

    slots = gen.generate(workload, seed)
    workdir = os.path.join(OUT, f"work-{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    built = ops.build(slots, workdir)
    gs.compute_c_rho()
    tiny = gs.SchemeConfig(delta=0.5, horizon=0.5, grid_lo=(-1.0, -1.0), grid_hi=(1.0, 1.0),
                           grid_n=(3, 3))
    gs.solve_grid(gs.zero_family(2), tiny,
                  gs.InitialData("zero", lambda x: np.zeros(len(np.atleast_2d(x))), 0.0))
    return slots, built


def run_batch(built, host):
    """Run every operation once, reading the host probe before the first and
    after each one; returns ([seconds per op], [probe readings],
    [(op, result, exception)])."""
    times, readings, out = [], [host()], []
    for op in built:
        t = time.perf_counter()
        try:
            out.append((op, op.run(), None))
        except Exception as exc:  # an operation that raises counts as failed
            out.append((op, None, exc))
        times.append(time.perf_counter() - t)
        readings.append(host())
    return times, readings, out


def check_batch(outcomes) -> dict:
    """Check each result against its oracle."""
    import ops

    report = {"attempted": 0, "failed": 0, "incorrect": 0, "err_ratio_max": 0.0,
              "failures": [], "bracket_ratio": 0.0, "malformed": 0, "escaped": 0}
    for op, result, exc in outcomes:
        report["attempted"] += 1
        if exc is not None:
            report["failed"] += 1
            report["failures"].append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        try:
            ratio = op.check(result)
        except ops.CheckFailed as err:
            ratio, why = None, str(err)
        else:
            why = f"error ratio {ratio:.3g} > 1"
        if ratio is None or ratio > 1.0:
            report["failed"] += 1
            report["incorrect"] += 1
            report["failures"].append(f"{op.name}: output check failed: {why}")
        if ratio is not None:
            report["err_ratio_max"] = max(report["err_ratio_max"], ratio)
        if "escaped" in op.info:
            report["malformed"] += 1
            report["escaped"] += op.info["escaped"]
        if "bracket_ratio" in op.info:
            report["bracket_ratio"] = max(report["bracket_ratio"], op.info["bracket_ratio"])
    return report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(all_spans, batch_spans, batch_wall: float) -> dict:
    """Per-layer numbers from the spans of the traced set-up and batch."""
    import spans

    self_t = spans.self_times(all_spans)
    m = {k: 0.0 for k in PER_LAYER}
    by_id = {s[0]: s for s in all_spans}
    for sid, name, _start, _end, parent, error, attrs in all_spans:
        for key, add in ((f"{name}.calls", 1), (f"{name}.self_s", self_t[sid])):
            if key in m:
                m[key] += add
        if name == "scheme.interp":
            m["scheme.interp.points"] += attrs["points"]
        elif name == "bsb.bsb_step":
            m["bsb.bsb_step.node_steps"] += attrs["nodes"]
        elif name == "scheme.solve_grid":
            m["scheme.solve_grid.node_steps"] += attrs["node_steps"]
            m["scheme.solve_grid.levels_held_mb"] = max(m["scheme.solve_grid.levels_held_mb"],
                                                        attrs["levels_held_mb"])
            if parent in by_id and by_id[parent][1] == "oracles.fine_grid_reference":
                m["oracles.fine_grid_reference.grid_solves"] += 1
        elif name == "scheme.solve_lattice":
            if error == "ResourceLimitError":
                m["scheme.solve_lattice.refused"] += 1
            elif error is None:
                m["scheme.solve_lattice.leaf_nodes"] += attrs["leaf_nodes"]
        elif name == "cli.main" and error not in (None, "SystemExit"):
            m["cli.main.escaped"] += 1
    attempts = [s for s in all_spans if s[1] == "scheme.solve_lattice"
                and s[4] in by_id and by_id[s[4]][1] == "clt.clt_functional"]
    if attempts:
        m["clt.lattice_hit_ratio"] = sum(1 for s in attempts if s[5] is None) / len(attempts)
    batch_ids = {s[0] for s in batch_spans}
    roots = sum(s[3] - s[2] for s in batch_spans if s[4] not in batch_ids)
    m["trace.unattributed_s"] = batch_wall - roots
    return m


def rate_study_seconds(built, threads: str | None) -> float:
    """One traced pass of the rate study, serial or with GSCHEME_THREADS set."""
    import spans

    rate = [op for op in built if op.slot["kind"] == "rate"]
    pinned = os.sched_getaffinity(0)
    if threads is not None:
        os.environ["GSCHEME_THREADS"] = threads
        os.sched_setaffinity(0, range(os.cpu_count()))  # threads need the other CPUs
    try:
        with spans.Tracer():
            t = time.perf_counter()
            rate[0].run()
            return time.perf_counter() - t
    finally:
        os.environ.pop("GSCHEME_THREADS", None)
        os.sched_setaffinity(0, pinned)


def worker(role: str, workload: str, seed: int, seconds: float) -> dict:
    """One fresh process: set up, then (unless role is 'setup') run batches.

    A 'batch' worker runs as many whole batches as fit in ``seconds`` of
    batch time (at least one) and reports ``wall_s`` as the sum over operations
    of each operation's median time, each time rescaled by the mean of the
    host probe readings of its batch (see probe.py); ``raw_wall_s`` is the
    same sum unscaled.
    A 'traced' worker runs one batch with the tracer installed.
    """
    t0 = time.perf_counter()
    import gscheme  # noqa: F401  (the tracer patches its loaded modules)
    import ops  # noqa: F401
    import spans

    tracer = spans.Tracer()
    if role == "traced":
        tracer.install()
    try:
        slots, built = setup(workload, seed)
    finally:
        tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if role == "setup":
        return {"setup_s": setup_s}
    import probe

    host = probe.HostProbe()
    n_setup_spans = len(tracer.spans)
    reps, scaled, probe_means, outcomes = [], [], [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    if role == "traced":
        tracer.install()
    try:
        # as many whole batches as fit in ``seconds``, judged by the last one
        while not reps or (role == "batch" and sum(map(sum, reps)) + sum(reps[-1]) <= seconds):
            times, readings, out = run_batch(built, host)
            reps.append(times)
            scaled.append([probe.rescale(t, *readings) for t in times])
            probe_means.append(statistics.fmean(readings))
            outcomes.extend(out)
    finally:
        tracer.uninstall()
    rss = peak_rss_mb()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = check_batch(outcomes)
    report.update({"wall_s": sum(statistics.median(t) for t in zip(*scaled)),
                   "raw_wall_s": sum(statistics.median(t) for t in zip(*reps)),
                   "batches": [sum(times) for times in reps], "op_times": reps,
                   "probe_means": probe_means,
                   "peak_rss_mb": rss,
                   # the kernel's share of a batch, less the probe's own: glibc
                   # hands freed grid levels back and the next solve faults
                   # them in again
                   "minor_faults": (usage.ru_minflt - usage0.ru_minflt - host.minflt) / len(reps),
                   "sys_s": (usage.ru_stime - usage0.ru_stime - host.sys_s) / len(reps)})
    if role == "traced":
        layers = layer_metrics(tracer.spans, tracer.spans[n_setup_spans:], report["raw_wall_s"])
        layers["oracles.bracket_ratio"] = report["bracket_ratio"]
        if workload == "grid-solves":
            report["rate_serial_s"] = rate_study_seconds(built, None)
            layers["bsb.rate_experiment.threads2_s"] = rate_study_seconds(built, "2")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{workload}-{seed}.jsonl"), t0)
        report["layers"] = layers
    return report


def spawn(role: str, workload: str, seed: int, seconds: float = 0.0) -> dict:
    """Run :func:`worker` in a fresh interpreter and return its report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="run as many whole batches as fit in this much batch time (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "batch", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gscheme", "__init__.py")):
        print(f"error: no gscheme sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.role:
        print(json.dumps(worker(args.role, args.workload, args.seed, args.seconds)))
        return 0

    # a termination request unwinds through subprocess.run, which kills and
    # reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the controller and every worker share one CPU: the host slows each
    # virtual CPU on its own, so the probe must read the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import probe

    host = probe.HostProbe(reps=9)  # few readings per run, so each reads longer
    readings = [host()]

    def spawn_read(role: str, seconds: float = 0.0) -> dict:
        """Spawn a worker and read the host probe after it."""
        report = spawn(role, args.workload, args.seed, seconds)
        readings.append(host())
        return report

    if args.trace == 0:
        # set-up samples on both sides of the batch, so that the median spans
        # the host's speed over the whole run
        setups = [spawn_read("setup") for _ in range(SETUP_SAMPLES // 2)]
        reports = [spawn_read("batch", args.seconds)]
        setups += [spawn_read("setup") for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    else:
        setups = []
        reports = [spawn_read("batch"), spawn_read("traced")]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    walls = [r["wall_s"] for r in reports]
    if args.trace == 0:
        values = {
            "wall_s": walls[0],
            # one set-up sample lasts about a second, less than the host's
            # speed takes to settle, so the median is rescaled by every reading
            "setup_s": probe.rescale(statistics.median(r["setup_s"] for r in setups),
                                     *readings),
            "peak_rss_mb": reports[0]["peak_rss_mb"],
            "success_ratio": 1.0 - failed / attempted,
            "err_ratio_max": max(r["err_ratio_max"] for r in reports),
        }
        units = END_TO_END
    else:
        values = dict(reports[1]["layers"])
        values.update({"batch.minor_faults": reports[0]["minor_faults"],
                       "batch.sys_s": reports[0]["sys_s"],
                       "batch.raw_wall_s": reports[0]["raw_wall_s"],
                       "trace.overhead_s": walls[1] - walls[0],
                       "calib.start_s": readings[0], "calib.end_s": readings[-1]})
        units = PER_LAYER
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    batches = "; ".join(", ".join(f"{b:.3f}" for b in r["batches"]) for r in reports)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: batch seconds "
          f"{batches}" + (" (untraced; traced)" if args.trace else ""))
    print(f"rank-1 share of operations: {gen.rank1_share(gen.generate(args.workload, args.seed)):.3f}")
    print("host probe, s: " + ", ".join(f"{r:.4f}" for r in readings)
          + f" (wall_s and setup_s are rescaled to {probe.REF_S} s)")
    print("raw wall_s: " + ", ".join(f"{r['raw_wall_s']:.3f}" for r in reports)
          + "; mean probe reading per batch, s: "
          + "; ".join(", ".join(f"{p:.4f}" for p in r["probe_means"]) for r in reports))
    if setups:
        print("setup_s samples, raw: " + ", ".join(f"{r['setup_s']:.3f}" for r in setups))
    print(f"per batch: {reports[0]['minor_faults']:.0f} minor page faults, "
          f"{reports[0]['sys_s']:.2f} s system time")
    if args.trace and "rate_serial_s" in reports[1]:
        print(f"rate study, traced: serial {reports[1]['rate_serial_s']:.3f} s, "
              f"GSCHEME_THREADS=2 {values['bsb.rate_experiment.threads2_s']:.3f} s")
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for line in dict.fromkeys(f for r in reports for f in r["failures"]):
        print(f"  failed: {line}")
    if reports[0]["malformed"]:
        print(f"malformed measure files rejected by an exception escaping cli.main instead of "
              f"exit 1 and 'error:': {reports[0]['escaped']} of {reports[0]['malformed']}")
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": all(r["incorrect"] == 0 for r in reports),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
