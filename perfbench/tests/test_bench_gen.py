"""Seeded generators: determinism, fixed sizes and passing outputs."""

import json
import os
import subprocess
import sys

import pytest

import gen
import ops
import run

SIZE_KEYS = ("kind", "n", "n_list", "n_sigma", "delta", "deltas", "delta_ref", "grid_n",
             "half", "steps", "n_measures")


def _sizes(slots):
    return [({k: s[k] for k in SIZE_KEYS if k in s}, s["tags"]) for s in slots]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert gen.inputs_bytes(gen.generate(workload, 7)) == gen.inputs_bytes(gen.generate(workload, 7))
    assert gen.inputs_bytes(gen.generate(workload, 7)) != gen.inputs_bytes(gen.generate(workload, 8))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_draws_values_not_sizes(workload):
    base = gen.generate(workload, 1)
    for seed in (2, 3, 11):
        slots = gen.generate(workload, seed)
        assert _sizes(slots) == _sizes(base)


def test_largest_x_is_fixed():
    for seed in range(1, 6):
        for slot in gen.generate("clt-lattice", seed) + gen.generate("grid-solves", seed):
            fam = slot.get("family")
            if fam and fam["type"] != "2d":
                top = max(abs(x) for m in gen.family_atoms(fam) for x, _, _ in m)
                assert top == pytest.approx(gen.SIGMA_MAX, abs=1e-12) or slot["kind"] in (
                    "cli-bounds", "cli-consistency")


def test_rank1_tags_follow_structure():
    slots = {s["slot"]: s for s in gen.clt_lattice(3)}
    assert slots["clt/c2/n64"]["tags"]["rank1"] and slots["clt/c9/n64"]["tags"]["rank1"]
    assert not slots["clt/g2/n64"]["tags"]["rank1"]
    assert slots["clt/c9/n64"]["tags"]["m"] == 18
    assert 0.0 < gen.rank1_share(list(slots.values())) < 1.0


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_cheap_operations_pass_their_checks(workload, tmp_path):
    # the two malformed measure files are known to escape as tracebacks
    expensive = ("clt/c2/n48", "clt/c2/n64", "clt/g2/n48", "clt/g2/n64", "fine-reference",
                 "band/", "rate", "grid2d", "comparison")
    for op in ops.build(gen.generate(workload, 5), str(tmp_path)):
        if op.name.startswith(expensive) or op.slot["kind"] == "cli-malformed":
            continue
        assert op.check(op.run()) <= 1.0, op.name


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    import shutil

    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clt-lattice",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
