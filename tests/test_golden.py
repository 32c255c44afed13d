"""Fixed outputs: every README CLI example, a `bsb --dump-steps` run and the demos.

Each case runs in-process.  Its exit code, its stdout and each ``--out`` file
must equal the files under ``tests/golden/`` byte for byte; each
``--dump-steps`` CSV (0.4-23 MB) must match its recorded SHA-256.  Regenerate
the files with ``python tests/regen_golden.py``; a change that does so names
every value that moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
import tempfile
from pathlib import Path

import pytest

from gscheme.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_MARKET = ["--r", "0.05", "--sigma-lo", "0.1", "--sigma-hi", "0.3", "--T", "1", "--K", "1"]

# README.md's CLI examples, in its order, plus a grid-priced capped call with its levels
CLI_CASES = {
    "bounds": "bounds --cphi 1 --beta 1 --T 1 --family builtin:pm-sigma --sigma-lo 0.1 "
              "--sigma-hi 0.3".split(),
    "bsb-put": ["bsb", *_MARKET, *"--payoff put --s0 1 --delta 0.001 --nsigma 33".split()],
    "clt": "clt --n-list 2,4,8,16 --phi relu --family builtin:pm-sigma --sigma-lo 0.1 "
           "--sigma-hi 0.3".split(),
    "lln": "lln --family builtin:lln-box --theta-lo 0 --theta-hi 0.1 "
           "--n-list 4,8,16,32,64".split(),
    "gheat": "gheat --family builtin:pm-sigma --sigma-lo 0.2 --sigma-hi 0.2 --phi abs "
             "--delta 0.25 --T 1 --dump-steps steps.csv".split(),
    "consistency": "consistency --family builtin:pm-sigma --sigma-lo 0.1 --sigma-hi 0.3 "
                   "--psi sin".split(),
    "oracle": "oracle --which bs --sigma 0.2".split(),
    "bsb-capped-call": ["bsb", *_MARKET, *"--payoff capped-call --cap 0.3 --s0 1 --delta 0.004 "
                        "--nsigma 33 --dump-steps steps.csv".split()],
}
README_CASES = ("bounds", "bsb-put", "clt", "lln", "gheat", "consistency", "oracle")


def run_cli_case(argv, workdir: Path) -> dict:
    """Run one CLI case in ``workdir``: its exit code, stdout, ``--out`` bytes
    (every subcommand but ``oracle`` takes one) and the SHA-256 of each dump."""
    argv = list(argv)
    dumps = [i + 1 for i, a in enumerate(argv) if a == "--dump-steps"]
    for i in dumps:
        argv[i] = str(workdir / argv[i])
    out = workdir / "out.csv"
    if argv[0] != "oracle":
        argv += ["--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    hashes = {}
    for i in dumps:
        path = Path(argv[i])
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()  # up to 23 MB
    return {"exit": code, "stdout": buf.getvalue(),
            "out": out.read_bytes() if out.exists() else None, "dumps": hashes}


def run_demo(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def regenerate() -> None:
    """Rewrite every file under tests/golden/ from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in CLI_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            got = run_cli_case(argv, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_text(got["stdout"], encoding="utf-8")
        if got["out"] is not None:
            (GOLDEN / f"{name}.out.csv").write_bytes(got["out"])
        manifest[name] = {"exit": got["exit"], "dumps": got["dumps"]}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for demo in DEMOS:
        (GOLDEN / f"demo-{demo.stem}.stdout").write_text(run_demo(demo), encoding="utf-8")


def test_readme_examples_are_the_cases():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [line.split()[1:] for line in re.findall(r"^gscheme \S.*$", readme, re.M)]
    assert examples == [CLI_CASES[name] for name in README_CASES]


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_output_is_unchanged(tmp_path, name):
    expected = json.loads((GOLDEN / "manifest.json").read_text())[name]
    got = run_cli_case(CLI_CASES[name], tmp_path)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    out_file = GOLDEN / f"{name}.out.csv"
    assert got["out"] == (out_file.read_bytes() if out_file.exists() else None)
    assert got["dumps"] == expected["dumps"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo):
    assert run_demo(demo) == (GOLDEN / f"demo-{demo.stem}.stdout").read_text(encoding="utf-8")
