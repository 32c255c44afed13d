"""Every function the benchmark's tracer patches must exist in gscheme."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"gscheme.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"gscheme.{module}.{attr}"
