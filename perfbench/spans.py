"""Spans around gscheme's layer functions, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``gscheme`` module that holds a reference to it (``solve_lattice`` is looked
up in ``clt`` and in ``oracles``, ``bsb_price`` in ``cli``, ...), and
``GridFunction.interp`` on its class.  Each call becomes a span
``(id, name, start, end, parent, error, attrs)`` kept in memory; ``uninstall()``
restores the originals.  Per-layer metrics are derived from the spans
afterwards: calls, self time (duration minus the time covered by child
spans), and counts computed from argument sizes.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time

import numpy as np

# (module, attribute) of every traced function; the metric prefix is
# "<module>.<function>"
TARGETS = (
    ("scheme", "GridFunction.interp"),
    ("scheme", "forward_values"),
    ("scheme", "forward_operator"),
    ("scheme", "solve_grid"),
    ("scheme", "solve_lattice"),
    ("bsb", "bsb_step"),
    ("bsb", "bsb_price"),
    ("bsb", "richardson_reference_curve"),
    ("clt", "clt_functional"),
    ("oracles", "fine_grid_reference"),
    ("oracles", "brute_force_tree"),
    ("uncertainty", "validate"),
    ("bounds", "compute_c_rho"),
    ("bounds", "consistency_error"),
    ("analysis", "check_comparison"),
    ("cli", "main"),
)


def _short(attr: str) -> str:
    return attr.split(".")[-1]


def _interp_attrs(args, kwargs):
    grid, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
    d = grid.config.d
    return {"points": int(np.size(points)) // d}


def _solve_grid_attrs(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    nodes = math.prod(cfg.grid_n)
    steps = int(math.floor(cfg.horizon / cfg.delta + 1e-9))
    # every level is kept: (steps + 1) float64 arrays of the grid's size
    return {"node_steps": nodes * steps, "levels_held_mb": (steps + 1) * nodes * 8 / 1e6}


def _solve_lattice_attrs(args, kwargs):
    u = args[0]
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    n = args[2] if len(args) > 2 else kwargs["n_steps"]
    root = math.sqrt(delta)
    shifts = {tuple(row.tolist())
              for xs, ys, _ in u.atom_arrays() for row in np.atleast_2d(root * xs + delta * ys)}
    # leaves of the count-tuple lattice over m distinct displacements
    m = len(shifts)
    return {"leaf_nodes": math.comb(n + m - 1, n)}


def _bsb_step_attrs(args, kwargs):
    level = args[1] if len(args) > 1 else kwargs["v_prev"]
    return {"nodes": int(np.size(level.values))}


ATTRS = {
    "bsb.bsb_step": _bsb_step_attrs,
    "scheme.interp": _interp_attrs,
    "scheme.solve_grid": _solve_grid_attrs,
    "scheme.solve_lattice": _solve_lattice_attrs,
}


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        tracer = self
        attrs_of = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                # sizes are computed after the span ends; the parent pays for it
                attrs = attrs_of(args, kwargs) if attrs_of is not None else None
                tracer.spans.append((sid, name, start, end, parent, error, attrs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gscheme" or k.startswith("gscheme."))]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{_short(attr)}"
            mod = sys.modules[f"gscheme.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str, t0: float) -> None:
        """One JSON array per span: id, name, start, end (s from t0), parent, error, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, error, attrs in self.spans:
                fh.write(json.dumps([sid, name, round(start - t0, 7), round(end - t0, 7), parent,
                                     error, attrs]) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for _sid, _name, start, end, parent, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, *_ in spans:
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(children.get(sid, ())):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (end - start) - covered
    return out
