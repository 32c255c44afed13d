"""Host-speed probe: a fixed kernel whose time says how fast the host runs now.

The benchmark's 2-CPU virtual machine shares its cores with other tenants and
drifts between a fast and a slow state (up to 1.7x) over tens of seconds, in
interpreter work, numpy work and page faults alike.  A time divided by the
probe's time, read right before and after it, no longer carries that drift;
multiplied by :data:`REF_S` it reads in seconds of a host on which the probe
takes exactly ``REF_S``.

The probe runs in the process it measures, between operations, so it must not
change how gscheme runs there: its arrays are allocated once, in
``__init__``, and kept, its small tuples and dicts stay below glibc's mmap
threshold, and the page-fault part maps memory with :mod:`mmap`
directly, so glibc's dynamic mmap threshold (which decides whether gscheme's
freed arrays are handed back to the kernel) never moves.
"""

from __future__ import annotations

import mmap
import resource
import statistics
import time

import numpy as np

REF_S = 0.01  # about one kernel pass on the 2-CPU machine the bounds were set on
PAGE = mmap.PAGESIZE
FAULT_BYTES = 2 << 20


class HostProbe:
    """Call it to time the kernel (median of ``reps`` passes), in seconds.

    ``minflt`` and ``sys_s`` add up the page faults and system time of all
    calls, so that a caller can take them out of its own.
    """

    def __init__(self, reps: int = 3):
        self.reps = reps
        self.minflt, self.sys_s = 0, 0.0
        gen = np.random.default_rng(0)
        self.src = gen.standard_normal(65_536)
        self.buf = np.empty_like(self.src)
        self.a = gen.standard_normal(262_144)
        self.b = np.empty_like(self.a)

    def _pass(self) -> float:
        t = time.perf_counter()
        for j in range(80):  # interpreter work: small tuples and dicts, as a lattice makes
            level = {}
            for i in range(200):
                level[(i, j, i ^ j)] = i
        s = 0
        for k in range(40_000):
            s += k & 7
        np.copyto(self.buf, self.src)  # numpy work, in place
        self.buf.sort()
        np.multiply(self.a, 1.5, out=self.b)
        np.add(self.a, self.b, out=self.b)
        m = mmap.mmap(-1, FAULT_BYTES)  # page faults, outside malloc
        for off in range(0, FAULT_BYTES, PAGE):
            m[off] = 1
        m.close()
        return time.perf_counter() - t

    def __call__(self) -> float:
        u0 = resource.getrusage(resource.RUSAGE_SELF)
        t = statistics.median(self._pass() for _ in range(self.reps))
        u1 = resource.getrusage(resource.RUSAGE_SELF)
        self.minflt += u1.ru_minflt - u0.ru_minflt
        self.sys_s += u1.ru_stime - u0.ru_stime
        return t


def rescale(seconds: float, *readings: float) -> float:
    """``seconds`` measured while the probe read ``readings`` (the mean of
    them is taken), in seconds of the reference host."""
    return seconds * REF_S * len(readings) / sum(readings)
