"""Host-speed probes: how slow is this machine *right now*?

The sandbox this benchmark runs in is a 2-vCPU guest that switches, for
seconds at a time, between a fast mode and one in which pure-Python code
runs ~1.5x slower and memory-bound numpy ~1.1x slower (a neighbour on the
core; CPU time moves with wall time, so nothing inside the guest can
subtract it).  Raw wall time of one unchanged workload therefore spreads
by up to 36 % between runs, which no regression bound can referee.

So every few ops a workload runs two tiny fixed pieces of work that have
nothing to do with the program under test - a pure-Python loop and a
numpy copy + add over 16 MiB - and a round's wall time is divided by how
much slower than the reference those ran (median over the round):

    slowdown = (1 - w) * py_seconds / PY_REF_S + w * mem_seconds / MEM_REF_S

with ``w`` the share of the workload's time that is bulk numpy
(``spec.WorkloadSpec.numpy_share``).  Time is additive over the two kinds
of work and each kind slows by its own factor, which is all the formula
says.  The references are this box's fast-mode timings, so a normalised
second is close to a wall second of a quiet hour here; it is a unit for
comparing runs, not a promise.  The raw wall figures and the slowdown are
reported beside every normalised one.

A change to ``src/`` cannot speed the probes up: they import nothing
from ``repro``.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional

import numpy as np

clock = time.perf_counter

#: Fast-mode timings of the two samples on the reference box, taken where
#: they run: between the ops of a workload, whose working set has pushed
#: the sample's own out of the caches (alone in a process the numpy one
#: takes 2.6 ms).
PY_REF_S = 0.73e-3
MEM_REF_S = 4.3e-3

_PY_ITERATIONS = 4_000
_MEM_BYTES = 16 * 1024 * 1024


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value: float) -> None:
        self.value = value
        self.hits = 0

    def bump(self, by: int) -> float:
        self.hits += 1
        return self.value + by


def py_seconds() -> float:
    """Dict stores and loads, a method call, float arithmetic, tuple and
    list churn: the instruction mix of an event-driven simulator."""
    table = {}
    cell = _Cell(1.5)
    total = 0.0
    log = []
    start = clock()
    for i in range(_PY_ITERATIONS):
        key = i & 255
        table[key] = cell.bump(i)
        total += table[key] * 0.5
        if key == 0:
            log = []
        log.append((key, total))
    return clock() - start


class HostProbe:
    """``sample()``s the host's slowdown for a workload with a given
    numpy share.  One sample takes ~1 ms (4 ms with the numpy part); the
    workloads take one every few ops and the worker keeps the median of a
    round's samples, so a scheduler hiccup inside one of them does not
    pass for a slow host."""

    def __init__(self, numpy_share: float) -> None:
        self.numpy_share = numpy_share
        #: Every sample's raw seconds, for the report.
        self.py_samples: List[float] = []
        self.mem_samples: List[float] = []
        self._src: Optional[np.ndarray] = None
        self._dst: Optional[np.ndarray] = None
        if numpy_share > 0.0:  # 32 MiB the Python-bound workloads never pay for
            self._src = np.ones(_MEM_BYTES // 4, dtype=np.float32)
            self._dst = np.empty_like(self._src)
            self.mem_seconds()  # first touch of the pages, not a sample

    def mem_seconds(self) -> float:
        start = clock()
        np.copyto(self._dst, self._src)
        np.add(self._src, self._dst, out=self._dst)
        return clock() - start

    def sample(self) -> float:
        w = self.numpy_share
        # A full collection landing inside a 1 ms sample would read as a
        # 50x slowdown, so the collector is held off for its length.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.py_samples.append(py_seconds())
            factor = (1.0 - w) * self.py_samples[-1] / PY_REF_S
            if w > 0.0:
                self.mem_samples.append(self.mem_seconds())
                factor += w * self.mem_samples[-1] / MEM_REF_S
        finally:
            if was_enabled:
                gc.enable()
        return factor
