"""Host-speed reference: rescales case times to a quiet machine.

The benchmark runs on a shared machine.  For seconds to minutes at a time,
other tenants slow every instruction by up to 2.4 times, and both passes of
a run often fall in the same slow stretch.  So a fixed piece of pure-Python
work, like eqslice's inner loops (Fraction and integer arithmetic, dict
updates), is timed between cases.  A case's time is divided by how much
slower than REFERENCE_S the reference ran just before and just after it.
Timed back to back on this machine, the rescaled time of a matrix
determinant varied 5% where its raw time varied 2.4 times.
"""
from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Fastest duration of reference() on the machine the benchmark was built on
# (2-core VM, Python 3.11.7), taken over 30 s.  Rescaled times are seconds on
# that machine when nothing else runs on it.
REFERENCE_S = 0.00196
SAMPLE_EVERY_S = 0.05
REPEATS = 3


def reference():
    x = Fraction(1)
    s = 0
    for k in range(1, 400):
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k)
        s += (k * 7919) ** 3 % 1000003
    d: dict[int, int] = {}
    for k in range(3000):
        d[k % 97] = d.get(k % 97, 0) + k
    return x, s, d


class Speedometer:
    """Reference samples taken between cases, and the slowdown around a case."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, force: bool = False):
        """Time the reference (fastest of a few runs) unless one was taken lately."""
        if not force and self.times and self.clock() - self.times[-1] < SAMPLE_EVERY_S:
            return
        best = float("inf")
        for _ in range(REPEATS):
            t = self.clock()
            reference()
            best = min(best, self.clock() - t)
        self.times.append(self.clock())
        self.durations.append(best)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples just before start and just after end."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        picks = [self.durations[i] for i in (before, after) if 0 <= i < len(self.times)]
        return sum(picks) / len(picks) / REFERENCE_S
