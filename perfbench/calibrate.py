"""CPU-speed calibration: reference-speed seconds.

The benchmark host is shared, and its CPU speed changes by up to 1.8x
for seconds at a time.  Interleaved with the measured work, a fixed
kernel of small numpy operations and Python loops (none of the
program's code, so no change to the program can move it) measured
how fast the CPU was running: over 24 ten-second blocks the median
simulator sample took 7.9-13.3 ms while its ratio to this kernel stayed
at 20.2-21.2.

Each measured interval is divided by the CPU's speed around it: the
median time of the kernel passes within :data:`PAD_S` of the interval,
over :data:`REFERENCE_S`.  The kernel is timed in thread CPU time, so a
thread waiting for the GIL does not read as a slow CPU.  Never change
the kernel or :data:`REFERENCE_S`: every recorded figure is scaled by
them.

Thread CPU time leaves out the time the hypervisor ran other guests on
the virtual CPU (steal time), but the measured intervals are wall time
and include it.  Runs with 5-13 % of their CPU time stolen read 8-24 %
slower after the kernel scaling alone.  So the speed is also divided by
the share of CPU time not stolen, read from ``/proc/stat`` within
:data:`STEAL_PAD_S` of the interval.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Thread CPU seconds of one :func:`kernel` pass on an idle core of the
#: reference host (2-core x86 container, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0004
#: Kernel passes this close to a measured interval calibrate it.
PAD_S = 0.1
#: Stolen-time counters this close to a measured interval correct it;
#: they move in 10 ms ticks, so they need a wider span than the kernel.
STEAL_PAD_S = 1.0

_rng = np.random.default_rng(0)
_IDX = _rng.integers(0, 1000, 2000)
_VAL = _rng.random(2000)


def kernel() -> float:
    """One fixed pass of scatter-adds, sorts and dict writes."""
    acc = np.zeros(1000)
    table = {}
    for k in range(40):
        part = slice(k * 50, (k + 1) * 50)
        np.add.at(acc, _IDX[part], _VAL[part])
        acc[:50] += np.cumsum(_VAL[part][np.argsort(_VAL[part])])
        for j in range(20):
            table[k, j] = j * k
    return float(acc[0])


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, demanded)`` CPU ticks since boot, summed over every CPU.

    ``stolen`` is time a virtual CPU had work but the hypervisor ran
    something else; ``demanded`` adds the time it did run.  Both are 0
    where ``/proc/stat`` cannot be read.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields + [0] * (8 - len(fields))
    return steal, user + nice + system + irq + softirq + steal


class Calibrator:
    """Kernel timings taken between the pieces of a workload."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter() after each pass
        self.costs: list[float] = []  # thread CPU seconds of each pass
        self.ticks_at: list[float] = []  # perf_counter() of each cpu_ticks()
        self.ticks: list[tuple[int, int]] = []

    def tick(self, passes: int = 1) -> None:
        for _ in range(passes):
            t0 = time.thread_time()
            kernel()
            self.costs.append(time.thread_time() - t0)
            self.times.append(time.perf_counter())
        self.note()

    def note(self) -> None:
        """Read the stolen-time counters (:func:`tick` does too)."""
        self.ticks.append(cpu_ticks())
        self.ticks_at.append(time.perf_counter())

    def stolen(self, start: float | None = None, end: float | None = None) -> float:
        """Share of the demanded CPU time that was stolen, between the
        last reading before ``start - STEAL_PAD_S`` and the first after
        ``end + STEAL_PAD_S`` (the nearest two when none lies outside),
        or over every reading without a window."""
        n = len(self.ticks)
        if n < 2:
            return 0.0
        lo, hi = 0, n - 1
        if start is not None:
            lo = max(0, bisect.bisect_right(self.ticks_at, start - STEAL_PAD_S) - 1)
            hi = min(n - 1, bisect.bisect_left(self.ticks_at, end + STEAL_PAD_S))
            if hi <= lo:
                lo = min(lo, n - 2)
                hi = lo + 1
        stolen = self.ticks[hi][0] - self.ticks[lo][0]
        demanded = self.ticks[hi][1] - self.ticks[lo][1]
        return min(stolen / demanded, 0.9) if demanded > 0 else 0.0

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """How many times slower than the reference host the CPU ran,
        stolen time counted as slowness.

        With a ``start``/``end`` window (``perf_counter`` values), only
        the passes within :data:`PAD_S` of it count, or the nearest pass
        when none does; without one, every pass counts.
        """
        if start is None:
            cost = statistics.median(self.costs)
        else:
            lo = bisect.bisect_left(self.times, start - PAD_S)
            hi = bisect.bisect_right(self.times, end + PAD_S)
            if lo == hi:
                lo = max(0, min(lo, len(self.times) - 1))
                hi = lo + 1
            cost = statistics.median(self.costs[lo:hi])
        return cost / REFERENCE_S / (1.0 - self.stolen(start, end))

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at
        reference speed."""
        return seconds / self.speed(start, end)
