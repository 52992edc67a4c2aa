"""Machine-speed normalisation of timings.

The times the benchmark reports are modelled reference-speed seconds,
not wall time: what an op would take on a machine where the probe below
takes REFERENCE_S.  REFERENCE_S is a fixed constant, the uncontended
probe time of the machine baseline.json was recorded on, so on a slower
or busier machine the reported times read below the wall time a user
waits; the summary line of a run prints the wall time beside them.

Why model at all: the benchmark runs on shared machines whose speed
drifts by up to 2.4x within seconds.  Contention from other tenants
slows the CPU itself, so CPU time drifts as much as wall time, and a
median over a run cannot remove a slow phase that lasts longer than the
run.  So while ops run, a timer signal samples the machine's speed:
every INTERVAL_S its handler times a fixed piece of pure-Python work
(the probe), with the garbage collector off so that collections of
digitop's heap do not count as a slow machine.  An op's time, less the
probe time inside it, is multiplied by (REFERENCE_S / median probe time
during the op, or over the last NEAREST samples for a short op) **
SENSITIVITY; the median keeps one stalled probe from rescaling a short op.
digitop slows less than the probe in most slow phases: regressing log op
time on log probe time gave slopes of 0.80 to 0.84 for suite, exhaustive
and witness hunt ops (correlation 0.97 for the long ones), and in an
eight-minute hunt the spread of run medians was least for exponents of
0.6 to 0.8 (0.035 at 0.7, 0.047 at 0.8, 0.090 at 1).  One phase of heavy
contention gave a slope of 1.16 with a weaker correlation (0.82).  The
probe does not touch digitop, so a change to the program moves the scaled
times in proportion to its wall times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
PROBE_SIDE = 7
# Probe time on the machine baseline.json was recorded on, uncontended.
REFERENCE_S = 0.00075
SENSITIVITY = 0.8
NEAREST = 9


def _ordered(a, b):
    return (a, b) if a < b else (b, a)


def probe() -> float:
    """Seconds the fixed probe work takes now: tuple, dict and integer
    operations like those of digitop's inner loops.  The collector is
    off meanwhile, so the probe's time does not depend on the heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        points = [(i, j) for i in range(PROBE_SIDE) for j in range(PROBE_SIDE)]
        for x in points:
            for y in points:
                key = _ordered(x, y)
                table[key] = table.get(key, 0) + abs(x[0] - y[0]) + abs(x[1] - y[1])
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Samples the probe on a timer; use as a context manager around ops."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def _sample(self, *_):
        start = perf_counter()
        took = probe()
        self.starts.append(start)
        self.took.append(took)

    def __enter__(self):
        for _ in range(NEAREST):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end], less the
        probe time inside it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        inside = self.took[first:last]
        nearby = inside if len(inside) >= NEAREST else self.took[max(0, last - NEAREST) : last]
        factor = (REFERENCE_S / statistics.median(nearby)) ** SENSITIVITY
        return (end - start - sum(inside)) * factor
