"""A speed-normalised clock for a machine whose speed drifts.

On a shared machine the same request can take 30 % more or less time from
one second to the next, with no change in CPU time versus wall time: other
tenants slow the core itself.  This clock samples the machine's current
speed every PERIOD seconds by timing a fixed pure-Python kernel (exact
fraction arithmetic and small sorts, the kind of work riskdist does) in a
SIGALRM handler.  A request's time is its wall time, less the handler's
time inside it, scaled by NOMINAL_KERNEL_S over the mean kernel time of the
samples around it: the time the request would have taken on this machine
running at its reference speed.  With a steady machine the scale factor is
close to 1.

The kernel never calls into riskdist, but it runs in the program's own
process and interpreter.  It runs with the cyclic garbage collector off, so
a collection over the objects the program holds cannot fall into a sample.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

PERIOD = 0.025
# median kernel time on the reference machine (2-core Xeon, CPython 3.11.7)
NOMINAL_KERNEL_S = 0.0013

_VALUES = [Fraction(i, 7) for i in range(12)]


def kernel() -> Fraction:
    acc = Fraction(0)
    for r in range(10):
        ordered = sorted(_VALUES, key=lambda v: -v)
        for a, b in zip(ordered, ordered[1:]):
            acc += (a - b) * Fraction(r + 1, 13)
    return acc


class SpeedClock:
    """Samples kernel times while started; use as a context manager."""

    def __init__(self, on_sample=None):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.on_sample = on_sample  # sees each handler's duration

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.lengths.append(end - start)
        if self.on_sample is not None:
            self.on_sample(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)  # a first sample before anything is timed
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> range:
        lo = bisect.bisect_left(self.starts, start - PERIOD)
        hi = bisect.bisect_right(self.starts, end + PERIOD)
        if lo == hi:  # no sample near the interval: take the two before it
            lo = max(0, lo - 2)
        return range(lo, hi)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed around [start, end]."""
        window = self._window(start, end)
        return NOMINAL_KERNEL_S * len(window) / sum(self.lengths[i] for i in window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed spent between start and end, not
        counting the sampling handler's own time."""
        window = self._window(start, end)
        inside = sum(
            self.lengths[i]
            for i in window
            if start <= self.starts[i] and self.starts[i] + self.lengths[i] <= end
        )
        return (end - start - inside) * self.factor(start, end)
