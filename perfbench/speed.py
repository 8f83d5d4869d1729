"""How fast the CPU ran around each timed call, from a reference loop timed on a wall-clock timer.

On a shared host, work outside the benchmark slows the CPU the benchmark runs
on in spells of a tenth of a second or less.  On a 2-vCPU VM the same Python
loop ran about 1.6x slower in such spells, and their share of the time moved
between a third and most of it over a few minutes, so a pass's wall time
moved by up to 30% between runs of the same code.  Process CPU time moved
with it: the CPU is slowed, not taken away.

`SpeedProbe` measures that slowdown alongside the program.  Every PERIOD
seconds of wall time a SIGALRM handler times one call of `reference_loop`, a
fixed pure-Python loop of about a millisecond.  It belongs to the benchmark,
not to the package, so no change to the package changes it.  The mean time of
the reference calls in and next to an interval, over REFERENCE_S, is how much
slower than the reference speed the CPU ran there; the interval's time
divided by it is its time at the reference speed.  The timer fires on wall
time, so the reference calls are spread over an interval as the program's own
work is.  Time spent in the handler is counted in `spent`, so callers take it
out of what they time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.05  # about 2% of the run goes to the reference loop
# The reference loop's time at the uncontended speed of a 2.1 GHz Xeon
# 2-vCPU VM (its fastest call there took 0.67 to 0.77 ms).
REFERENCE_S = 0.0007
WARMUP_CALLS = 50


def reference_loop():
    """Fixed interpreter work of the kind the package does: dict and list
    access, float arithmetic, comparisons and branches."""
    table = {}
    acc = 0.0
    xs = [i * 0.5 for i in range(64)]
    for r in range(50):
        for i, x in enumerate(xs):
            table[i] = table.get(i, 0.0) + x * r
            acc += abs(x - r) if i & 1 else min(x, acc)
    return acc


class SpeedProbe:
    """Context manager: times `reference_loop` every PERIOD seconds of wall time."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.starts: list[float] = []  # start of each reference call
        self.times: list[float] = []  # its duration in seconds
        self.spent = 0.0  # wall time spent in the handler

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        for _ in range(WARMUP_CALLS):
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time over [start, end), with the last call before it
        and the first after it, relative to REFERENCE_S."""
        lo = max(0, bisect.bisect_left(self.starts, start) - 1)
        hi = bisect.bisect_left(self.starts, end) + 1
        around = self.times[lo:hi]
        if not around:
            raise RuntimeError("the speed probe took no sample")
        return statistics.fmean(around) / REFERENCE_S
