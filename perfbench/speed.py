"""Machine speed, sampled while the benchmark runs.

On a shared machine the same work can take up to twice as long when a
neighbour loads the core: timings of a tight loop fall into a fast and
a slow band, and the share of time spent in the slow band drifts over
seconds.  So, every INTERVAL seconds, a SIGALRM handler times a small
reference loop in the measured thread itself.  ``slowdown(t0, t1)`` is
the mean reference time within an interval divided by REF_SECONDS, and
a call's normalised time is its wall time, less the handler's own time,
divided by that slowdown: seconds at the speed where the reference loop
takes REF_SECONDS.  The reference is written independently of the
library, so no change to the library changes it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REF_SECONDS = 2.0e-4  # reference_loop on an unloaded 2-CPU x86-64 host, Python 3.11
INTERVAL = 0.02
MIN_SAMPLES = 8  # an interval with fewer samples borrows its nearest neighbours
CLIP = 3.0  # a sample slower than CLIP * REF_SECONDS was interrupted, not slowed


def reference_loop() -> Fraction:
    """Exact arithmetic on Fractions and dicts, the kind of work the library does."""
    acc: dict[int, Fraction] = {}
    x = Fraction(1, 3)
    for i in range(50):
        k = i % 17
        acc[k] = acc.get(k, Fraction(0)) + x * Fraction(i % 7 + 1, i % 5 + 1)
    return sum(acc.values())


class SpeedSampler:
    """Samples the speed of the main thread while used as a context manager."""

    def __init__(self):
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # total time spent in the handler
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.seconds.append(min(t1 - t0, CLIP * REF_SECONDS))
        self.spent += t1 - t0

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean reference time within [t0, t1], widened to MIN_SAMPLES
        samples around it, relative to REF_SECONDS."""
        n = len(self.seconds)
        if n == 0:
            raise RuntimeError("the speed sampler has no samples yet")
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        return sum(self.seconds[lo:hi]) / (hi - lo) / REF_SECONDS
