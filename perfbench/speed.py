"""Machine-speed probe for shared, noisy hosts.

On a shared 2-core host the same CPU-bound Python code runs up to ~35%
slower for stretches of seconds, which is more than any bound the
benchmark could keep.  `Probe` samples the host's current speed: every
INTERVAL_S seconds a timer signal interrupts the main thread, which then
runs a small fixed loop of tuple, dict and integer work and records how
long it took.  The samples are spread evenly over wall time.

`Probe.duration(a, b)` converts a wall-clock interval into reference
seconds: the interval minus the probe's own time, scaled by
NOMINAL_S / (mean probe time over the interval).  A reference second is
the time the host needs for work that takes the probe loop NOMINAL_S.
The loop runs with the garbage collector off, since a collection of the
program's heap says nothing about the host.
When the program gets faster, its reference times fall; when the host
gets slower, raw times and probe times rise together and cancel.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.1
NOMINAL_S = 1e-3
WINDOW_S = 1.0  # shortest stretch of samples one host speed is read from


def reference_loop() -> int:
    d = {}
    for i in range(400):
        t = tuple((i * j) % 7 for j in range(8))
        d[t] = d.get(t, 0) + sum(t)
    return len(d)


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        self.costs.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def duration(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b].  The host speed
        is read from the samples of at least WINDOW_S around the interval,
        since one sample is a single short loop and jitters."""
        mid = (a + b) / 2
        lo_w = bisect.bisect_left(self.starts, min(a, mid - WINDOW_S / 2))
        hi_w = bisect.bisect_left(self.starts, max(b, mid + WINDOW_S / 2))
        near = self.costs[lo_w:hi_w] or self.costs[max(lo_w - 1, 0):lo_w + 1]
        own = self.costs[bisect.bisect_left(self.starts, a):
                         bisect.bisect_left(self.starts, b)]
        return (b - a - sum(own)) * NOMINAL_S / statistics.fmean(near)

    def mean_cost(self) -> float:
        return statistics.fmean(self.costs)
