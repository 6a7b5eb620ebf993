"""Wall time rescaled to a reference processor speed.

On a shared host the speed of a core drifts by tens of percent within
seconds, so raw wall times of one operation spread too widely to compare
two versions of the program.  ``SpeedProbe`` times a fixed pure-Python
loop every PERIOD_S of wall time (from a SIGALRM handler in the measured
thread, plus once just before and once just after the measured call) and
rescales the call's wall time by REFERENCE_S / (median probe time): the
seconds the call would have taken on a core that runs the probe loop in
REFERENCE_S.  Probing costs about one percent of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005
PROBE_LOOP = 1000
REFERENCE_S = 5e-5


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i
        self.samples.append(time.perf_counter() - t0)

    def measure(self, fn, *args):
        """Call fn(*args); return (result, wall seconds, reference seconds)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, wall, wall * REFERENCE_S / statistics.median(self.samples)
