"""Machine-speed normalisation for wall times.

On a shared host the same verification takes anywhere from 7 to 12 s of
wall time: the CPU runs at one speed for seconds to minutes, then another,
and process CPU time swings with it.  A fixed piece of interpreter work,
timed inside the measured process at regular wall-time intervals while the
measurement runs, swings the same way.  Each kernel sample gives the speed
of its slice of wall time, so the work done in the wall time, expressed in
seconds at the speed where the kernel takes REFERENCE_S, is

    reported = wall * mean(REFERENCE_S / kernel time)

Every time the benchmark reports is in these reference seconds.  Parent
and child commits run the same kernel, so comparisons between them are
unaffected.  On a shared 2-vCPU Xeon host (2.1 GHz) the rescaling cut the
coefficient of variation of one `identities` verification, over ten runs,
from 8.4 % to 2.4 %.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 1.5e-4   # the kernel's typical time on a 2.1 GHz Xeon vCPU
PERIOD_S = 0.05        # one kernel sample per 50 ms of wall time (~0.3 % cost)


def kernel():
    """Tuple keys, dict updates and int products, like qhd's tensor loops."""
    acc = {}
    for i in range(24):
        for j in range(24):
            key = (i, j)
            acc[key] = acc.get(key, 0) + i * j * 7919
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples: every PERIOD_S of wall time while entered (SIGALRM),
    once on entry and once on exit, and at each explicit `sample()`."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def sample(self, signum=None, frame=None):
        self.samples.append(time_kernel())

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self) -> float:
        """Factor that turns a wall time measured while the samples were taken
        into reference seconds."""
        return statistics.fmean(REFERENCE_S / k for k in self.samples)
