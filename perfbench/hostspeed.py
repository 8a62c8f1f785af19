"""The job list's CPU cost at a fixed CPU speed, on a host whose speed drifts.

On a shared host two things that are not the program move a job's wall time
from run to run:
- steal: the hypervisor takes the CPU away.  One 35 s run lost 5.4 s this
  way.  Process CPU time does not count it.
- the CPU's own speed: it drifts by up to 2x over tens of seconds, in step
  with load that is not ours.  CPU time drifts with it.

`SpeedProbe` measures the second.  A SIGALRM handler runs every PERIOD_S
seconds, in the main thread between bytecodes: no thread or process of its
own, and a sample lands inside every job longer than a period.  It runs a
fixed stdlib computation, a Fraction sum, twice with the collector off, and
takes the CPU time of the second run, so that neither the caches the job
left behind nor the program's heap decide the probe's time.  CPU time spent
over an interval, times NOMINAL_S over the median probe time around it, is
that CPU time on a CPU that runs the probe in NOMINAL_S.  A job's CPU time
is first net of the handler's (`busy`).
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, thread_time

PERIOD_S = 0.1
# About the median probe time on a 2-core Intel Xeon host under the usual
# load of a shared machine.  It only sets the scale of the unit.
NOMINAL_S = 0.0003
# A job shorter than this is normalised by the probes within a window this
# wide around its middle, so that it still takes the median of 20 samples.
MIN_WINDOW_S = 2.0


def reference() -> Fraction:
    """The fixed computation the probe times: pure Python, bignum gcds."""
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() at each sample
        self.seconds: list[float] = []  # CPU time of the timed reference run
        self.spent: list[float] = []  # CPU time of the whole handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start, c0 = perf_counter(), thread_time()
        enabled = gc.isenabled()
        gc.disable()
        reference()
        c1 = thread_time()
        reference()
        c2 = thread_time()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(c2 - c1)
        self.spent.append(thread_time() - c0)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def busy(self, t0: float, t1: float) -> float:
        """CPU seconds the probe itself took within [t0, t1]."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        return sum(self.spent[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Median probe time over [t0, t1], widened to MIN_WINDOW_S.

        The median, because a sample that a page fault or an interrupt
        happened to hit says nothing about the CPU's speed.
        """
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo, hi = bisect_left(self.starts, t0 - pad), bisect_right(self.starts, t1 + pad)
        if lo == hi:  # no sample in reach: take the nearest one
            lo, hi = (lo - 1, lo) if lo == len(self.starts) else (lo, lo + 1)
        return statistics.median(self.seconds[lo:hi])

    def at_nominal_speed(self, cpu_seconds: float, t0: float, t1: float) -> float:
        """CPU seconds spent over [t0, t1], on a CPU that runs the probe in NOMINAL_S."""
        return cpu_seconds * NOMINAL_S / self.speed(t0, t1)

    def median(self) -> float:
        return statistics.median(self.seconds) if self.seconds else float("nan")
