"""Machine-speed probe: timings in seconds at a fixed reference speed.

A shared machine runs each vCPU in a fast or a slow state, about 1.8x
slower, switching every fraction of a second, and the share of slow time
drifts over minutes.  A run's raw latencies therefore track the share of
slow time it happened to get, not ncquad.  The probe removes that part:

- Every ``INTERVAL_S`` of wall time a SIGALRM handler times ``reference``,
  a fixed loop of ``fractions.Fraction`` arithmetic that does not touch
  ncquad, so one sample reads the machine's speed at that moment.
- ``rescale`` takes a call's latency, removes the handler's own time
  inside it, and scales it by ``REFERENCE_S`` over the mean sample time
  during the call.  The result is the call's time on a machine where
  ``reference`` takes exactly ``REFERENCE_S``, in seconds.
- ``REFERENCE_S`` is about the fastest ``reference`` time on the
  reference machine (2.1 GHz Xeon, Python 3.11.7), so the figures there
  are close to its unloaded seconds.

ncquad is pure Python over ``Fraction``, so it slows with the reference
loop; calls that differ only in the share of slow time they got come out
alike.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_TERMS = 100
REFERENCE_S = 0.0005

clock = time.perf_counter


def reference() -> Fraction:
    """The fixed probe workload: about half a millisecond of Fraction sums."""
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        s += a * Fraction(i, i + 7) - Fraction(2, i)
    return s


def rescale(latency: float, inside, near) -> float:
    """``latency`` less the probe time ``inside`` it, at the reference speed.

    ``near`` are the probe samples that show the machine's speed during
    the call; with none, the latency is returned as it is.
    """
    if not near:
        return latency
    return (latency - sum(inside)) * REFERENCE_S / (sum(near) / len(near))


class Probe:
    """Samples ``reference`` on a wall-clock timer while installed.

    ``starts`` and ``durations`` hold the samples in time order.  The
    garbage collector is held off inside a sample, so a collection of
    ncquad's objects is never charged to the probe.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference()
            t1 = clock()
            self.starts.append(t0)
            self.durations.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start: float, latency: float) -> float:
        """``latency`` of a call begun at ``start``, at the reference speed.

        Uses the samples taken during the call; a call too short to hold
        one uses the samples on either side of it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + latency)
        inside = self.durations[lo:hi]
        near = inside or self.durations[max(lo - 1, 0):lo + 1]
        return rescale(latency, inside, near)
