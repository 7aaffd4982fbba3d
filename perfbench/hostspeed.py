"""Host speed, sampled with a fixed reference computation during a run.

On a shared virtual machine the same Python code runs at very different
speeds from one minute to the next: on the 2-vCPU host the README figures
come from, a fixed Fraction loop took from 1.0x to 2.3x its fastest time, in
slow periods lasting up to 80 s.  Raw wall times of two runs of the same code
then differ by more than any useful regression bound.

While a run measures, ``HostSpeed`` times a small pure-Python reference
computation (a probe) between operations, when the runner calls ``sample``,
and every ``INTERVAL_S`` seconds of wall time from a SIGALRM handler, so that
long operations are sampled inside too.  The host's speed changes within a
second, so an operation is judged only by the probes inside it and within
``WINDOW_S`` of it; one probe alone varies by about 15%, so short
operations borrow the probes of their neighbours.  ``at_reference_speed``
converts a measured interval into the seconds it would have taken on a host where the reference takes exactly ``REFERENCE_S``:
the interval minus the probes inside it, times the mean of
``REFERENCE_S / probe time`` over those probes.
"""

import bisect
import signal
from array import array
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
INTERVAL_S = 0.1
WINDOW_S = 0.025  # reaches the probes around an interval, several for short ones


def reference():
    """The fixed computation whose time measures the host's speed."""
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(1, i % 7 + 1)
    return total


class HostSpeed:
    """Samples the reference computation while in a ``with`` block."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:  # a signal that arrives inside a probe is dropped
            return
        self._busy = True
        try:
            started = perf_counter()
            reference()
            self.ends.append(perf_counter())
            self.starts.append(started)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def at_reference_speed(self, start, end):
        """Seconds the interval [start, end] takes at reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no probe near: use the nearest one
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        inside = 0.0
        speed = 0.0
        for i in range(lo, hi):
            took = self.ends[i] - self.starts[i]
            speed += REFERENCE_S / took
            if self.starts[i] >= start and self.ends[i] <= end:
                inside += took
        return (end - start - inside) * speed / (hi - lo)
