"""Host speed probe, for timings that hold still on a shared host.

The host this benchmark was written on runs the same code at two speeds
about 1.6x apart, switching between them every few seconds, and every
timing of a run moves with it.  ``Probe`` times a fixed piece of pure-Python
work that uses no cocolour code.  An interval timer (``SIGALRM``) runs a
probe every ``every`` seconds, inside long ops as well as between ops, so
the probes sample the host's speed evenly over time.  Probe time is taken
out of every timing: ``clock`` is ``time.perf_counter`` minus the time spent
in probes so far.

A timing is reported at the reference speed: the measured time times
``REFERENCE_MS`` over the median of the probes taken around it.  Both sides
of a comparison are scaled by the same rule, so a change to the program
moves the scaled timings as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Probe time, in ms, that defines the reference speed.  It only fixes the
# scale of the reported timings.
REFERENCE_MS = 0.5
# A timing is scaled by the probes taken during it, and by at least this
# many probes nearest to it in time.
NEAREST = 15


def _work():
    """Integer, bit, call and dict work, much as the program's inner loops do."""
    acc = 0
    seen = {}
    for i in range(300):
        x = (i * 2654435761) & 0xFFFFFFFF
        while x:
            low = x & -x
            acc += low.bit_length()
            x ^= low
            if acc & 7 == 0:
                break
        seen[i & 127] = acc
    return acc + len(seen)


class Probe:
    def __init__(self, every):
        self.every = every  # seconds between timer probes
        self.at = []  # probe start times, on ``clock``
        self.samples = []  # probe times in ms
        self.spent = 0.0  # seconds spent in probes
        self._busy = False

    def clock(self):
        """``time.perf_counter`` without the time spent in probes."""
        return time.perf_counter() - self.spent

    def take(self):
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.at.append(t0 - self.spent)
        self.samples.append((t1 - t0) * 1e3)
        self.spent += t1 - t0
        self._busy = False

    def _on_timer(self, signum, frame):
        self.take()

    def start(self):
        """Probe every ``every`` seconds until ``stop``."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first=0):
        """Factor to the reference speed, from the samples from ``first`` on."""
        return REFERENCE_MS / statistics.median(self.samples[first:])

    def scale_at(self, start, end):
        """Factor to the reference speed for a timing from ``start`` to
        ``end`` on ``clock``: the probes taken in that stretch, widened to
        the ``NEAREST`` probes nearest to it when there are fewer."""
        at = self.at
        lo, hi = bisect.bisect_left(at, start), bisect.bisect_right(at, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(at)):
            if lo > 0 and (hi == len(at) or start - at[lo - 1] <= at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / statistics.median(self.samples[lo:hi])
