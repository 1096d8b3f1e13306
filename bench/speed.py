"""Wall times rescaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop takes anywhere from about 0.5 to 1.2 ms, flipping
between fast and slow states many times a second and in a proportion that
changes over minutes. Raw wall times of the same code then spread by 30%
and more between runs.

``SpeedProbe`` samples the machine's speed while the program runs. A
``SIGALRM`` timer fires every ``PERIOD_S``; the handler runs a fixed kernel
(tuple building, dict probes and integer arithmetic, the mix the word-level
code runs on) and records how long it took. A measured interval is then
reported as its wall time minus the time spent in the handler, multiplied
by ``NOMINAL_S / mean kernel time`` over the interval: the seconds the
interval would take on a core that runs the kernel in ``NOMINAL_S``.

The kernel is part of the benchmark, not of the program, so a change to the
program moves the rescaled time as it moves the wall time. The raw wall
times are reported alongside in the run log.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.02
# Near the kernel's time on an uncontended core of the machine the baseline
# was recorded on (a 2-vCPU Intel Xeon guest); it only sets the scale.
NOMINAL_S = 0.0005


def kernel():
    acc = 0
    seen = {}
    for i in range(1500):
        w = (i & 7, (i >> 3) & 7, -(i & 3))
        seen[w] = seen.get(w, 0) + i
        acc ^= hash(w) & 0xFFFF
    return acc


class SpeedProbe:
    """Periodic speed samples taken in this process, from a ``SIGALRM`` timer."""

    def __init__(self, on_sample=None):
        self.durations = []      # kernel time of every sample, in order
        self.spent = 0.0         # handler time in total, kernel and bookkeeping
        self.on_sample = on_sample

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls, so C code that does not retry on
        # EINTR (dynamic loading, file reads) is not disturbed by the timer.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum=None, _frame=None):
        t0 = perf_counter()
        kernel()
        self.durations.append(perf_counter() - t0)
        if self.on_sample is not None:
            self.on_sample(perf_counter() - t0)
        self.spent += perf_counter() - t0

    def mark(self):
        """Position to measure from; takes one sample first, so no interval is without one."""
        self._sample()
        return len(self.durations) - 1, self.spent

    def since(self, mark):
        """``(handler seconds, kernel durations)`` since ``mark``."""
        n, spent = mark
        return self.spent - spent, self.durations[n:]


def rescale(wall_s, handler_s, durations):
    """Wall time of an interval at the nominal speed, handler time taken out."""
    return (wall_s - handler_s) * NOMINAL_S * len(durations) / sum(durations)
