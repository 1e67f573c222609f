"""Machine-speed calibration for the timed calls.

On a shared 2-CPU Xeon, a fixed loop of small numpy operations ran either
at full speed or about 1.9x slower, switching between the two every few
tens of milliseconds, and the share of slow time drifted from second to
second (45 % to 100 % in one 20-second trace).  CPU time tracked wall
time: other tenants slow the cores, not the scheduler.  A 6-second fit
pays the average slowdown over its own 6 seconds, which a kernel run just
before and just after the call cannot see: scaled by such brackets, fit
times spread more (19 % standard deviation) than raw ones (11 %).

So the speed is sampled during the call.  A ``SIGALRM`` every 50 ms runs
one short kernel sample in the main thread, between two bytecodes of the
timed call; the handler's own time is taken off the call's wall time.
Scaled by the mean sample time over the call, the fits' spread fell to
5 %.  Each call is also preceded by a few samples, so that short calls
have samples too.  A call is scaled by the mean of the samples taken
within ``WINDOW_S`` of it:

    scaled = (wall - handler time) * REFERENCE_S / mean(sample seconds)

the time the call would take on a machine on which one sample takes
``REFERENCE_S``.  ``credible_band`` and the set-up are scaled by the mean
of all the run's samples instead.  The band's main thread waits on two
worker threads, so the handler cannot sample inside it, and the samples
around it track it poorly: in one run its wall time doubled while the
samples read 10 % slower, as if only the second CPU had slowed.  A
set-up runs in another process.

Means, not medians, because a call pays for the share of slow bursts and
each sample is either fast or slow.  The kernel is Python-driven small
numpy arithmetic like popdiff's inner loops and touches nothing of
popdiff, so a change to the program cannot move it.  Raw wall times stay
in the run records.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.001  # seconds per kernel sample on the reference machine
STEPS = 500          # kernel steps per sample
INTERVAL_S = 0.05    # sampling period inside a call
BRACKET = 8          # samples taken just before each call
WINDOW_S = 1.0       # samples this close to a call calibrate it

_MATRIX = np.random.default_rng(0).standard_normal((9, 9)) * 0.1


class Sampler:
    """Kernel samples of one run, with the time each one ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.handler_s = 0.0  # time spent in the signal handler, in total

    def sample(self) -> None:
        start = time.perf_counter()
        x = np.zeros(9)
        for _ in range(STEPS):
            x = _MATRIX @ x + 1.0
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)

    def bracket(self) -> None:
        for _ in range(BRACKET):
            self.sample()

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.handler_s += time.perf_counter() - start

    @contextmanager
    def during(self, active: bool = True):
        """Samples every ``INTERVAL_S`` inside the block, if ``active``.
        Must run in the main thread."""
        if not active:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean sample time within ``WINDOW_S`` of the interval."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return float(np.mean(self.seconds[lo:hi]))

    def mean_s(self) -> float:
        """Mean sample time over the whole run."""
        return float(np.mean(self.seconds))


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
