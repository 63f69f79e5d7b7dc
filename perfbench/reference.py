"""The machine's speed at a moment, from one fixed computation timed in this process.

The benchmark runs on a machine shared with other tenants, and that machine's
speed changes with their load: the same query, repeated for a minute, took
0.17 to 0.31 s, and this computation, timed between the repeats, slowed by
the same factor at the same moments.  Such slow periods last from seconds to
minutes, longer than a run.  So the harness times this computation during the
operations of a pass and scales the pass's times by
`REFERENCE_S * (mean speed of the computation during the pass)`: timings
are reported in seconds at the speed the machine had when `REFERENCE_S` was
measured.  A change to the program moves them as much as it moves wall time,
because the computation does not depend on the program.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# median of reference_seconds() over 2000 calls on the 2-CPU x86-64 virtual
# machine ("Intel Xeon Processor", Python 3.11, NumPy 2.4) the benchmark was
# tuned on, at a quiet moment
REFERENCE_S = 0.0051

_GRID = np.linspace(0.1, 3.0, 2000)


def reference_seconds() -> float:
    """Time one fixed mix of NumPy array arithmetic and scalar Python, like the program's own."""
    start = time.perf_counter()
    total = 0.0
    for i in range(300):
        total += float(np.sum(np.cosh(_GRID) * np.exp(-_GRID * (i % 7))))
        for j in range(40):
            total += math.sqrt(i + j)
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns wall seconds into seconds at the reference speed.

    It averages the samples' speeds (1 / time), not their times: a pass's
    samples are evenly spaced, so each moment of the pass counts by its
    length, as it does in the pass's wall time.  The tenth fastest and the
    tenth slowest samples are dropped, since one context switch can land in
    a sample.  On repeated passes of quad-gauss, quad-cosh and verify-basic
    the scaled times spread by 2% to 4% of their median with this average
    and by 7% to 9% with the median sample time.
    """
    speeds = sorted(1.0 / s for s in samples)
    cut = len(speeds) // 10
    return REFERENCE_S * statistics.fmean(speeds[cut:len(speeds) - cut])


class Sampler:
    """Times the reference every `period` seconds while active, from a SIGALRM handler.

    The handler runs on the main thread between two bytecodes of whatever the
    program is doing, so the samples follow the machine's speed inside long
    operations too.  The timer is re-armed after each sample, so samples
    never overlap.  The wall intervals the samples took are kept, so that an
    operation's time can leave them out (`busy`).
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.intervals: list[tuple] = []  # (start, end) of each sample
        self._on = False

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.intervals.append((start, time.perf_counter()))

    def _handler(self, signum, frame) -> None:
        # a signal delivered just before the timer was stopped still runs this
        if self._on:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def _start(self, delay: float) -> None:
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, delay)

    def _stop(self) -> float:
        self._on = False
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        return remaining

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        self._start(self.period)
        try:
            yield
        finally:
            self._stop()
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        remaining = self._stop()
        try:
            yield
        finally:
            self._start(remaining or self.period)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds between `start` and `end` that no sample took."""
        taken = sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.intervals)
        return end - start - taken
