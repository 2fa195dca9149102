"""Times in reference seconds, which take the host's varying speed out of a timing.

On a shared host the same computation runs up to half again as long for
seconds to minutes at a time, and CPU time slows with wall time, so
neither separates a slower program from a busier machine.  A fixed
reference loop is timed right before and right after every measured
call and, with a sampling interval, every ``interval`` seconds during it
(from a ``SIGALRM`` handler, whose time is taken out of the call's).  The
call's wall time, multiplied by ``REF_S`` over the median of those
reference timings, is its time in reference seconds: how long the call
takes while the reference loop takes ``REF_S``.  The loop is the
benchmark's own code and never changes with the library, so a slower
library still reads slower.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: nominal wall time of one reference loop: the unit of reference seconds
REF_S = 0.025
_REF_ITERATIONS = 1500


def reference_loop() -> float:
    """Fixed interpreter work on a 100-entry array, like the library's inner loops."""
    u = np.linspace(0.0, 1.0, 100)
    acc = 0.0
    for i in range(_REF_ITERATIONS):
        v = np.roll(u, 1) - u
        w = np.where(np.abs(v) > 1e-14, v, 0.0)
        acc += float(np.abs(w).sum()) + i * 1e-9
    return acc


class RefClock:
    """Measures calls with the reference loop timed around, and optionally during, each.

    ``interval`` (seconds) turns on sampling during calls; it needs the
    main thread and must stay off while spans are recorded, because the
    sampled loop would count as self time of the interrupted function.
    """

    def __init__(self, interval: float | None = None, clock=time.perf_counter,
                 reference=reference_loop):
        self.interval = interval
        self.clock = clock
        self.reference = reference
        self.reference_s: list[float] = []
        self._samples: list[float] = []
        self._pauses: list[tuple[float, float]] = []
        self._last = self._time_reference()

    def _time_reference(self) -> float:
        t0 = self.clock()
        self.reference()
        elapsed = self.clock() - t0
        self.reference_s.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        t0 = self.clock()
        self._samples.append(self._time_reference())
        self._pauses.append((t0, self.clock()))

    def measure(self, fn):
        """Call ``fn()``; return (its result, wall seconds, reference seconds per wall second).

        The wall time excludes the samples taken during the call.
        Consecutive calls share the reference timing between them.
        """
        self._samples = [self._last]
        self._pauses = []
        previous = None
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = self.clock()
        try:
            result = fn()
        finally:
            t1 = self.clock()
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        # a sample may land between the call's end and the timer's stop
        paused = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self._pauses)
        wall = t1 - t0 - paused
        self._last = self._time_reference()
        self._samples.append(self._last)
        return result, wall, REF_S / statistics.median(self._samples)
