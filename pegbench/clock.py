"""Wall time corrected for the speed the machine has at the moment.

On a shared machine the same pure-Python work takes up to a third longer
in some stretches of a minute than in others, which would swamp the
differences the benchmark exists to show.  So the timed loop runs a fixed
calibration task (building one seeded program with ``gen.program``; no
pegrec code) every ``EVERY`` seconds, and each measured interval is scaled
by ``REFERENCE_S / c``, where c is the mean of the calibration times just
before and after it.  Times are thus reported in seconds of a machine on
which the calibration task takes ``REFERENCE_S``; both the parent and a
change are measured in that unit.  The raw times are kept as well.
"""

from __future__ import annotations

import bisect
import gc
import random
from time import perf_counter

import gen

# Calibration task time on the machine the benchmark was written on (an
# Intel Xeon VM, 2 vCPUs, CPython 3.11.7), in an unloaded stretch.
REFERENCE_S = 0.0020
EVERY = 0.05


def _task() -> None:
    gen.program(gen.BASE, random.Random(0), 700)


class Clock:
    def __init__(self):
        self._ends: list[float] = []
        self._times: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        # like an operation (run.py), the task starts with an empty young
        # generation, so what ran before it does not slow its collections
        gc.freeze()
        t0 = perf_counter()
        _task()
        t1 = perf_counter()
        self._ends.append(t1)
        self._times.append(t1 - t0)

    def tick(self) -> None:
        """Calibrate if the last calibration is more than EVERY old."""
        if perf_counter() - self._ends[-1] >= EVERY:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """The factor for an interval that ran from start to end; call
        after a calibration that followed the interval."""
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._ends, end)
        nearby = [self._times[i] for i in (before, after)
                  if 0 <= i < len(self._times)]
        return REFERENCE_S / (sum(nearby) / len(nearby))

    @property
    def calibrations(self) -> int:
        return len(self._times)
