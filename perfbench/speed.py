"""Correcting host times for a slowed shared CPU.

On a shared host the CPU this benchmark runs on slows down when a
neighbour is busy: a fixed pure-Python loop then takes 30-80% longer, for
seconds at a time and sometimes for a whole run, and so does the simulator.
:class:`SpeedProbe` times such a loop every ``PERIOD_S`` (from a
``SIGALRM`` handler, in the main thread) while a run measures.  An
interval's corrected duration is its duration without the probe's own
samples, scaled by ``REFERENCE_S / (mean loop time around the interval)``:
the interval as it would have taken on a CPU that runs the loop in
``REFERENCE_S``.  Because the reference is a constant, a run that is slowed
from start to end is corrected as fully as one that is slowed in bursts.
Both the raw and the corrected figures are reported.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter
from typing import Callable, List, Optional

PERIOD_S = 0.01
#: loop time of the reference CPU: an idle core of a 2-vCPU cloud sandbox
REFERENCE_S = 0.0002
#: the loop time around an interval is the mean over the samples taken
#: from ``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends.  The
#: speed changes within a tenth of a second, so the window is short.
WINDOW_S = 2 * PERIOD_S


def calibration_loop() -> int:
    """About 0.2 ms of interpreter work: dict traffic and arithmetic."""
    counts: dict = {}
    total = 0
    for i in range(1500):
        key = i & 31
        counts[key] = counts.get(key, 0) + 1
        total += (i * i) % 7
    return total + len(counts)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: List[float] = []
        self.costs: List[float] = []
        self._sums: List[float] = [0.0]     # prefix sums of ``costs``
        #: told the length of every sample, so a tracer can leave the
        #: probe's own time out of the layers it accounts
        self.on_sample: Optional[Callable[[float], None]] = None

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sums = [0.0, *accumulate(self.costs)]

    def _sample(self, signum, frame) -> None:
        begin = perf_counter()
        calibration_loop()
        cost = perf_counter() - begin
        self.starts.append(begin)
        self.costs.append(cost)
        if self.on_sample is not None:
            self.on_sample(cost)

    @property
    def slowdown(self) -> float:
        """Mean loop time over the run against the reference, minus 1."""
        return self._sums[-1] / max(1, len(self.costs)) / REFERENCE_S - 1

    def duration(self, begin: float, end: float) -> float:
        """``end - begin`` at the reference CPU's speed."""
        starts, sums = self.starts, self._sums
        lo, hi = bisect_left(starts, begin), bisect_right(starts, end)
        own = sums[hi] - sums[lo]
        lo = bisect_left(starts, begin - WINDOW_S)
        hi = bisect_right(starts, end + WINDOW_S)
        if hi == lo:
            lo, hi = 0, len(starts)
        mean = (sums[hi] - sums[lo]) / (hi - lo) if hi > lo else REFERENCE_S
        return (end - begin - own) * REFERENCE_S / mean
