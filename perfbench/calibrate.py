"""Machine-speed reference for the benchmark's timings.

This machine shares its host with other tenants, and its speed drifts by a
quarter over tens of seconds: every operation of a run slows together.  A
run therefore times a fixed reference computation (``reference``: small
numpy arrays and a Python loop, like the program's own mix, and no
polyslope) between its operations, and scales each operation's time by
NOMINAL_S over the reference time measured around it.  A time reported by
the benchmark is the time the operation takes when the reference takes
NOMINAL_S; the ratio between two commits is unchanged by the scaling.
"""

import bisect
import math
import statistics
import time

import numpy as np

NOMINAL_S = 2.7e-3  # the reference's median time on the reference machine (README)
INTERVAL_S = 0.025  # least time between two reference samples
WINDOW = 5  # reference samples around an operation whose median scales it


def reference() -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(60):
        angles = rng.uniform(0.0, 2.0 * math.pi, 9)
        half = np.tan(((np.roll(angles, -1) - angles) % (2.0 * math.pi)) / 2.0)
        total += float(np.sum(np.abs(half))) + int(np.count_nonzero(half < 0))
        for j in range(200):
            total += math.sin(j * 0.1)
    return total


class Calibrator:
    """Reference samples taken during a run, and the scale they give."""

    def __init__(self):
        self.times = []
        self.durations = []

    def sample(self) -> None:
        begin = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.times.append(0.5 * (begin + end))
        self.durations.append(end - begin)

    def due(self) -> None:
        """Take a sample unless one was taken within INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median of the WINDOW samples nearest to ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return NOMINAL_S / statistics.median(self.durations[lo:lo + WINDOW])
