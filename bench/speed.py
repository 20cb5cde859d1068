"""Machine-speed reference for timings on a shared machine.

On a machine shared with other tenants the speed of one core can swing
by half over periods of seconds, and a run sees a different share of
slow periods each time.  The benchmark therefore times a fixed
reference computation of its own (no costcal code) between tasks, and
scales each measured interval by ``REFERENCE_S / r``, where ``r`` is the
median reference time over the samples taken within ``WINDOW_S`` of the
interval.
Scaled times read as if the machine had run at its nominal speed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Nominal duration of one reference unit.  Any constant works; this is
#: the unit's time on an idle 2-core x86-64 machine with Python 3.11.
REFERENCE_S = 240e-6
#: Minimum wall time between reference samples.
EVERY_S = 0.01
#: Margin on each side of an interval for the samples that scale it.  The
#: speed changes within a fraction of a second, so the window is narrow.
WINDOW_S = 0.1

_POINTS = [(x, (x - 0.3) ** 2 + 0.1 * math.sin(40.0 * x)) for x in np.linspace(0, 1, 400).tolist()]


def reference_unit() -> float:
    """A lower hull in pure Python plus numpy calls on 2001 points.

    Its footprint is close to the workloads': a neighbour's load on the
    shared caches slows this unit about as much as it slows them, which
    a smaller arithmetic loop does not track.
    """
    hull: list[tuple[float, float]] = []
    for p in _POINTS:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ) <= 0.0:
            hull.pop()
        hull.append(p)
    xs = np.linspace(0.0, 1.0, 2001)
    ys = np.exp(-xs) * np.maximum(0.0, 1.0 - xs)
    return float(np.interp(0.5, xs, ys)) + len(hull)


class SpeedMeter:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the reference unless a sample is recent."""
        if not force and self.times and time.perf_counter() - self.times[-1] < EVERY_S:
            return
        start = time.perf_counter()
        reference_unit()
        end = time.perf_counter()
        self.times.append(end)
        self.samples.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """The interval [start, end] at nominal machine speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample in the window: take the one before it
            lo = min(max(lo, 1), len(self.times)) - 1
            hi = lo + 1
        return (end - start) * REFERENCE_S / statistics.median(self.samples[lo:hi])
