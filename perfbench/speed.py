"""A speedometer for a machine shared with other tenants.

On a host whose cores are shared, the same Python code can run at half speed
for tens of seconds and then at full speed again.  The speedometer times a
fixed reference loop of `Fraction` arithmetic, the kind of work mvgb does,
every SAMPLE_EVERY_S seconds from a timer signal while the process runs.

Time is then scaled to the speed at which that loop takes NOMINAL_S, window
by window: in each WINDOW_S of the process the rate is NOMINAL_S over the
median sample of the window, and the scaled time of an interval is the
integral of that rate over the interval, less the samples taken in it.  The
measure is additive, so the scaled time of a run is the sum of the scaled
times of its parts, a span's scaled self time is its children's subtracted
from its own, and a run whose speed changes halfway is scaled piece by
piece.  The scaled time of unchanged code stays put when the machine slows
down; faster code still reads faster.
"""

import bisect
import itertools
import math
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
# Wide enough for a steady median (about 25 samples), short against the
# phases of seconds to minutes in which the machine's speed changes.
WINDOW_S = 0.5
# About the loop's time on an unloaded core of the machine the benchmark was
# defined on.  Any constant works; it must not change between two runs that
# are compared.
NOMINAL_S = 135e-6


def reference_loop():
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1)
    return total


class Speedometer:
    """Reference-loop samples of one process: start times and durations."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.starts = []
        self.costs = []

    def _sample(self, signum, frame):
        started = time.perf_counter()
        reference_loop()
        self.starts.append(started)
        self.costs.append(time.perf_counter() - started)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """Median sample over NOMINAL_S, for the whole process so far."""
        return statistics.median(self.costs) / NOMINAL_S if self.costs \
            else 1.0

    def measure(self):
        """A function from an interval (start, end) to its time at the
        nominal speed, from the samples taken so far.  Times before the
        first window or after the last are scaled at that window's rate."""
        starts, costs = list(self.starts), list(self.costs)
        taken = [0.0, *itertools.accumulate(costs)]
        last = starts[-1] if starts else self.origin
        windows = max(1, math.ceil((last - self.origin) / WINDOW_S))
        edges = [bisect.bisect_left(starts, self.origin + k * WINDOW_S)
                 for k in range(windows + 1)]
        edges[-1] = len(starts)
        rates = [NOMINAL_S / statistics.median(costs[lo:hi]) if hi > lo
                 else None for lo, hi in zip(edges, edges[1:])]
        # a window without samples (a long call into C) takes the rate of
        # the nearest earlier window, or else of the nearest later one
        for k in range(1, windows):
            if rates[k] is None:
                rates[k] = rates[k - 1]
        for k in range(windows - 2, -1, -1):
            if rates[k] is None:
                rates[k] = rates[k + 1]
        rates = [1.0 if r is None else r for r in rates]
        before = [0.0]  # scaled time from the origin to each window's start
        for k in range(windows - 1):
            before.append(before[-1] + rates[k] * (
                WINDOW_S - (taken[edges[k + 1]] - taken[edges[k]])))

        def at(t):
            k = min(max(0, math.floor((t - self.origin) / WINDOW_S)),
                    windows - 1)
            inside = taken[bisect.bisect_left(starts, t)] - taken[edges[k]]
            return before[k] + rates[k] * (
                t - self.origin - k * WINDOW_S - inside)

        def scaled(start, end):
            return at(end) - at(start)
        return scaled
