"""Times scaled to a reference speed of the machine.

The machine the benchmark was built on is shared, and its speed drifts as
other tenants load the cores: the per-second median time of one fixed
Python loop moved between 5.6 and 9.8 ms within a minute (fastest 5.3 ms),
in phases lasting seconds to tens of seconds, so runs of identical work
differed by 15-25 %.  A wall-clock time taken between two runs of a short
reference loop is therefore multiplied by REFERENCE_S over the loop's mean
time then, which removes most of the drift; scaled times are what the
program would take at the speed where the reference loop runs in
REFERENCE_S.  The program never runs the loop, so a change to the program
moves its scaled times exactly as it moves its wall-clock times.
"""
import math
import time

REFERENCE_LOOPS = 18000
# the loop's fastest time on an idle core of the 2-core Xeon the benchmark
# was built on; scaled times are wall-clock times on that core at that speed
REFERENCE_S = 1e-3


def reference():
    """Seconds the reference loop takes now: the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_LOOPS):
            acc += i * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledTimer:
    """Scales each interval by the reference runs just before and just after it."""

    def __init__(self):
        self.before = reference()

    def scale(self, seconds):
        after = reference()
        factor = 2.0 * REFERENCE_S / (self.before + after)
        self.before = after
        return seconds * factor
