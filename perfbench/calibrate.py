"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the speed of code drifts by 10-30 % over
stretches of seconds to minutes, longer than one run, so medians of raw wall
times of separate runs disagree even when nothing changed.  The benchmark
therefore cuts every round into pieces of at most ~1 s at its operation
boundaries, runs a fixed calibration loop at every cut, and scales each piece
by the machine's speed around it:

    time = wall time * REFERENCE_S / mean of the calibrations before and after

A round's time is the sum of its pieces' times.  Set-up samples are few and
long, and a calibration taken between two of them is as noisy as one taken
inside a round, so set-up time is the samples' median wall time scaled by
the mean of all calibrations taken between them (``scaled_median``).
REFERENCE_S is the mean calibration time on the machine the bounds were set
on (README, "Reference figures"), so these times read close to wall seconds
there.  The loop is the same kind of work as ncfgl's: products and sums of
dictionaries keyed by word tuples with integer coefficients.  A change to
ncfgl changes the work timed but not the loop, so it moves these times as it
moves wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Mean of calibration() on an Intel Xeon VM, os.cpu_count() = 2, Python 3.11.7.
REFERENCE_S = 0.0038
# One loop takes ~4 ms; a median of five is not thrown by a single preemption.
REPEATS = 5


def _loop() -> int:
    """Fixed work: truncated products and sums of word-keyed dictionaries."""
    base = {(i,): i + 1 for i in range(1, 9)}
    base[(1, 1)] = -2
    power = {(): 1}
    total: dict = {}
    for _ in range(4):
        product: dict = {}
        for left, a in power.items():
            for right, b in base.items():
                word = left + right
                if len(word) <= 4:
                    product[word] = product.get(word, 0) + a * b
        power = {word: c for word, c in product.items() if c}
        for word, c in power.items():
            total[word] = total.get(word, 0) - c
    return len(total)


def calibration() -> float:
    """Median wall time of REPEATS runs of the fixed loop, in seconds."""
    times = []
    for _ in range(REPEATS):
        begin = perf_counter()
        _loop()
        times.append(perf_counter() - begin)
    return statistics.median(times)


class CalibratedClock:
    """Times consecutive pieces of work, running the calibration at every cut.

    ``scaled`` holds each piece's wall time in reference seconds, from the
    calibrations just before and just after it.
    """

    def __init__(self):
        self.before = calibration()
        self.walls, self.scaled, self.calibrations = [], [], [self.before]
        self.begin = perf_counter()

    def restart(self):
        """Start the next piece now; the time since the last cut is not timed."""
        self.begin = perf_counter()

    def cut(self):
        """End the current piece, calibrate, and start the next one."""
        wall = perf_counter() - self.begin
        after = calibration()
        self.walls.append(wall)
        self.scaled.append(wall * REFERENCE_S * 2 / (self.before + after))
        self.calibrations.append(after)
        self.before = after
        self.begin = perf_counter()


def scaled_median(walls: list, calibrations: list) -> float:
    """Median of ``walls`` in reference seconds, by the mean of ``calibrations``."""
    return statistics.median(walls) * REFERENCE_S / statistics.mean(calibrations)
