"""
Time in reference seconds: raw time scaled by the machine's speed at the
moment, measured with a fixed calibration kernel.

On the shared two-core machine this benchmark was built on, the speed of
one core changes by up to 2x from one ten-second stretch to the next as
other tenants load the host, so raw times of whole runs spread by 20-50%.
The kernel below, plain-Python work of the same kind as the program's
(list splices, neighbour scans, Lehmer ranks, tuple hashing), slows down
with the program.  Between two calls of `sync`, the clock scales the raw
time by REFERENCE_KERNEL_S over the kernel's time at the two ends, so a
figure reads as seconds on the same machine when it is unloaded.  The
raw seconds are kept too.
"""

from __future__ import annotations

import random
from time import perf_counter

from checks import adjacency_count, apply_cut_paste, lehmer_rank

# The kernel's time on the unloaded machine: 2 cores, Python 3.11.7.
REFERENCE_KERNEL_S = 0.00060

_rng = random.Random(0)
_BASE = list(range(1, 501))
_rng.shuffle(_BASE)
_SMALL = [tuple(_rng.sample(range(1, 9), 8)) for _ in range(40)]


def kernel() -> int:
    vals, total, seen = _BASE, 0, set()
    for r in range(1, 9):
        vals = apply_cut_paste(vals, r, 250 + r, 400 + r, "swaprl")
        total += adjacency_count(vals)
    for s in _SMALL:
        seen.add(s[::-1] + s[:2])
        total += lehmer_rank(s)
    return total + len(seen)


def measure_speed() -> float:
    """REFERENCE_KERNEL_S over the faster of two kernel runs (1.0 when unloaded)."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return REFERENCE_KERNEL_S / best


class Clock:
    """Reference seconds of work, closed segment by segment with `sync`.

    A sample is opened with `start_sample`; durations handed to `add`
    are scaled with the segment they fall in and summed into the open
    sample when that segment closes.  The kernel's own time is not counted.
    """

    def __init__(self):
        self.reference_s = 0.0
        self.raw_s = 0.0
        self.samples: list[float] = []
        self._pending: list[tuple[int, float]] = []
        self.speed = measure_speed()  # at the last sync
        self._mark = perf_counter()

    def start_sample(self) -> None:
        self.samples.append(0.0)

    def add(self, raw_s: float) -> None:
        self._pending.append((len(self.samples) - 1, raw_s))

    def sync(self) -> float:
        """Close the open segment; returns the reference seconds so far."""
        end = perf_counter()
        now = measure_speed()
        scale = (self.speed + now) / 2
        self.raw_s += end - self._mark
        self.reference_s += (end - self._mark) * scale
        for index, raw in self._pending:
            self.samples[index] += raw * scale
        self._pending.clear()
        self.speed = now
        self._mark = perf_counter()
        return self.reference_s
