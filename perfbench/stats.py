"""Arithmetic the benchmark reports with.

Kept free of timing and I/O so ``test_stats.py`` can pin it down:
percentiles with their sample counts, rates over short windows and span
self time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile and the sample it was taken over."""

    q: float
    value: float
    #: Samples the percentile was taken over.
    count: int
    #: Samples ranked above the percentile; a tail figure backed by fewer
    #: than ten of them is a guess, not a measurement.
    beyond: int

    def describe(self) -> str:
        """The value in ms with the counts behind it."""
        return f"p{self.q:g} = {self.value:.4g} ms (n={self.count}, {self.beyond} beyond)"


def percentile(samples, q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile of ``samples`` with its counts."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return Percentile(q, ordered[rank - 1], len(ordered), len(ordered) - rank)


#: Width in seconds of the windows throughput is taken over; its median
#: over windows keeps a few stalled windows from deciding it.
WINDOW_S = 0.5


def busy_rates(starts, durations, amount: float, width: float) -> list[float]:
    """Work per busy second of a one-caller closed loop, per window.

    Run ``i`` starts at ``starts[i]``, takes ``durations[i]`` seconds and
    completes ``amount`` units; runs are grouped into windows of
    ``width`` seconds by start time.  The median of these rates is the
    loop's throughput without the stalls of a few bad windows.
    """
    windows: dict[int, list[float]] = {}
    for start, duration in zip(starts, durations):
        w = windows.setdefault(int(start // width), [0.0, 0.0])
        w[0] += amount
        w[1] += duration
    return [done / busy for done, busy in windows.values()]


def covered(start: float, end: float, children) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``.

    ``children`` are ``(start, end)`` intervals; overlapping children
    count once, and the parts outside the parent are ignored.
    """
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(start, end, children)
