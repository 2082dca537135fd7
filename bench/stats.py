"""Arithmetic the benchmark reports with: percentiles, slot use, self time."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_TAIL = 10


def nearest_rank(n: int, p: int) -> int:
    """1-based rank of the nearest-rank ``p``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(p * n / 100))


def samples_beyond(n: int, p: int) -> int:
    """How many of ``n`` samples sort strictly after the ``p``-th percentile."""
    return n - nearest_rank(n, p)


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% of samples at or below it."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def slot_util(busy_s: float, slots: int, makespan_s: float) -> float:
    """Slot utilisation: busy / (slots x makespan)."""
    if slots < 1 or makespan_s <= 0:
        raise ValueError("slot utilisation needs at least one slot and a positive makespan")
    return busy_s / (slots * makespan_s)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Span duration minus the part of ``[start, end]`` its child spans cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered(clipped)
