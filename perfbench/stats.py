"""Summary statistics shared by the workloads (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``{"value", "percentile", "samples"}``.  A sample too small to
    have such a percentile above the median reports the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    index = n - TAIL_BEYOND - 1
    if index < (n - 1) // 2:
        return {"value": median(ordered), "percentile": 50.0, "samples": n}
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n,
            "samples": n}


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the empty product, 1.0, for no values."""
    logs: List[float] = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def union_length(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals
        if hi > start and lo < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
