"""Cooperative wall-clock budgets for anytime partitioning.

A :class:`Budget` is shared by reference between the resilient pipeline
and the iterative partitioners (``GDPConfig.budget`` /
``RHOPConfig.budget``).  The partitioners *poll* it inside their restart
and refinement loops and return the best assignment found so far when it
expires — a deadline never aborts a run mid-phase, it only trims optional
work (extra multi-start cycles, extra refinement passes), so the result
is always a complete, valid assignment.

The clock is injectable so tests can drive expiry deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class Budget:
    """A cooperative wall-clock deadline.

    ``expired()`` is cheap and safe to call in inner loops.  The budget
    starts ticking at construction; call :meth:`restart` to re-arm it
    (e.g. when a budget built with a config is only used later).
    """

    def __init__(
        self,
        max_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_seconds is not None and max_seconds < 0:
            raise ValueError("max_seconds must be >= 0")
        self.max_seconds = max_seconds
        self._clock = clock
        self._start = clock()

    def restart(self) -> "Budget":
        """Re-arm the deadline from *now*; returns self for chaining."""
        self._start = self._clock()
        return self

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left, or None when no wall-clock limit is set."""
        if self.max_seconds is None:
            return None
        return max(0.0, self.max_seconds - self.elapsed())

    def expired(self) -> bool:
        if self.max_seconds is None:
            return False
        return self.elapsed() >= self.max_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<budget {self.elapsed():.3f}s elapsed, "
            f"max_seconds={self.max_seconds}>"
        )


def budget_expired(budget: Optional[Budget]) -> bool:
    """``budget is not None and budget.expired()`` — the poll the
    partitioner loops use so an unset budget costs one ``is None`` test."""
    return budget is not None and budget.expired()
