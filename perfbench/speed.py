"""Machine-speed reference for the benchmark's time metrics.

On a shared host the CPU speed a run gets drifts by tens of percent
over minutes, and swings by up to 2x from one second to the next, so
repeating work inside a run cannot average it out.  A fixed pure-Python reference loop, timed in short
probes between the program's operations, slows down with the program:
over 20-s windows the two correlate at 0.98, and dividing one by the
other cut the window-to-window spread from 15% to 5%.  Time metrics are
therefore reported at the nominal speed: measured seconds times
``NOMINAL_PROBE_S`` over the mean of the probes taken around the
measurement.  The raw values go in the run's detail line.
"""

from __future__ import annotations

import time
from typing import List, Optional

#: Seconds one probe takes at the nominal speed, a typical one of the
#: 2-vCPU VM the benchmark was tuned on (20-35 ms as its load varied).  It
#: is only a scale that keeps normalised seconds close to wall seconds.
NOMINAL_PROBE_S = 0.025
#: Probes either side of an operation that set its factor.  One probe is
#: too short to judge the speed; the speed swings from second to second,
#: so probes farther off track it worse: over six runs of ``cold-sweep``
#: the median cell spread 6% scaled by three probes, 7% by eleven.
WINDOW = 1


def probe_seconds() -> float:
    """Time one pass of the reference loop: dict and string work, 20-35 ms."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(100_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + len(str(i))
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - started


class Speed:
    """Probes taken during a run and the factor they imply."""

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self, times: int = 1) -> int:
        """Take probes; returns the index of the last one."""
        for _ in range(times):
            self.probes.append(probe_seconds())
        return len(self.probes) - 1

    def factor(self, around: Optional[int] = None) -> float:
        """Nominal over measured speed, below 1 when the CPU was slow: from
        every probe, or from those within ``WINDOW`` of probe ``around``."""
        probes = self.probes
        if around is not None:
            probes = probes[max(0, around - WINDOW): around + WINDOW + 1]
        return NOMINAL_PROBE_S * len(probes) / sum(probes)
