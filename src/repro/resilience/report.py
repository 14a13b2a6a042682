"""Run reports: JSON-serialisable telemetry for resilient pipeline runs.

A :class:`RunReport` records, in order, everything that happened while a
scheme (or a whole comparison) ran: every attempt with its per-phase wall
clocks, every injected or organic fault, every retry-with-reseed, every
fallback down the degradation ladder, and every budget expiry.  The JSON
form is deterministic (sorted keys, stable event order); with
``deterministic=True`` wall-clock fields are zeroed so two runs with the
same :class:`~repro.resilience.faults.FaultPlan` seed serialise to
byte-identical JSON — the property the fault-injection tests pin.

:class:`PhaseTimer` is the per-phase clock the schemes fill in; its
timings ride on :class:`~repro.pipeline.schemes.SchemeOutcome` and are
copied into the report, so compile-time benchmarks and resilience
telemetry read the same numbers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class PhaseTimer:
    """Accumulates wall-clock seconds per pipeline phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.timings: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    def total(self) -> float:
        return sum(self.timings.values())


def outcome_state_from_final(final: Optional[Dict[str, Any]]) -> str:
    """Map a ``final`` event (live or deserialised from a report dict) to
    the resilience-ladder outcome state: ``ok`` / ``degraded`` /
    ``failed``.  A run that finished on a rung other than the one
    requested — including the cache-served fast path, which records no
    fallback events — counts as degraded."""
    if not final or final.get("status") != "ok":
        return "failed"
    if final.get("scheme") != final.get("requested"):
        return "degraded"
    return "ok"


class RunReport:
    """Ordered event log of one resilient run (or comparison of runs).

    Event kinds:

    - ``run``       — a requested scheme starts (one per ``run()`` call)
    - ``attempt``   — one end-to-end scheme execution: status ``ok`` /
      ``error`` / ``invalid``, per-phase seconds, error text, diagnostics
    - ``fault``     — a :class:`FaultPlan` clause fired
    - ``fallback``  — the ladder stepped down a rung
    - ``budget``    — the wall-clock budget expired, ending retries
    - ``final``     — terminal status for a requested scheme
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self.events: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        event: Dict[str, Any] = {"kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    def record_run(self, requested: str, ladder: List[str]) -> None:
        self._event("run", requested=requested, ladder=list(ladder))

    def record_attempt(
        self,
        scheme: str,
        attempt: int,
        status: str,
        seconds: float,
        phases: Optional[Dict[str, float]] = None,
        error: Optional[str] = None,
        diagnostics: Optional[List[str]] = None,
    ) -> None:
        self._event(
            "attempt",
            scheme=scheme,
            attempt=attempt,
            status=status,
            seconds=seconds,
            phases=dict(sorted((phases or {}).items())),
            error=error,
            diagnostics=sorted(diagnostics or []),
        )

    def record_fault(
        self, scheme: str, attempt: int, clause: str, phase: str, detail: str
    ) -> None:
        self._event(
            "fault",
            scheme=scheme,
            attempt=attempt,
            clause=clause,
            phase=phase,
            detail=detail,
        )

    def record_fallback(self, from_scheme: str, to_scheme: str, reason: str) -> None:
        self._event(
            "fallback", **{"from": from_scheme, "to": to_scheme, "reason": reason}
        )

    def record_budget(self, scheme: str, detail: str) -> None:
        self._event("budget", scheme=scheme, detail=detail)

    def record_pointsto(self, tier: str, stats: Dict[str, Any]) -> None:
        """Record the points-to precision stats the run was prepared with
        (one event per solved tier; ``stats`` as from
        :meth:`PointsToStats.to_dict`)."""
        self._event("pointsto", tier=tier, stats=dict(stats))

    def record_roofline(self, scheme: str, stats: Dict[str, Any]) -> None:
        """Record the data-movement roofline of the scheme that answered
        the run (``stats`` as from
        :meth:`~repro.evalmodel.roofline.RooflineModel.report`).  Every
        field is seed-determined, so the event survives deterministic
        serialisation unscrubbed."""
        self._event("roofline", scheme=scheme, stats=dict(stats))

    def roofline_events(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "roofline"]

    def record_cache(self, kind: str, status: str, detail: str = "") -> None:
        """Record an artifact-cache consultation (``kind`` is ``prepared``
        or ``outcome``; ``status`` is ``hit`` / ``miss`` / ``stale``).
        Carries no wall clocks, so it is stable under deterministic
        serialisation."""
        self._event("cache", cache=kind, status=status, detail=detail)

    def cache_events(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "cache"]

    def record_final(self, requested: str, scheme: Optional[str], status: str) -> None:
        self._event(
            "final",
            requested=requested,
            scheme=scheme,
            status=status,
            seconds=self._clock() - self._t0,
        )

    # -- queries ---------------------------------------------------------------

    def attempts(self, scheme: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            e
            for e in self.events
            if e["kind"] == "attempt"
            and (scheme is None or e["scheme"] == scheme)
        ]

    def faults(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "fault"]

    def fallbacks(self) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == "fallback"]

    def final(self) -> Optional[Dict[str, Any]]:
        for event in reversed(self.events):
            if event["kind"] == "final":
                return event
        return None

    def outcome_state(self) -> Optional[str]:
        """The job-facing terminal state of this run: ``"ok"`` when the
        requested scheme itself won, ``"degraded"`` when any ladder rung
        or profile fallback produced the result, ``"failed"`` when the
        ladder exhausted.  None while the run is still open (no ``final``
        event yet).  This is the single mapping the job server uses to
        surface per-job budgets/retries as job states."""
        final = self.final()
        if final is None:
            return None
        return outcome_state_from_final(final)

    def phase_seconds(
        self, phase: str, scheme: Optional[str] = None, status: str = "ok"
    ) -> float:
        """Total wall seconds spent in ``phase`` over matching attempts.

        The per-phase clocks come straight from the schemes'
        :class:`PhaseTimer`, so these are the authoritative compile-time
        numbers (used by ``bench_sec45_compile_time``)."""
        total = 0.0
        for event in self.attempts(scheme):
            if status is not None and event["status"] != status:
                continue
            total += event["phases"].get(phase, 0.0)
        return total

    # -- serialisation ---------------------------------------------------------

    _TIMING_KEYS = ("seconds",)

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        """JSON-ready dict.  With ``deterministic=True`` every wall-clock
        field (``seconds`` and per-phase timings) is zeroed, leaving only
        the seed-determined structure — byte-stable across runs."""
        events = []
        for event in self.events:
            copy = dict(event)
            if deterministic:
                if copy["kind"] == "cache":
                    # Cache locality depends on execution order (pool
                    # workers race on shared artifacts) and on what
                    # earlier runs left on disk — scrub like wall clocks.
                    continue
                for key in self._TIMING_KEYS:
                    if key in copy:
                        copy[key] = 0.0
                if "phases" in copy:
                    copy["phases"] = {name: 0.0 for name in copy["phases"]}
                if "stats" in copy:
                    # Solver wall clock and worklist pop count depend on
                    # hash seed / machine; zero them like other timings.
                    stats = dict(copy["stats"])
                    for key in ("solve_seconds", "solver_iterations"):
                        if key in stats:
                            stats[key] = 0
                    copy["stats"] = stats
            events.append(copy)
        summary = {
            "attempts": len(self.attempts()),
            "faults": len(self.faults()),
            "fallbacks": len(self.fallbacks()),
        }
        final = self.final()
        return {
            "events": events,
            "final": (
                {
                    "requested": final["requested"],
                    "scheme": final["scheme"],
                    "status": final["status"],
                }
                if final is not None
                else None
            ),
            "summary": summary,
        }

    def to_json(self, deterministic: bool = False, indent: int = 2) -> str:
        return json.dumps(
            self.to_dict(deterministic), indent=indent, sort_keys=True
        )

    def save(self, path: str, deterministic: bool = False) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json(deterministic))
            handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<run report: {len(self.attempts())} attempt(s), "
            f"{len(self.faults())} fault(s), "
            f"{len(self.fallbacks())} fallback(s)>"
        )
