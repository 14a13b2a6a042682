"""Resilient scheme execution: retry-with-reseed + degradation ladder.

:class:`ResilientPipeline` wraps :func:`repro.pipeline.schemes.run_scheme`
with the survival policy the paper's own quality ladder implies
(GDP → Profile Max → Naïve → Unified):

1. run the requested scheme; validate its output with the partition
   validity checker (PR 1's ``check_scheme_outcome``);
2. on a raise or a rejected output, *retry with a reseeded randomized
   partitioner* (the multilevel partitioners derive their rng from
   ``seed + attempt`` — the retry bumps the base seed by a large stride
   so restart sets don't overlap);
3. when every retry of a rung fails, *fall back one rung down the
   ladder* and repeat;
4. record every attempt, fault, retry, fallback, and budget event in a
   :class:`~repro.resilience.report.RunReport`.

A shared :class:`~repro.resilience.budget.Budget` bounds the whole run:
the partitioners poll it inside their refinement loops (anytime
behaviour) and the ladder stops spending on retries once it expires.
"""

from __future__ import annotations

import time
from typing import Optional

from ..machine import Machine
from ..partition.gdp import GDPConfig
from ..partition.rhop import RHOPConfig
from .errors import LadderExhausted, as_phase_error
from .report import RunReport

#: The paper's quality ladder, best rung first (Table 1 order).
LADDER = ("gdp", "profilemax", "naive", "unified")

#: Seed stride between retry attempts.  The multilevel partitioners run
#: ``restarts`` internal cycles seeded ``seed + 0 .. seed + restarts-1``;
#: a stride much larger than any restart count guarantees a retry explores
#: a disjoint seed range instead of replaying the same cycles shifted.
RESEED_STRIDE = 9973


class ResilientOutcome:
    """A scheme outcome plus the story of how it was obtained.

    ``scheme`` is the rung that actually produced the result;
    ``requested`` what the caller asked for; ``report`` the full event
    log.  Unknown attributes delegate to the wrapped
    :class:`~repro.pipeline.schemes.SchemeOutcome`.
    """

    def __init__(self, outcome, scheme: str, requested: str, report: RunReport):
        self.outcome = outcome
        self.scheme = scheme
        self.requested = requested
        self.report = report

    @property
    def fell_back(self) -> bool:
        return self.scheme != self.requested

    def __getattr__(self, name: str):
        return getattr(self.outcome, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = "" if not self.fell_back else f" (fallback from {self.requested})"
        return f"<resilient {self.scheme}{via}: {self.outcome.cycles:.0f} cycles>"


class ResilientPipeline:
    """The degradation ladder: retries, fallbacks, budget and faults.

    Everything comes from one :class:`~repro.exec.RunConfig`.  One
    pipeline owns one budget (``max_seconds``), one fault plan
    (``fault_spec``) and one :class:`RunReport`, shared by every
    :meth:`prepare` and :meth:`run` on it.  ``seed`` offsets every
    attempt's base seed, so sweep cells with different RunConfig seeds
    explore disjoint partitioner restarts.

    Example
    -------
    >>> from repro.exec import RunConfig
    >>> from repro.resilience import ResilientPipeline
    >>> pipe = ResilientPipeline(
    ...     RunConfig(retries=1, max_seconds=30, fault_spec="raise:gdp@1")
    ... )
    """

    def __init__(self, config, machine: Optional[Machine] = None):
        self.config = config
        self.machine = (
            machine if machine is not None else config.build_machine()
        )
        self.budget = config.build_budget()
        self.faults = config.build_faults()
        #: The event log every prepare and run of this ladder appends to.
        self.report = RunReport()

    def _drain_faults(self) -> None:
        if self.faults is None:
            return
        for event in self.faults.drain_fired():
            self.report.record_fault(
                scheme=event["scheme"] or "?",
                attempt=event["attempt"],
                clause=event["clause"],
                phase=event["phase"],
                detail=event["detail"],
            )

    def prepare(self, source: str, name: str = "program"):
        """Prepare a program under the profiler rung of the ladder.

        Preparation goes through :func:`repro.exec.engine.load_or_prepare`,
        so the config's cache policy applies.  The dynamic profiler is
        itself a rung: when interpretation fails — an injected
        ``raise:profiler`` fault, an interpreter error, or the step-limit
        timeout — preparation degrades to the statically derived profile
        (``profile:static``) instead of aborting, so the partitioners
        still get access weights rather than dropping straight to naive
        placement.
        """
        from ..exec.engine import load_or_prepare
        from ..profiler import InterpreterError
        from .errors import InjectedFault

        config = self.config
        report = self.report
        if config.profile == "static":
            return load_or_prepare(source, name, config)[0]
        started = time.perf_counter()
        try:
            if self.faults is not None:
                self.faults.begin_attempt("profiler", 1)
                self.faults.maybe_raise("profiler")
            prepared = load_or_prepare(source, name, config)[0]
        except (InjectedFault, InterpreterError) as exc:
            self._drain_faults()
            reason = str(exc)
            report.record_attempt(
                "profile:dynamic", 1, "error",
                time.perf_counter() - started, error=reason,
            )
            report.record_fallback("profile:dynamic", "profile:static", reason)
            started = time.perf_counter()
            prepared = load_or_prepare(
                source, name, config.replace(profile="static")
            )[0]
            report.record_attempt(
                "profile:static", 1, "ok", time.perf_counter() - started
            )
            return prepared
        self._drain_faults()
        report.record_attempt(
            "profile:dynamic", 1, "ok", time.perf_counter() - started
        )
        return prepared

    def run(self, prepared, scheme: str = "gdp") -> ResilientOutcome:
        """Run ``scheme`` end to end, surviving failures per the policy.

        Returns a :class:`ResilientOutcome`; raises
        :class:`~repro.resilience.errors.LadderExhausted` (report attached)
        only when every rung of the ladder failed every attempt.
        """
        from ..lint import check_scheme_outcome
        from ..pipeline.schemes import run_scheme

        config = self.config
        report = self.report
        ladder = (
            list(LADDER[LADDER.index(scheme):])
            if config.fallback and scheme in LADDER else [scheme]
        )
        report.record_run(scheme, ladder)

        budget = self.budget
        last_failure = "never ran"
        for rung_index, rung in enumerate(ladder):
            for attempt in range(1, config.retries + 2):
                if attempt > 1 and budget is not None and budget.expired():
                    report.record_budget(
                        rung,
                        "wall-clock budget exhausted; skipping retries",
                    )
                    break
                if self.faults is not None:
                    self.faults.begin_attempt(rung, attempt)
                seed_offset = config.seed + (attempt - 1) * RESEED_STRIDE
                started = time.perf_counter()
                try:
                    outcome = run_scheme(
                        prepared,
                        self.machine,
                        rung,
                        gdp_config=GDPConfig().reseeded(
                            seed_offset, budget=budget
                        ),
                        rhop_config=RHOPConfig().reseeded(
                            seed_offset, budget=budget
                        ),
                        faults=self.faults,
                    )
                except Exception as exc:  # noqa: BLE001 - the whole point
                    self._drain_faults()
                    error = as_phase_error(exc, rung, rung)
                    last_failure = str(error)
                    report.record_attempt(
                        rung,
                        attempt,
                        "error",
                        time.perf_counter() - started,
                        error=last_failure,
                    )
                    continue
                self._drain_faults()
                if config.validate:
                    diag = check_scheme_outcome(prepared, outcome)
                    if diag.has_errors:
                        last_failure = (
                            f"validity check rejected {rung} output: "
                            f"{diag.summary()}"
                        )
                        report.record_attempt(
                            rung,
                            attempt,
                            "invalid",
                            time.perf_counter() - started,
                            phases=outcome.timings,
                            error=last_failure,
                            diagnostics=[
                                f"{d.rule}@{d.location()}" for d in diag.errors
                            ],
                        )
                        continue
                report.record_attempt(
                    rung,
                    attempt,
                    "ok",
                    time.perf_counter() - started,
                    phases=outcome.timings,
                )
                report.record_final(scheme, rung, "ok")
                return ResilientOutcome(outcome, rung, scheme, report)
            if rung_index + 1 < len(ladder):
                report.record_fallback(rung, ladder[rung_index + 1], last_failure)
        report.record_final(scheme, None, "failed")
        raise LadderExhausted(
            f"all rungs of ladder {ladder} failed for scheme {scheme!r}; "
            f"last failure: {last_failure}",
            run_report=report,
        )
