"""One-call driver: compile → profile → partition → schedule → evaluate."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..machine import Machine
from .prepared import PreparedProgram


class Pipeline:
    """Runs partitioning schemes over prepared programs.

    A few lines over one :class:`~repro.resilience.ResilientPipeline`
    ladder: :meth:`prepare` is its profiler rung and :meth:`run` goes
    through :func:`repro.exec.engine.run_prepared_scheme`, so every
    scheme of one pipeline shares one budget, one fault plan and one run
    report.  Configuration comes from one frozen
    :class:`~repro.exec.RunConfig`; without one the artifact cache is off.

    Example
    -------
    >>> from repro.exec import RunConfig
    >>> from repro.pipeline import Pipeline
    >>> pipe = Pipeline(config=RunConfig(latency=5, validate=True))
    """

    def __init__(self, machine: Optional[Machine] = None, config=None):
        from ..exec.runconfig import RunConfig
        from ..resilience import ResilientPipeline

        self.config = config if config is not None else RunConfig(cache="off")
        self.ladder = ResilientPipeline(self.config, machine)
        self.machine = self.ladder.machine

    def prepare(self, source: str, name: str = "program") -> PreparedProgram:
        return self.ladder.prepare(source, name)

    def run(self, prepared: PreparedProgram, scheme: str = "gdp"):
        """One scheme as a :class:`~repro.resilience.ResilientOutcome`."""
        from ..exec.engine import run_prepared_scheme

        return run_prepared_scheme(
            prepared, self.machine, self.config, scheme, ladder=self.ladder
        )[0]

    def run_all(
        self,
        prepared: PreparedProgram,
        schemes: Iterable[str] = ("unified", "gdp", "profilemax", "naive"),
    ) -> Dict[str, object]:
        """Run each distinct scheme once, in first-seen order (a caller
        passing a list that repeats a scheme doesn't pay for it twice)."""
        return {name: self.run(prepared, name) for name in dict.fromkeys(schemes)}

    def compare(
        self,
        prepared: PreparedProgram,
        schemes: Iterable[str] = ("gdp", "profilemax", "naive"),
    ) -> Dict[str, float]:
        """Relative performance of each scheme vs the unified upper bound
        (the paper's headline metric; 1.0 = matches unified memory),
        computed from whatever rung each scheme ran as."""
        ordered = ["unified"] + [s for s in schemes if s != "unified"]
        outcomes = self.run_all(prepared, ordered)
        base = outcomes["unified"].cycles
        return {
            name: (base / outcomes[name].cycles if outcomes[name].cycles else 0.0)
            for name in dict.fromkeys(schemes)
        }
