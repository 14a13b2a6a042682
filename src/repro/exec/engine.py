"""Parallel scheme/bench execution engine over the artifact cache.

The paper's evaluation is an embarrassingly parallel sweep — benchmarks
x schemes x intercluster latencies (Table 1, Figs 7-10).  The engine
fans those cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``--jobs N``, default ``os.cpu_count()``), runs each cell under the
resilience layer's retry/fallback ladder so one failing cell degrades
without killing the sweep, and merges the per-cell
:class:`~repro.resilience.report.RunReport`\\ s into one sweep-level
:class:`SweepResult` with wall-clock speedup and cache-hit columns.

Workers never share in-memory state: every worker rehydrates prepared
programs and outcomes from the content-addressed on-disk
:class:`~repro.exec.cache.ArtifactCache`, so a warm rerun of the whole
sweep skips the interpreter, the points-to solver, and the partitioners
entirely.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .artifacts import (
    outcome_from_payload,
    outcome_key_material,
    outcome_to_payload,
    prepared_from_payload,
    prepared_key_material,
    prepared_to_payload,
)
from .cache import ArtifactCache
from .runconfig import SCHEMA_VERSION, RunConfig

#: Default scheme set of a sweep (Table 1 order, unified first so the
#: relative-performance column always has its baseline).
SWEEP_SCHEMES = ("unified", "gdp", "profilemax", "naive")

#: Placeholder used when deterministic serialisation scrubs a field whose
#: value depends on execution order or wall clocks (cache locality, jobs).
_SCRUBBED = "-"


# ---------------------------------------------------------------------------
# The one cache-aware path: prepare, then run a scheme under the ladder
# ---------------------------------------------------------------------------


def load_or_prepare(
    source: str,
    name: str,
    config: RunConfig,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[Any, Optional[str], str]:
    """(prepared, ir_hash, cache status) for one benchmark program.

    On a hit the prepared program is rehydrated from its artifact (no
    interpretation, no points-to solve); on a miss it is built and the
    artifact stored.  With caching off the hash is skipped too.
    """
    from ..pipeline.prepared import PreparedProgram

    cache = cache or ArtifactCache(config.cache_dir, config.cache)
    if not config.cache_enabled:
        prepared = PreparedProgram.from_source(source, name, config=config)
        return prepared, None, "off"
    material = _prepared_material(source, name, config)
    payload = cache.load("prepared", material)
    if payload is not None:
        return prepared_from_payload(payload), payload["ir_hash"], "hit"
    prepared = PreparedProgram.from_source(source, name, config=config)
    payload = prepared_to_payload(prepared)
    cache.store("prepared", material, payload)
    return prepared, payload["ir_hash"], "miss"


def _prepared_material(source: str, name: str, config: RunConfig):
    return prepared_key_material(
        source, name, config.pointsto_tier, profile=config.profile
    )


def _outcome_material(ir_hash: str, machine, config: RunConfig, scheme: str):
    return outcome_key_material(
        ir_hash, machine, config.pointsto_tier, scheme, config.seed
    )


def _served_outcome(payload: Dict[str, Any], scheme: str, report):
    """Record a cached outcome's story in ``report``: the cell ran as
    ``payload["ran_as"]`` without a single attempt."""
    ran_as = payload["ran_as"]
    report.record_cache("outcome", "hit")
    report.record_run(scheme, [scheme])
    report.record_final(scheme, ran_as, "ok")
    if payload["roofline"] is not None:
        report.record_roofline(ran_as, payload["roofline"])
    return ran_as


def run_prepared_scheme(
    prepared,
    machine,
    config: RunConfig,
    scheme: str,
    cache: Optional[ArtifactCache] = None,
    ir_hash: Optional[str] = None,
    ladder=None,
):
    """One scheme over a prepared program: the only scheme runner.

    A cacheable config is answered from the outcome artifact when one
    exists; otherwise the scheme runs under the resilience ladder
    (:meth:`ResilientPipeline.run`) and the outcome is stored together
    with the rung it ran as.  Either way the result is a
    :class:`~repro.resilience.ResilientOutcome` carrying that rung,
    ``fell_back`` and the run report.  ``ladder`` is the
    :class:`~repro.resilience.ResilientPipeline` whose budget, fault plan
    and report the run shares (a fresh one from ``config`` by default).

    Returns ``(outcome, cache status)``, the status one of ``hit`` /
    ``miss`` / ``skip`` (cache on, result not cacheable) / ``off``.
    Raises :class:`~repro.resilience.LadderExhausted` when every rung
    failed.
    """
    from ..resilience import ResilientOutcome, ResilientPipeline

    ladder = ladder or ResilientPipeline(config, machine)
    material = None
    if config.cacheable_results:
        cache = cache or ArtifactCache(config.cache_dir, config.cache)
        material = _outcome_material(
            ir_hash or prepared.fingerprint(), machine, config, scheme
        )
        payload = cache.load("outcome", material)
        if payload is not None:
            ran_as = _served_outcome(payload, scheme, ladder.report)
            outcome = outcome_from_payload(payload, machine)
            return ResilientOutcome(outcome, ran_as, scheme, ladder.report), "hit"
    result = ladder.run(prepared, scheme)
    if material is not None:
        payload = outcome_to_payload(result.outcome)
        payload["ran_as"] = result.scheme
        cache.store("outcome", material, payload)
        ladder.report.record_cache("outcome", "miss")
        status = "miss"
    else:
        status = "skip" if config.cache_enabled else "off"
    if result.roofline is not None:
        ladder.report.record_roofline(result.scheme, result.roofline)
    return result, status


def _warm_probe(
    source: str, name: str, config: RunConfig, cache: ArtifactCache
) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """(prepared payload, outcome payload) already on disk for one cell.

    Loads the prepared artifact, and — when results are cacheable — the
    outcome artifact keyed by the prepared one's IR hash.  Either is
    None when absent; nothing is computed, nothing is stored.
    """
    if not config.cache_enabled:
        return None, None
    prepared = cache.load("prepared", _prepared_material(source, name, config))
    if prepared is None or not config.cacheable_results:
        return prepared, None
    return prepared, cache.load(
        "outcome",
        _outcome_material(
            prepared["ir_hash"], config.build_machine(), config, config.scheme
        ),
    )


def lookup_cached_outcome(
    source: str,
    name: str,
    config: RunConfig,
    cache: Optional[ArtifactCache] = None,
) -> Optional[Dict[str, Any]]:
    """Job-keyed cache probe: the outcome payload for one (source,
    config) cell if *both* its artifacts are already on disk, else None.

    This is the admission-control fast path the job server uses to tag a
    submission as warm before it ever reaches a worker — nothing is
    computed, nothing is stored.  Callers that must not skew a shared
    instance's hit/miss telemetry should pass their own (e.g. readonly)
    handle.
    """
    if not config.cacheable_results:
        return None
    cache = cache or ArtifactCache(config.cache_dir, "readonly")
    return _warm_probe(source, name, config, cache)[1]


# ---------------------------------------------------------------------------
# The pool worker
# ---------------------------------------------------------------------------


def _bench_source(name: str, source: Optional[str]) -> Tuple[str, str]:
    if source is not None:
        return name, source
    from ..bench import get as get_benchmark

    bench = get_benchmark(name)
    return bench.name, bench.source


def run_cell(
    payload: Dict[str, Any], cache: Optional[ArtifactCache] = None
) -> Dict[str, Any]:
    """Execute one sweep cell; never raises (a failed cell reports itself).

    The payload is plain JSON (picklable across the pool): the cell's
    RunConfig dict plus ``bench`` and optionally ``source`` for programs
    not in the registry.  In-process callers (the job server's threaded
    workers) may pass a shared ``cache`` handle so hit/miss telemetry
    accumulates in one place; pool workers leave it None and build their
    own.
    """
    from ..resilience import LadderExhausted, ResilientPipeline
    from ..resilience.report import RunReport

    config = RunConfig.from_dict(payload["config"])
    cache = cache or ArtifactCache(config.cache_dir, config.cache)
    started = time.perf_counter()
    cell: Dict[str, Any] = {
        "bench": payload["bench"],
        "scheme": config.scheme,
        "latency": config.latency,
        "pointsto_tier": config.pointsto_tier,
        "seed": config.seed,
        "machine": config.machine,
    }
    report = RunReport()
    cache_events = {"prepared": "off", "outcome": "off"}
    try:
        name, source = _bench_source(payload["bench"], payload.get("source"))

        # Fast path: the outcome artifact alone answers the cell.  The
        # ir_hash needed for its key lives in the prepared artifact, so a
        # fully warm cell never even compiles.
        prep_payload, out_payload = _warm_probe(source, name, config, cache)
        if out_payload is not None:
            cache_events.update(prepared="hit", outcome="hit")
            report.record_cache("prepared", "hit")
            ran_as = _served_outcome(out_payload, config.scheme, report)
            roofline = out_payload["roofline"]
            cell.update(
                status="degraded" if ran_as != config.scheme else "ok",
                ran_as=ran_as,
                cycles=out_payload["eval"]["cycles"],
                dynamic_moves=out_payload["eval"]["dynamic_moves"],
                roofline_ratio=(roofline or {}).get("ratio"),
                error=None,
            )
            return _finish_cell(cell, cache_events, report, started)

        # Slow path: materialise the prepared program (rehydrated on a
        # prepared hit, computed and stored on a miss) and run the scheme
        # on the one cache-aware ladder runner.
        if prep_payload is not None:
            prepared = prepared_from_payload(prep_payload)
            ir_hash, status = prep_payload["ir_hash"], "hit"
        else:
            prepared, ir_hash, status = load_or_prepare(
                source, name, config, cache
            )
        machine = config.build_machine()
        ladder = ResilientPipeline(config, machine)
        report = ladder.report
        cache_events["prepared"] = status
        if status != "off":
            report.record_cache("prepared", status)
        try:
            result, cache_events["outcome"] = run_prepared_scheme(
                prepared, machine, config, config.scheme, cache, ir_hash,
                ladder,
            )
        except LadderExhausted as exc:
            cell.update(
                status="failed", ran_as=None, cycles=None,
                dynamic_moves=None, roofline_ratio=None, error=str(exc),
            )
            return _finish_cell(cell, cache_events, report, started)
        roofline = result.roofline
        cell.update(
            status="degraded" if result.fell_back else "ok",
            ran_as=result.scheme,
            cycles=result.cycles,
            dynamic_moves=result.dynamic_moves,
            roofline_ratio=(roofline or {}).get("ratio"),
            error=None,
        )
        return _finish_cell(cell, cache_events, report, started)
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the sweep
        cell.update(
            status="failed", ran_as=None, cycles=None, dynamic_moves=None,
            roofline_ratio=None, error=f"{type(exc).__name__}: {exc}",
        )
        return _finish_cell(cell, cache_events, report, started)


def _finish_cell(cell, cache_events, report, started) -> Dict[str, Any]:
    cell["cache"] = dict(cache_events)
    cell["seconds"] = time.perf_counter() - started
    cell["report"] = report.to_dict()
    cell["report_deterministic"] = report.to_dict(deterministic=True)
    return cell


# ---------------------------------------------------------------------------
# Sweep-level result
# ---------------------------------------------------------------------------


def _cell_sort_key(cell: Dict[str, Any]) -> Tuple:
    return (
        cell["bench"], cell["scheme"], cell["latency"],
        cell["pointsto_tier"], cell["seed"],
    )


class SweepResult:
    """Merged result of one sweep: ordered cells + aggregate telemetry.

    ``to_dict(deterministic=True)`` strips everything execution-order or
    wall-clock dependent (seconds, jobs, cache locality), leaving only
    the seed-determined results — the form the ``--jobs 1`` vs
    ``--jobs 4`` byte-identity tests pin.
    """

    def __init__(
        self,
        cells: List[Dict[str, Any]],
        wall_seconds: float,
        jobs: int,
        config: RunConfig,
    ):
        self.cells = sorted(cells, key=_cell_sort_key)
        self.wall_seconds = wall_seconds
        self.jobs = jobs
        self.config = config

    # -- aggregates ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "degraded": 0, "failed": 0}
        for cell in self.cells:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        return counts

    def cell_seconds(self) -> float:
        """Sum of per-cell wall clocks — the serial-equivalent cost."""
        return sum(cell["seconds"] for cell in self.cells)

    def speedup(self) -> float:
        """Serial-equivalent seconds / sweep wall seconds."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cell_seconds() / self.wall_seconds

    def cache_counts(self) -> Dict[str, Dict[str, int]]:
        totals: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            for kind, status in cell["cache"].items():
                slot = totals.setdefault(kind, {})
                slot[status] = slot.get(status, 0) + 1
        return totals

    def cache_hit_ratio(self, kind: str = "outcome") -> float:
        """Hits / (hits + misses) for one artifact kind over the sweep
        (cells that never consulted the cache are excluded)."""
        counts = self.cache_counts().get(kind, {})
        hits = counts.get("hit", 0)
        misses = counts.get("miss", 0)
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def summary(self) -> Dict[str, Any]:
        reports = [cell["report"]["summary"] for cell in self.cells]
        return {
            "cells": len(self.cells),
            **self.counts(),
            "attempts": sum(r["attempts"] for r in reports),
            "faults": sum(r["faults"] for r in reports),
            "fallbacks": sum(r["fallbacks"] for r in reports),
        }

    # -- serialisation ---------------------------------------------------------

    def to_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        if deterministic:
            cells = []
            for cell in self.cells:
                copy = {
                    k: v for k, v in cell.items()
                    if k not in ("seconds", "report", "report_deterministic")
                }
                copy["cache"] = {k: _SCRUBBED for k in cell["cache"]}
                copy["report"] = cell["report_deterministic"]
                cells.append(copy)
            config = self.config.replace(jobs=None, cache="off",
                                         cache_dir=None)
            return {
                "schema_version": SCHEMA_VERSION,
                "config": config.to_dict(),
                "cells": cells,
                "summary": self.summary(),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds(),
            "speedup": self.speedup(),
            "cache": self.cache_counts(),
            "cells": self.cells,
            "summary": self.summary(),
        }

    def to_json(self, deterministic: bool = False, indent: int = 2) -> str:
        import json

        return json.dumps(
            self.to_dict(deterministic), indent=indent, sort_keys=True
        )

    def save(self, path: str, deterministic: bool = False) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json(deterministic))
            handle.write("\n")

    def render_table(self) -> str:
        """Human-readable sweep table with cache-hit and speedup columns."""
        from ..evalmodel import format_table

        baselines: Dict[Tuple, float] = {}
        for cell in self.cells:
            if cell["scheme"] == "unified" and cell["cycles"]:
                baselines[
                    (cell["bench"], cell["latency"], cell["pointsto_tier"])
                ] = cell["cycles"]
        rows = []
        for cell in self.cells:
            base = baselines.get(
                (cell["bench"], cell["latency"], cell["pointsto_tier"])
            )
            rel = (
                f"{base / cell['cycles']:.3f}"
                if base and cell["cycles"] else "-"
            )
            ratio = cell.get("roofline_ratio")
            rows.append([
                cell["bench"],
                cell["scheme"],
                cell["ran_as"] if cell["ran_as"] != cell["scheme"] else "",
                f"{cell['cycles']:.0f}" if cell["cycles"] else "-",
                rel,
                f"{ratio:.2f}" if ratio else "-",
                cell["status"],
                cell["cache"]["outcome"],
                f"{cell['seconds']:.2f}",
            ])
        table = format_table(
            ["benchmark", "scheme", "ran as", "cycles", "vs unified",
             "x-roofline", "status", "cache", "secs"],
            rows,
        )
        counts = self.cache_counts().get("outcome", {})
        footer = (
            f"{len(self.cells)} cell(s) in {self.wall_seconds:.2f}s wall "
            f"({self.cell_seconds():.2f}s serial-equivalent, "
            f"{self.speedup():.2f}x speedup, {self.jobs} job(s)); "
            f"outcome cache: {counts.get('hit', 0)} hit(s), "
            f"{counts.get('miss', 0)} miss(es)"
        )
        return f"{table}\n\n{footer}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.counts()
        return (
            f"<sweep {len(self.cells)} cells: {counts['ok']} ok, "
            f"{counts['degraded']} degraded, {counts['failed']} failed, "
            f"{self.wall_seconds:.2f}s>"
        )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class ParallelRunner:
    """Fans benchmark x scheme x latency x tier cells over a process pool.

    Example
    -------
    >>> from repro.exec import ParallelRunner, RunConfig
    >>> runner = ParallelRunner(RunConfig(jobs=4))
    >>> result = runner.sweep(benches=["rawcaudio"], schemes=["gdp"])
    """

    def __init__(self, config: Optional[RunConfig] = None):
        self.config = config or RunConfig()

    def cells(
        self,
        benches: Sequence[str],
        schemes: Iterable[str] = SWEEP_SCHEMES,
        latencies: Optional[Iterable[int]] = None,
        tiers: Optional[Iterable[str]] = None,
        sources: Optional[Dict[str, str]] = None,
    ) -> List[Dict[str, Any]]:
        """The cell payload list for a sweep (deduplicated, stable order)."""
        latencies = (
            [self.config.latency] if latencies is None else list(latencies)
        )
        tiers = (
            [self.config.pointsto_tier] if tiers is None else list(tiers)
        )
        payloads = []
        for bench in dict.fromkeys(benches):
            for tier in dict.fromkeys(tiers):
                for latency in dict.fromkeys(latencies):
                    for scheme in dict.fromkeys(schemes):
                        cfg = self.config.replace(
                            scheme=scheme, latency=latency,
                            pointsto_tier=tier,
                        )
                        payloads.append({
                            "bench": bench,
                            "source": (sources or {}).get(bench),
                            "config": cfg.to_dict(),
                        })
        return payloads

    def sweep(
        self,
        benches: Sequence[str],
        schemes: Iterable[str] = SWEEP_SCHEMES,
        latencies: Optional[Iterable[int]] = None,
        tiers: Optional[Iterable[str]] = None,
        sources: Optional[Dict[str, str]] = None,
        jobs: Optional[int] = None,
    ) -> SweepResult:
        """Run the whole sweep; one failing cell degrades, never kills.

        ``jobs=1`` runs every cell inline in this process (the serial
        baseline the determinism tests compare against); ``jobs>1`` uses
        a :class:`ProcessPoolExecutor` with that many workers.
        """
        payloads = self.cells(benches, schemes, latencies, tiers, sources)
        jobs = self.config.effective_jobs if jobs is None else jobs
        started = time.perf_counter()
        if jobs <= 1 or len(payloads) <= 1:
            results = [run_cell(payload) for payload in payloads]
            jobs = 1
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_cell, payloads))
        wall = time.perf_counter() - started
        return SweepResult(results, wall, jobs, self.config)
