"""In-memory span tracer and the layer instrumentation of the traced run.

Spans are recorded from outside the program: :func:`instrument` wraps
each layer's public function at the name its caller looks up (e.g.
``repro.pipeline.prepared.compile_source``) and restores every original
on exit.  A span has a name, start, end, parent and trace id; the spans
of one cell, prepare or job share the trace id.  Hot loops are counted,
not spanned: the schedule estimator adds its call count and seconds to
:attr:`Tracer.totals`.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from stats import median, union_length


class Span:
    __slots__ = ("id", "name", "trace", "parent", "start", "end", "counters")

    def __init__(self, span_id: int, name: str, trace: Any, parent: Optional["Span"],
                 start: float):
        self.id = span_id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        self.counters: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "trace": self.trace,
            "parent": self.parent.id if self.parent else None,
            "start": self.start, "end": self.end, "counters": self.counters,
        }


class Tracer:
    """Thread-aware span recorder; each thread keeps its own open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Process-wide counters of hot loops too frequent to span.
        self.totals: Dict[str, float] = collections.defaultdict(float)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_trace(self, trace: Any) -> None:
        """Trace id given to root spans opened on this thread from now on."""
        self._local.trace = trace

    def open(self, name: str, trace: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent else getattr(self._local, "trace", None)
        with self._lock:
            span = Span(next(self._ids), name, trace, parent, self.clock())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, trace: Any = None) -> Iterator[Span]:
        span = self.open(name, trace)
        try:
            yield span
        finally:
            self.close(span)

    # -- analysis --------------------------------------------------------------

    def resolved_trace(self, span: Span) -> Any:
        """A span's trace id, inherited from the nearest ancestor that has one
        (a root may learn its id only when it closes, e.g. a job submit)."""
        while span is not None and span.trace is None:
            span = span.parent
        return span.trace if span is not None else None

    def self_times(self, spans: Optional[List[Span]] = None) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        spans = self.spans if spans is None else spans
        children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent.id, []).append(span)
        return {
            span.id: span.duration - union_length(
                span.start, span.end,
                [(c.start, c.end) for c in children.get(span.id, [])],
            )
            for span in spans
        }

    def self_seconds_by_name(self, spans: Optional[List[Span]] = None) -> Dict[str, float]:
        spans = self.spans if spans is None else spans
        own = self.self_times(spans)
        totals: Dict[str, float] = {}
        for span in spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_counter(self, key: str) -> float:
        return sum(s.counters.get(key, 0) for s in self.spans)

    def median_ms(self, name: str) -> float:
        return 1000.0 * median([s.duration for s in self.named(name)])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [dict(s.to_dict(), trace=self.resolved_trace(s)) for s in self.spans],
                handle,
            )


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn: Callable,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``before(args)`` runs outside it and its value
    is handed to ``after(span, args, result, before_value)``."""

    def wrapper(*args, **kwargs):
        pre = before(args) if before else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, result, pre)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, on_module: Optional[Callable] = None) -> Iterator[Tracer]:
    """Wrap every layer's public entry point for the duration of the block.

    ``on_module(trace, module)`` receives each partitioned module as it is
    evaluated, so the caller can re-execute it once the cell's spans close.
    """
    import repro.analysis.dataflow.staticprofile as staticprofile
    import repro.evalmodel.roofline as roofline
    import repro.exec.engine as engine
    import repro.opt as opt
    import repro.pipeline.prepared as prepared
    import repro.pipeline.schemes as schemes
    import repro.service.broker as broker
    from repro.exec.cache import ArtifactCache
    from repro.partition.estimator import ScheduleEstimator
    from repro.partition.rhop import RHOP
    from repro.resilience import ResilientPipeline
    from repro.service.journal import Journal
    from repro.service.queue import FairQueue

    def set_counter(key, value_of):
        def after(span, args, result, pre):
            span.counters[key] = value_of(args, result, pre)
        return after

    base_interpreter = prepared.Interpreter

    class TracedInterpreter(base_interpreter):
        def run(self, *args, **kwargs):
            with tracer.span("profiler.interp") as span:
                result = super().run(*args, **kwargs)
            span.counters["steps"] = self.profile.instructions_executed
            return result

    estimate = ScheduleEstimator.estimate
    totals = tracer.totals
    clock = tracer.clock

    def counted_estimate(self, *args, **kwargs):
        started = clock()
        try:
            return estimate(self, *args, **kwargs)
        finally:
            totals["estimate_s"] += clock() - started
            totals["estimate_calls"] += 1

    def evaluated(span, args, result, pre):
        if on_module is not None:
            on_module(tracer.resolved_trace(span), args[0])

    def submitted(span, args, result, pre):
        job, created = result
        span.trace = job.id
        span.counters["created"] = int(created)

    def cache_loaded(span, args, result, pre):
        span.counters["hit"] = int(result is not None)

    pop = FairQueue.pop
    task_done = FairQueue.task_done
    worker_span = threading.local()

    def traced_pop(self, *args, **kwargs):
        job = pop(self, *args, **kwargs)
        if job is not None:
            tracer.set_thread_trace(job.id)
            worker_span.span = tracer.open("service.worker")
        return job

    def traced_task_done(self, job):
        try:
            return task_done(self, job)
        finally:
            span = getattr(worker_span, "span", None)
            if span is not None:
                tracer.close(span)
                worker_span.span = None
            tracer.set_thread_trace(None)

    patches = [
        (prepared, "compile_source", _spanned(
            tracer, "lang.compile", prepared.compile_source,
            after=set_counter("ir_ops", lambda a, r, p: r.op_count()))),
        (opt, "optimize_module", _spanned(
            tracer, "opt.optimize", opt.optimize_module,
            before=lambda a: a[0].op_count(),
            after=set_counter("ir_ops_removed", lambda a, r, p: p - a[0].op_count()))),
        (prepared, "Interpreter", TracedInterpreter),
        (prepared, "annotate_memory_ops", _spanned(
            tracer, "analysis.pointsto", prepared.annotate_memory_ops)),
        (staticprofile, "build_static_profile", _spanned(
            tracer, "analysis.static_profile", staticprofile.build_static_profile)),
        (prepared, "ProgramGraph", _spanned(
            tracer, "analysis.graph", prepared.ProgramGraph)),
        (prepared, "access_pattern_merge", _spanned(
            tracer, "partition.merge", prepared.access_pattern_merge)),
        (schemes, "gdp_partition", _spanned(
            tracer, "partition.gdp", schemes.gdp_partition)),
        (RHOP, "partition_module", _spanned(
            tracer, "partition.rhop", RHOP.partition_module)),
        (ScheduleEstimator, "estimate", counted_estimate),
        (schemes, "insert_intercluster_moves", _spanned(
            tracer, "partition.moves", schemes.insert_intercluster_moves)),
        (schemes, "evaluate_module", _spanned(
            tracer, "evalmodel.evaluate", schemes.evaluate_module, after=evaluated)),
        (roofline, "roofline_for", _spanned(
            tracer, "evalmodel.roofline", roofline.roofline_for)),
        (ResilientPipeline, "run", _spanned(
            tracer, "resilience.ladder", ResilientPipeline.run)),
        (engine, "load_or_prepare", _spanned(
            tracer, "exec.load_or_prepare", engine.load_or_prepare)),
        (engine, "run_cell", _spanned(tracer, "exec.run_cell", engine.run_cell)),
        (broker, "run_cell", _spanned(tracer, "exec.run_cell", broker.run_cell)),
        (ArtifactCache, "load", _spanned(
            tracer, "exec.cache_load", ArtifactCache.load, after=cache_loaded)),
        (ArtifactCache, "store", _spanned(
            tracer, "exec.cache_store", ArtifactCache.store)),
        (broker.Broker, "submit", _spanned(
            tracer, "service.submit", broker.Broker.submit, after=submitted)),
        (Journal, "append", _spanned(
            tracer, "service.journal_append", Journal.append)),
        (FairQueue, "pop", traced_pop),
        (FairQueue, "task_done", traced_task_done),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: per-layer metric -> span whose summed self time it reports.
SELF_SECONDS = {
    "lang.compile_s": "lang.compile",
    "opt.optimize_s": "opt.optimize",
    "profiler.interp_s": "profiler.interp",
    "analysis.pointsto_s": "analysis.pointsto",
    "analysis.static_profile_s": "analysis.static_profile",
    "analysis.graph_s": "analysis.graph",
    "partition.merge_s": "partition.merge",
    "partition.gdp_s": "partition.gdp",
    "partition.rhop_s": "partition.rhop",
    "partition.moves_s": "partition.moves",
    "evalmodel.evaluate_s": "evalmodel.evaluate",
    "evalmodel.roofline_s": "evalmodel.roofline",
    "exec.cache_load_s": "exec.cache_load",
    "exec.cache_store_s": "exec.cache_store",
    "exec.cell_self_s": "exec.run_cell",
    "exec.prepare_self_s": "exec.load_or_prepare",
    "service.worker_self_s": "service.worker",
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every span-derived per-layer metric (0 for a layer that never ran)."""
    own = tracer.self_seconds_by_name()
    metrics = {key: own.get(name, 0.0) for key, name in SELF_SECONDS.items()}
    steps = tracer.total_counter("steps")
    loads = tracer.named("exec.cache_load")
    metrics.update({
        "lang.ir_ops": tracer.total_counter("ir_ops"),
        "opt.ir_ops_removed": tracer.total_counter("ir_ops_removed"),
        "profiler.steps": steps,
        "profiler.steps_per_s": (
            steps / metrics["profiler.interp_s"] if metrics["profiler.interp_s"] else 0.0
        ),
        "partition.rhop_runs": len(tracer.named("partition.rhop")),
        "partition.estimate_calls": tracer.totals["estimate_calls"],
        "partition.estimate_s": tracer.totals["estimate_s"],
        "exec.cache_loads": len(loads),
        "exec.cache_stores": len(tracer.named("exec.cache_store")),
        "exec.cache_hit_ratio": (
            sum(s.counters.get("hit", 0) for s in loads) / len(loads) if loads else 0.0
        ),
        "service.submit_ms": tracer.median_ms("service.submit"),
        "service.journal_appends": len(tracer.named("service.journal_append")),
        "service.journal_append_ms": tracer.median_ms("service.journal_append"),
    })
    return metrics
