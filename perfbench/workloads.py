"""The benchmark's workloads: ``cold-sweep``, ``prepare-matrix``, ``service-mix``.

Each workload drives the system only through its public entry points
(``repro.exec.engine.run_cell`` / ``load_or_prepare`` and
``repro.service.ServiceServer`` / ``ServiceClient``), checks every output
it gets back, and returns an :class:`Outcome`.  Without tracing it
reports the end-to-end metrics.  With tracing it does the same work both
untraced and traced (for ``trace.overhead_share`` and the
untraced-vs-traced result check) and reports the per-layer metrics of
the traced work.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
from speed import WINDOW, Speed
from stats import geomean, median, tail
from tracer import Tracer, instrument, layer_metrics

#: Fixed latency limits of ``ops_in_limit_share``, one per workload.
CELL_LIMIT_S = 10.0
PREPARE_LIMIT_S = 5.0
JOB_LIMIT_MS = 1000.0
#: Fresh-process boots timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Speed probes after each ``service-mix`` segment, taken while the
#: server is idle, right after the segment's cold job; the middle one's
#: ``speed.WINDOW`` covers them all.
PAUSE_PROBES = 2 * WINDOW + 1
#: Over 43 ``service-mix`` runs whose speed factor ranged 0.65-1.37, the
#: raw median warm-job latency went as the factor to the power -0.46
#: (correlation 0.79).  Scaled by the whole factor, batches of runs taken
#: in a fast and a slow spell differed by 46% in their median; raw, by
#: 33%; scaled by its square root, by 19%.
WARM_SPEED_EXPONENT = 0.5
#: The ``service-mix`` generator sleeps until this long before a
#: submission is due and spins for the rest.  Woken from a sleep, it left
#: its CPU idle between jobs, and on a loaded host the handoffs of the
#: next job waited for idle CPUs to wake: in four alternating pairs of
#: runs spinning cut the median warm latency by 0-17%, and the gap grew
#: with the host's load.  The server is idle then, so the spin takes the
#: interpreter lock from no one.
SPIN_S = 0.002

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_ops: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def fail(self, message: str) -> None:
        self.problems.append(message)


def expected_outputs() -> Dict[str, List[int]]:
    """Reference ``print_int`` output of every registry bench (see README)."""
    with open(os.path.join(HERE, "expected_outputs.json")) as handle:
        return json.load(handle)


def check_output(label: str, got: List[Any], want: List[Any], out: Outcome) -> bool:
    if list(got) == list(want):
        return True
    out.fail(f"{label}: printed {list(got)[:8]}, expected {list(want)[:8]}")
    return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up: the time a fresh process needs to get the system ready
# ---------------------------------------------------------------------------

#: Every layer a cell touches, including the ones imported lazily on the
#: first call; imported before any timing starts.
LAYERS = (
    "repro.exec.engine", "repro.pipeline.prepared", "repro.pipeline.schemes",
    "repro.resilience", "repro.lint", "repro.opt", "repro.profiler",
    "repro.analysis.dataflow.staticprofile", "repro.evalmodel.roofline",
    "repro.service",
)
_BOOT_COMPILER = (
    f"import {', '.join(LAYERS)}, repro.bench.registry as r; r.names()"
)
_BOOT_SERVICE = (
    f"import sys, {', '.join(LAYERS)}, repro.bench.registry as r; r.names()\n"
    "from repro.exec import RunConfig\n"
    "from repro.service import Broker, ServiceClient, ServiceServer\n"
    "server = ServiceServer(broker=Broker(config=RunConfig(cache_dir=sys.argv[1]),"
    " workers=2, journal_dir=sys.argv[1] + '/journal', fsync='always'), port=0).start()\n"
    "ServiceClient(server.url).healthz()\n"
    "server.stop()\n"
)


def boot_seconds(code: str, workdir: str, speed: Speed) -> Tuple[float, float]:
    """Median wall time of ``SETUP_REPEATS`` fresh interpreters running ``code``
    and the speed factor of the probes before and after each (the first
    probes of ``speed``).  Scaled by them, the median spread 10% across
    runs, against 18% with each boot scaled by its own probes and 40% raw.

    Also imports every layer into this process, so no timed operation pays
    for a first import.
    """
    for name in LAYERS:
        importlib.import_module(name)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    speed.probe()
    for attempt in range(SETUP_REPEATS):
        scratch = os.path.join(workdir, f"boot{attempt}")
        started = clock()
        subprocess.run([sys.executable, "-c", code, scratch], env=env, check=True,
                       timeout=120)
        times.append(clock() - started)
        shutil.rmtree(scratch, ignore_errors=True)
        speed.probe()
    return median(times), speed.factor()


def _rounds(seconds: float, ops: List[Tuple], run_op: Callable,
            speed: Speed) -> List[List]:
    """Run rounds of ``ops``, a speed probe after each op, while the next
    round still fits in ``seconds`` (at least one); returns the
    ``(result, seconds, probe index)`` of each op of each round."""
    rounds: List[List] = []
    started = clock()
    while True:
        done = []
        for op in ops:
            result, elapsed = run_op(*op)
            done.append((result, elapsed, speed.probe()))
        rounds.append(done)
        if clock() - started + sum(s for _, s, _ in done) > seconds:
            return rounds


def _paired(ops: List[Tuple], run_op: Callable, tracer: Tracer,
            trace_of: Callable[[int, Tuple], str], check: Callable,
            on_module: Optional[Callable] = None) -> float:
    """Run every op untraced and traced, alternating which goes first so
    that drift in machine speed falls on both alike; ``check(index, plain,
    traced)`` compares the two results.  Returns the tracing overhead share."""
    spent = {False: 0.0, True: 0.0}
    for index, op in enumerate(ops):
        results = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.set_thread_trace(trace_of(index, op))
                with instrument(tracer, on_module):
                    results[traced], seconds = run_op(*op)
            else:
                results[traced], seconds = run_op(*op)
            spent[traced] += seconds
        check(index, results[False], results[True])
    return spent[True] / spent[False] - 1.0


def _timings(out: Outcome, setup_s: float, work_s: float,
             op_seconds: List[float]) -> None:
    """Set the time metrics; all values are in seconds."""
    t = tail(op_seconds)
    out.metrics.update({
        "setup_s": setup_s, "work_s": work_s,
        "op_p50_ms": 1000.0 * median(op_seconds), "op_tail_ms": 1000.0 * t["value"],
    })
    out.detail.update(op_samples=len(op_seconds), op_tail_percentile=t["percentile"])


def _end_to_end(out: Outcome, speed: Speed, setup: Tuple[float, float],
                rounds: List[List], limit_s: float) -> None:
    """Time metrics over the operations at nominal speed (see ``speed``), each
    scaled by the probes around it; one timed in several rounds counts with
    its best time; ``setup`` is what ``boot_seconds`` returned.  The raw sum
    and ``ops_in_limit_share`` use wall time."""
    raw = [min(times) for times in zip(*([s for _, s, _ in r] for r in rounds))]
    best = [min(times) for times in zip(*(
        [s * speed.factor(around=i) for _, s, i in r] for r in rounds))]
    _timings(out, setup[0] * setup[1], sum(best), best)
    out.metrics["ops_in_limit_share"] = sum(1 for s in raw if s <= limit_s) / len(raw)
    out.detail.update(rounds=len(rounds), raw_setup_s=setup[0], raw_work_s=sum(raw),
                      speed_factor=speed.factor())


def _layers(out: Outcome, tracer: Tracer, overhead: float, summaries=()) -> None:
    out.metrics.update(layer_metrics(tracer))
    out.metrics.update({
        "resilience.attempts": sum(s["attempts"] for s in summaries),
        "resilience.fallbacks": sum(s["fallbacks"] for s in summaries),
        "trace.overhead_share": overhead,
    })
    out.detail["self_s"] = tracer.self_seconds_by_name()
    out.tracer = tracer


# ---------------------------------------------------------------------------
# cold-sweep
# ---------------------------------------------------------------------------


def _cell_config(scheme: str, cache_dir: str):
    from repro.exec import RunConfig

    return RunConfig(scheme=scheme, latency=inputs.LATENCY, profile="dynamic",
                     pointsto_tier="andersen", cache="off", cache_dir=cache_dir)


def _run_cell(bench: str, scheme: str, cache_dir: str, out: Outcome):
    import repro.exec.engine as engine

    payload = {"bench": bench, "config": _cell_config(scheme, cache_dir).to_dict()}
    started = clock()
    cell = engine.run_cell(payload)
    elapsed = clock() - started
    out.attempted += 1
    if cell["status"] != "ok" or cell["ran_as"] != scheme or not cell["cycles"]:
        out.failed_ops += 1
        out.fail(f"{bench}/{scheme}: status {cell['status']} ran_as "
                 f"{cell['ran_as']} error {cell['error']}")
    return cell, elapsed


def _cell_key(cell: Dict[str, Any]) -> Tuple:
    return (cell["cycles"], cell["dynamic_moves"], cell["roofline_ratio"])


def _quality(results: Dict[Tuple[str, str], Dict[str, Any]]) -> Dict[str, float]:
    """Partition quality over the benches run under both unified and gdp."""
    ok = sorted(b for b, s in results if s == "gdp" and (b, "unified") in results
                and results[(b, "gdp")]["cycles"] and results[(b, "unified")]["cycles"])
    return {
        "gdp_rel_perf_geomean": geomean(
            results[(b, "unified")]["cycles"] / results[(b, "gdp")]["cycles"] for b in ok),
        "gdp_moves_geomean": geomean(
            max(results[(b, "gdp")]["dynamic_moves"], 1) for b in ok),
        "gdp_roofline_ratio_geomean": geomean(
            results[(b, "gdp")]["roofline_ratio"] for b in ok),
    }


def _rerun_module(label: str, module: Any, want: List[int], out: Outcome) -> bool:
    from repro.profiler import Interpreter

    interp = Interpreter(module)
    interp.run()
    return check_output(label, interp.profile.output, want, out)


def _verify_sample(bench: str, scheme: str, cell: Dict[str, Any], cache_dir: str,
                   expected: Dict[str, List[int]], out: Outcome) -> None:
    """Recompute one cell through the library and re-execute its module."""
    from repro.bench import get
    from repro.exec.engine import load_or_prepare, run_prepared_scheme

    config = _cell_config(scheme, cache_dir)
    prepared, _, _ = load_or_prepare(get(bench).source, bench, config)
    check_output(f"{bench} profile", prepared.profile.output, expected[bench], out)
    outcome, _ = run_prepared_scheme(prepared, config.build_machine(), config, scheme)
    if (outcome.cycles, outcome.dynamic_moves) != (cell["cycles"], cell["dynamic_moves"]):
        out.fail(f"{bench}/{scheme}: run_cell gave {cell['cycles']}/"
                 f"{cell['dynamic_moves']}, the library {outcome.cycles}/"
                 f"{outcome.dynamic_moves}")
    _rerun_module(f"{bench}/{scheme} partitioned", outcome.module, expected[bench], out)


def cold_sweep(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    out = Outcome({})
    speed = Speed()
    setup = boot_seconds(_BOOT_COMPILER, workdir, speed)
    cache_dir = os.path.join(workdir, "cache")
    cells = [(b, s, cache_dir, out) for b, s in inputs.cold_sweep_cells(seed)]
    expected = expected_outputs()
    out.detail.update(cells=len(cells), benches=list(inputs.COLD_BENCHES))

    if not trace:
        rounds = _rounds(seconds, cells, _run_cell, speed)
        first = [_cell_key(cell) for cell, _, _ in rounds[0]]
        if any([_cell_key(cell) for cell, _, _ in r] != first for r in rounds[1:]):
            out.fail("cells differ between rounds of the same run")
        results = {op[:2]: cell for op, (cell, _, _) in zip(cells, rounds[0])}
        bench, scheme = inputs.rng_for("cold-sweep-check", seed).choice(cells)[:2]
        _verify_sample(bench, scheme, results[(bench, scheme)], cache_dir, expected, out)
        _end_to_end(out, speed, setup, rounds, CELL_LIMIT_S)
        out.metrics.update(_quality(results))
        out.detail.update(verified_cell=[bench, scheme], per_cell={
            f"{b}/{s}": list(_cell_key(c)) for (b, s), c in sorted(results.items())
        })
        return out

    tracer = Tracer()
    modules: Dict[Any, Any] = {}
    summaries: List[Dict[str, Any]] = []

    def check(index: int, plain: Dict[str, Any], traced: Dict[str, Any]) -> None:
        bench, scheme = cells[index][:2]
        summaries.append(traced["report"]["summary"])
        if _cell_key(traced) != _cell_key(plain):
            out.fail(f"{bench}/{scheme}: traced cell {_cell_key(traced)} differs from "
                     f"untraced {_cell_key(plain)}")
        module = modules.pop(f"cell{index}", None)
        if module is None:
            out.fail(f"{bench}/{scheme}: no partitioned module was evaluated")
        elif not _rerun_module(f"{bench}/{scheme} partitioned", module,
                               expected[bench], out):
            out.failed_ops += 1

    overhead = _paired(cells, _run_cell, tracer, lambda i, op: f"cell{i}", check,
                       on_module=modules.__setitem__)
    _layers(out, tracer, overhead, summaries)
    return out


# ---------------------------------------------------------------------------
# prepare-matrix
# ---------------------------------------------------------------------------


def _prepare(bench: str, profile: str, tier: str, cache_dir: str,
             expected: Dict[str, List[int]], out: Outcome):
    """One cold prepare; returns (printed output or None on failure, seconds)."""
    import repro.exec.engine as engine
    from repro.bench import get
    from repro.exec import RunConfig

    config = RunConfig(profile=profile, pointsto_tier=tier, cache="off",
                       cache_dir=cache_dir)
    source = get(bench).source
    out.attempted += 1
    started = clock()
    try:
        prepared, _, _ = engine.load_or_prepare(source, bench, config)
    except Exception as exc:  # noqa: BLE001 - a failed prepare is counted
        out.failed_ops += 1
        out.fail(f"{bench}/{profile}/{tier}: {type(exc).__name__}: {exc}")
        return None, clock() - started
    elapsed = clock() - started
    if profile == "dynamic":
        ok = check_output(f"{bench}/{tier} profile", prepared.profile.output,
                          expected[bench], out)
    else:
        ok = prepared.profile.is_static() and not prepared.profile.output
        if not ok:
            out.fail(f"{bench}/{tier}: the static prepare ran the interpreter")
    out.failed_ops += not ok
    return list(prepared.profile.output), elapsed


def prepare_matrix(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    from repro.bench import names

    out = Outcome({})
    speed = Speed()
    setup = boot_seconds(_BOOT_COMPILER, workdir, speed)
    cache_dir = os.path.join(workdir, "cache")
    expected = expected_outputs()
    ops = [(b, p, t, cache_dir, expected, out)
           for b, p, t in inputs.prepare_matrix_cells(names(), seed)]
    out.detail["prepares"] = len(ops)

    if not trace:
        _end_to_end(out, speed, setup, _rounds(seconds, ops, _prepare, speed),
                    PREPARE_LIMIT_S)
        out.metrics.update(_quality({}))
        return out

    tracer = Tracer()

    def check(index: int, plain: Any, traced: Any) -> None:
        if plain != traced:
            out.fail(f"{'/'.join(ops[index][:3])}: traced prepare printed "
                     f"{traced}, untraced {plain}")

    overhead = _paired(ops, _prepare, tracer, lambda i, op: f"prep{i}:{op[1]}", check)
    _layers(out, tracer, overhead)
    out.detail["self_s_by_profile"] = {
        profile: tracer.self_seconds_by_name(
            [s for s in tracer.spans if str(tracer.resolved_trace(s)).endswith(profile)])
        for profile in inputs.PROFILES
    }
    return out


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def _warm_up(mix: inputs.ServiceMix, cache_dir: str, out: Outcome,
             speed: Speed) -> Tuple[Dict, float]:
    """Run the drawn warm cells cold into ``cache_dir``, a speed probe after
    each.  Returns the cells, which every warm job must reproduce, and the
    seconds they took."""
    from repro.exec import RunConfig
    from repro.exec.engine import run_cell

    warm: Dict[Tuple[str, str], Dict[str, Any]] = {}
    seconds = 0.0
    for bench, scheme in mix.warm_cells:
        config = RunConfig(scheme=scheme, latency=inputs.LATENCY, cache="on",
                           cache_dir=cache_dir)
        started = clock()
        cell = run_cell({"bench": bench, "config": config.to_dict()})
        seconds += clock() - started
        if cell["status"] != "ok":
            out.fail(f"warm-up {bench}/{scheme}: {cell['status']} {cell['error']}")
        warm[(bench, scheme)] = cell
        speed.probe()
    return warm, seconds


def _artifacts(cache_dir: str, name: str, source: str, scheme: str):
    """(prepared payload, outcome payload) a job left in the artifact cache."""
    from repro.exec import RunConfig
    from repro.exec.artifacts import outcome_key_material, prepared_key_material
    from repro.exec.cache import ArtifactCache

    config = RunConfig(scheme=scheme, latency=inputs.LATENCY)
    store = ArtifactCache(cache_dir, "readonly")
    prepared = store.load("prepared", prepared_key_material(
        source, name, config.pointsto_tier, profile=config.profile))
    if prepared is None:
        return None, None
    outcome = store.load("outcome", outcome_key_material(
        prepared["ir_hash"], config.build_machine(), config.pointsto_tier, scheme,
        config.seed))
    return prepared, outcome


def _check_artifacts(label: str, cache_dir: str, name: str, source: str, scheme: str,
                     want: List[int], rerun: bool, out: Outcome) -> bool:
    """The stored profile must print ``want``; with ``rerun`` the stored
    partitioned module must print it too when re-executed."""
    from repro.ir.serialize import loads

    prepared, outcome = _artifacts(cache_dir, name, source, scheme)
    if prepared is None or outcome is None:
        out.fail(f"{label}: artifacts missing from the cache")
        return False
    ok = check_output(f"{label} profile", prepared["profile"]["output"], want, out)
    if rerun:
        ok = _rerun_module(f"{label} partitioned", loads(outcome["module_text"]),
                           want, out) and ok
    return ok


def _service_pass(mix: inputs.ServiceMix, warm_dir: str, passdir: str,
                  warm: Dict, out: Outcome, speed: Optional[Speed] = None) -> Dict:
    """Offer the schedule open-loop to a fresh server and check every job.

    The schedule is offered in segments of ``inputs.SEGMENT_JOBS``
    submissions.  After each the generator waits until the segment's jobs
    are terminal and, given ``speed``, takes ``PAUSE_PROBES`` probes while
    the server is idle.  The record of a segment's cold job keeps the index
    of the middle one; the others keep None.
    """
    from repro.exec import RunConfig
    from repro.service import Broker, ServiceClient, ServiceError, ServiceServer

    cache_dir = os.path.join(passdir, "cache")
    shutil.copytree(warm_dir, cache_dir)
    server = ServiceServer(
        broker=Broker(config=RunConfig(cache_dir=cache_dir, jobs=1), workers=2,
                      journal_dir=os.path.join(passdir, "journal"), fsync="always"),
        port=0,
    ).start()
    # No retry budget: a 429 is a refusal, counted as a miss, not retried.
    client = ServiceClient(server.url, timeout=60.0, retry_budget=0.0)
    records: List[Dict[str, Any]] = []
    jobs = {}
    segments = []
    try:
        for first in range(0, len(mix.submissions), inputs.SEGMENT_JOBS):
            segment = mix.submissions[first:first + inputs.SEGMENT_JOBS]
            start = clock() + 0.05 - segment[0].due_s
            for sub in segment:
                due = start + sub.due_s
                wait = due - clock() - SPIN_S
                if wait > 0:
                    time.sleep(wait)
                while clock() < due:
                    pass
                record = {"sub": sub, "due": due, "sent": clock(), "job": None,
                          "coalesced": False, "error": None, "probe": None}
                try:
                    reply = client.submit(**sub.request())
                    record["job"] = reply["id"]
                    record["coalesced"] = reply["coalesced_onto"]
                except (ServiceError, OSError) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                records.append(record)
            deadline = clock() + 120.0
            for jid in sorted({r["job"] for r in records[first:] if r["job"]} - set(jobs)):
                job = server.broker.get(jid)
                job.wait(timeout=max(0.1, deadline - clock()))
                jobs[jid] = job
            ends = [jobs[r["job"]].finished_at for r in records[first:] if r["job"]]
            segments.append(max((e for e in ends if e is not None), default=clock())
                            - records[first]["due"])
            if speed is not None:
                middle = speed.probe(PAUSE_PROBES) - WINDOW
                for record in records[first:]:
                    if record["sub"].cold:
                        record["probe"] = middle
    finally:
        server.stop()

    latencies, probes, in_limit = [], [], 0
    for record in records:
        sub = record["sub"]
        job = jobs.get(record["job"])
        ok = job is not None and job.state == "done"
        if record["error"]:
            out.fail(f"submission {sub.index} refused: {record['error']}")
        elif not ok:
            out.fail(f"job {job.id} ended {job.state}: {job.error}")
        elif sub.cold:
            ok = _check_artifacts(f"{sub.name}/{sub.scheme}", cache_dir, sub.name,
                                  sub.source, sub.scheme, sub.expected_output, True, out)
        else:
            want, got = warm[(sub.bench, sub.scheme)], job.result
            if _cell_key(got) != _cell_key(want):
                ok = False
                out.fail(f"warm job {job.id} {sub.bench}/{sub.scheme}: "
                         f"{_cell_key(got)} != warm-up {_cell_key(want)}")
        if job is not None and job.finished_at is not None:
            latencies.append(job.finished_at - record["due"])
            probes.append(record["probe"])
            in_limit += ok and 1000.0 * latencies[-1] <= JOB_LIMIT_MS
        out.failed_ops += not ok
    out.attempted += len(records)
    # Every accepted submission is accounted for exactly once: as the job
    # it created or as a coalesce onto an in-flight one.
    accepted = [r for r in records if r["job"]]
    created = sum(1 for r in accepted if not r["coalesced"])
    if created != len(jobs) or sum(1 + j.coalesced for j in jobs.values()) != len(accepted):
        out.fail(f"accounting: {len(accepted)} accepted submissions, {len(jobs)} jobs, "
                 f"{sum(j.coalesced for j in jobs.values())} coalesced")
    return {
        "jobs": jobs, "latencies": latencies, "probes": probes, "in_limit": in_limit,
        "lag_s": max(r["sent"] - r["due"] for r in records),
        "lag_p50_s": median([r["sent"] - r["due"] for r in records]),
        "work_s": sum(segments),
        "coalesced_share": (len(accepted) - created) / len(accepted) if accepted else 0.0,
    }


def _queue_wait_ms(tracer: Tracer) -> float:
    """Median time from the broker accepting a job to a worker entering
    ``run_cell`` for it."""
    accepted = {s.trace: s.end for s in tracer.named("service.submit")
                if s.counters.get("created")}
    entered: Dict[Any, float] = {}
    for span in tracer.named("exec.run_cell"):
        job = tracer.resolved_trace(span)
        entered[job] = min(entered.get(job, span.start), span.start)
    return 1000.0 * median([max(0.0, entered[j] - accepted[j])
                            for j in accepted if j in entered])


def service_mix(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    from repro.bench import get

    out = Outcome({})
    expected = expected_outputs()
    mix = inputs.service_mix(seed, seconds)
    speed = Speed()
    boot, _ = boot_seconds(_BOOT_SERVICE, workdir, speed)
    warm_dir = os.path.join(workdir, "warm")
    warm, warm_s = _warm_up(mix, warm_dir, out, speed)
    for bench, scheme in warm:
        _check_artifacts(f"warm-up {bench}/{scheme}", warm_dir, bench, get(bench).source,
                         scheme, expected[bench], trace, out)
    out.detail.update(
        warm_cells=[list(c) for c in mix.warm_cells], warm_s=warm_s, boot_s=boot,
        offered=len(mix.submissions), rate_per_s=inputs.RATE_PER_S,
        cold=sum(1 for s in mix.submissions if s.cold),
    )

    if not trace:
        setup_factor = speed.factor()
        run = _service_pass(mix, warm_dir, os.path.join(workdir, "pass"), warm, out,
                            speed)
        # A cold job is compute, which slows with the machine: its latency
        # is scaled by the probes taken right after it.  A warm job is about
        # half compute and half handoffs between threads, whose cost does
        # not follow the CPU's speed, so it is scaled by the square root of
        # the factor of every probe of the run (see WARM_SPEED_EXPONENT).
        # The open-loop makespan is set by the schedule and stays wall time.
        run_factor = speed.factor()
        warm_factor = run_factor ** WARM_SPEED_EXPONENT
        scaled = [s * (warm_factor if i is None else speed.factor(around=i))
                  for s, i in zip(run["latencies"], run["probes"])]
        _timings(out, (boot + warm_s) * setup_factor, run["work_s"], scaled)
        out.metrics["ops_in_limit_share"] = run["in_limit"] / len(mix.submissions)
        out.metrics.update(_quality({}))
        out.detail.update(raw_setup_s=boot + warm_s, speed_factor=run_factor,
                          raw_op_p50_ms=1000.0 * median(run["latencies"]),
                          raw_op_tail_ms=1000.0 * tail(run["latencies"])["value"],
                          lag_max_ms=1000.0 * run["lag_s"],
                          lag_p50_ms=1000.0 * run["lag_p50_s"],
                          coalesced_share=run["coalesced_share"])
        return out

    plain = _service_pass(mix, warm_dir, os.path.join(workdir, "plain"), warm, out)
    tracer = Tracer()
    with instrument(tracer):
        run = _service_pass(mix, warm_dir, os.path.join(workdir, "traced"), warm, out)
    # Open-loop wall time is the schedule's, so the overhead is read from
    # the mean job latency instead.
    overhead = (sum(run["latencies"]) / len(run["latencies"])
                / (sum(plain["latencies"]) / len(plain["latencies"])) - 1.0)
    _layers(out, tracer, overhead,
            [j.result["report"]["summary"] for j in run["jobs"].values() if j.result])
    out.metrics.update({
        "service.queue_wait_ms": _queue_wait_ms(tracer),
        "service.coalesced_share": run["coalesced_share"],
        "loadgen.lag_ms": 1000.0 * run["lag_s"],
    })
    return out


WORKLOADS = {
    "cold-sweep": cold_sweep,
    "prepare-matrix": prepare_matrix,
    "service-mix": service_mix,
}
