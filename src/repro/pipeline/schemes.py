"""The four object/computation partitioning schemes of Table 1.

| Algorithm   | Object partitioner        | Object assignment      | Computation |
|-------------|---------------------------|------------------------|-------------|
| GDP         | Global Data Partitioning  | (from graph partition) | RHOP        |
| Profile Max | RHOP (first pass)         | Greedy by dyn. freq    | RHOP        |
| Naïve       | none (post-pass moves)    | max-access, no balance | RHOP        |
| Unified     | n/a (single memory)       | n/a                    | RHOP        |

All four run through :func:`run_scheme`, one skeleton that differs only
where the table does: when and how objects get their homes.  Every scheme
works on its own clone of the prepared module, ends with intercluster
move insertion, and is evaluated by profile-weighted list scheduling.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..evalmodel import EvalResult, evaluate_module, roofline
from ..ir import Module
from ..machine import Machine
from ..partition.assign import insert_intercluster_moves
from ..partition.gdp import GDPConfig, gdp_partition
from ..partition.locks import memory_locks
from ..partition.rhop import RHOP, RHOPConfig, RHOPResult
from ..resilience.faults import FaultPlan
from ..resilience.report import PhaseTimer
from .prepared import PreparedProgram

#: Profile Max's memory-balance cap: greedy homing keeps every cluster's
#: object bytes within this multiple of an even share.
PROFILE_MAX_IMBALANCE = 1.15

#: Scheme descriptors used to regenerate Table 1.
SCHEME_TABLE = {
    "gdp": {
        "label": "GDP",
        "object_partitioner": "Global Data Partitioning",
        "object_assignment": "multilevel graph partition (size-balanced)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
    "profilemax": {
        "label": "Profile Max",
        "object_partitioner": "RHOP",
        "object_assignment": "Greedy (dynamic frequency order)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 2,
    },
    "naive": {
        "label": "Naive",
        "object_partitioner": "None - data object moves inserted "
        "post-computation partitioning",
        "object_assignment": "highest-access cluster (no balance)",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
    "unified": {
        "label": "Unified Memory",
        "object_partitioner": "N/A - data object moves not required for "
        "single, unified memory",
        "object_assignment": "N/A",
        "computation_partitioner": "RHOP",
        "rhop_runs": 1,
    },
}


class SchemeOutcome:
    """Everything one scheme produced for one benchmark/machine pair.

    ``timings`` maps pipeline-phase names (``"gdp"``, ``"homes"``,
    ``"rhop"``, ``"finalize"``) to wall seconds — the per-phase clocks the
    resilience run reports and the compile-time benchmarks both read, so
    the two can never drift apart.
    """

    def __init__(
        self,
        scheme: str,
        machine: Machine,
        module: Module,
        assignment: Dict[int, int],
        object_home: Optional[Dict[str, int]],
        eval_result: EvalResult,
        timings: Dict[str, float],
        rhop_runs: int,
    ):
        self.scheme = scheme
        self.machine = machine
        self.module = module
        self.assignment = assignment
        self.object_home = object_home
        self.eval = eval_result
        self.timings = dict(timings)
        self.rhop_runs = rhop_runs
        #: Data-movement roofline summary (``evalmodel.roofline``), set by
        #: :func:`run_scheme` once the move count is known.
        self.roofline: Optional[Dict[str, float]] = None

    @property
    def rhop_seconds(self) -> float:
        """Seconds spent in the detailed computation partitioner (the
        Section 4.5 compile-time metric), derived from :attr:`timings`."""
        return self.timings.get("rhop", 0.0)

    @property
    def cycles(self) -> float:
        return self.eval.cycles

    @property
    def dynamic_moves(self) -> float:
        return self.eval.dynamic_moves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.scheme}: {self.cycles:.0f} cycles>"


def run_scheme(
    prepared: PreparedProgram,
    machine: Machine,
    scheme: str,
    gdp_config: Optional[GDPConfig] = None,
    rhop_config: Optional[RHOPConfig] = None,
    object_home: Optional[Dict[str, int]] = None,
    faults: Optional[FaultPlan] = None,
) -> SchemeOutcome:
    """Run one named scheme end to end.

    The four schemes share one skeleton — RHOP, move insertion,
    evaluation — and differ only in when objects get their homes: GDP
    places them before RHOP; Profile Max and Naïve place them after a
    RHOP pass that assumes unified memory (Profile Max greedily, then a
    second RHOP locked to those homes; Naïve where each object is
    accessed most, then a post-pass rebinding of memory operations);
    Unified never places them.

    ``object_home`` overrides GDP's placement (the exhaustive search of
    Figure 9 and the placement ablations); other schemes ignore it.
    ``faults`` installs a deterministic
    :class:`~repro.resilience.faults.FaultPlan` whose clauses fire at
    this function's injection points.
    """
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r} (see SCHEME_TABLE)")
    if faults is not None:
        machine = faults.machine_for(machine)

    def inject(phase: str) -> None:
        if faults is not None:
            faults.maybe_raise(phase)

    timer = PhaseTimer()
    if scheme == "gdp":
        if object_home is None:
            inject("gdp")
            with timer.phase("gdp"):
                object_home = gdp_partition(
                    prepared.module, prepared.objects, machine.num_clusters,
                    block_freq=prepared.block_freq, config=gdp_config,
                    merge=prepared.merge, program_graph=prepared.program_graph,
                ).object_home
    else:
        object_home = None
        if scheme != "profilemax":
            inject(scheme)
        module, uid_map = prepared.fresh_copy()
        inject("rhop")
        with timer.phase("rhop"):
            result = RHOP(
                machine.as_unified(), rhop_config, prepared.block_freq
            ).partition_module(module)
        if scheme != "unified":
            if scheme == "profilemax":
                inject("profilemax")
            op_counts = prepared.translated_op_counts(uid_map)
            with timer.phase("homes"):
                object_home = (
                    _greedy_profile_homes if scheme == "profilemax"
                    else _max_access_homes
                )(prepared, module, result.assignment, op_counts, machine)

    locked = scheme in ("gdp", "profilemax")
    if locked:  # RHOP partitions a fresh clone with memory ops locked
        module, _uid_map = prepared.fresh_copy()
    if object_home is not None:
        # Memory operations follow their object's home.  Post-lock
        # corruption models phase-1 output poisoning: the homes the run
        # records disagree with the locks honoured — exactly the
        # cross-phase inconsistency the validity checker detects.
        access = prepared.object_access_counts()
        locks = memory_locks(module, object_home, access)
        if faults is not None:
            locks = faults.drop_locks(locks, scheme)
            object_home = faults.corrupt_homes(
                object_home, machine.num_clusters, scheme, accessed=access
            )
    if locked:
        inject("rhop")
        with timer.phase("rhop"):
            result = RHOP(
                machine.as_partitioned(), rhop_config, prepared.block_freq
            ).partition_module(module, mem_locks=locks)
        assignment = result.assignment
    else:
        assignment = dict(result.assignment)
        if scheme == "naive":  # post-pass: moves bridge the remote accesses
            assignment.update(locks)

    with timer.phase("finalize"):
        eval_result = finalize_and_evaluate(
            prepared, machine, module, assignment, result
        )
    outcome = SchemeOutcome(
        scheme, machine, module, assignment,
        None if object_home is None else dict(object_home),
        eval_result, timer.timings, SCHEME_TABLE[scheme]["rhop_runs"],
    )
    # Price the data movement against the program's I/O lower bound (one
    # memoized model per prepared program serves all schemes).  Looked up
    # through the module at call time, like every traced layer.
    outcome.roofline = roofline.roofline_for(prepared).report(
        outcome.dynamic_moves
    )
    return outcome


def finalize_and_evaluate(
    prepared: PreparedProgram,
    machine: Machine,
    module: Module,
    assignment: Dict[int, int],
    rhop_result: RHOPResult,
) -> EvalResult:
    """Insert intercluster moves and evaluate cycles.

    Public so ablations can plug alternative computation partitioners
    (e.g. BUG) into the same finishing pipeline."""
    for func in module:
        homes = rhop_result.vreg_home.get(func.name, {})
        param_homes = {
            p.vid: homes[p.vid] for p in func.params if p.vid in homes
        }
        insert_intercluster_moves(func, assignment, machine, param_homes)
    return evaluate_module(module, assignment, machine, prepared.block_freq)


def _cluster_accesses(module: Module, assignment: Dict[int, int], op_counts,
                      key) -> Dict:
    """Dynamic accesses per ``key(object)`` per cluster under the first-pass
    (unified) computation partition; objects keyed ``None`` are skipped."""
    per_key: Dict = {}
    for func in module:
        for op in func.operations():
            if not op.is_memory_access():
                continue
            counts = op_counts.get(op.uid)
            cluster = assignment[op.uid]
            for obj in op.mem_objects():
                bucket = key(obj)
                if bucket is None:
                    continue
                dyn = counts.get(obj, 0) if counts else 0
                per = per_key.setdefault(bucket, {})
                per[cluster] = per.get(cluster, 0.0) + dyn
    return per_key


def _greedy_profile_homes(
    prepared: PreparedProgram,
    module: Module,
    assignment: Dict[int, int],
    op_counts,
    machine: Machine,
) -> Dict[str, int]:
    """Greedy object homing in dynamic-frequency order with a balance cap
    (:data:`PROFILE_MAX_IMBALANCE`).

    Objects grouped exactly as GDP's coarsening grouped them (the paper:
    "The program-level graph of the application is created and coarsened
    as before, so objects are grouped together the same").
    """
    k = machine.num_clusters
    merge = prepared.merge
    groups = merge.object_groups()
    group_freq = _cluster_accesses(
        module, assignment, op_counts, merge.group_of_object.get
    )

    total_bytes = float(prepared.objects.total_size())
    cap = (
        PROFILE_MAX_IMBALANCE * total_bytes / k
        if total_bytes > 0 else float("inf")
    )
    loads = [0.0] * k
    object_home: Dict[str, int] = {}

    ordered = sorted(
        groups,
        key=lambda g: -sum(group_freq.get(g.gid, {}).values()),
    )
    for group in ordered:
        per = group_freq.get(group.gid, {})
        preference = sorted(
            range(k), key=lambda c: (-per.get(c, 0.0), loads[c], c)
        )
        size = prepared.objects.size_of(group.object_ids)
        chosen = None
        for c in preference:
            if loads[c] + size <= cap or size > cap:
                chosen = c
                break
        if chosen is None:
            chosen = min(range(k), key=lambda c: loads[c])
        loads[chosen] += size
        for obj in group.object_ids:
            object_home[obj] = chosen
    return object_home


def _max_access_homes(
    prepared: PreparedProgram,
    module: Module,
    assignment: Dict[int, int],
    op_counts,
    machine: Machine,
) -> Dict[str, int]:
    """Naïve placement (Section 2 / Figure 2): home each object on the
    cluster that accesses it most, with no balance."""
    per_object = _cluster_accesses(module, assignment, op_counts, lambda o: o)
    k = machine.num_clusters
    object_home: Dict[str, int] = {}
    for obj in prepared.objects.ids():
        per = per_object.get(obj, {})
        object_home[obj] = (
            max(range(k), key=lambda c: (per.get(c, 0.0), -c)) if per else 0
        )
    return object_home
