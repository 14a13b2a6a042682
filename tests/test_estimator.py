"""Unit and property tests for the RHOP schedule estimator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import Constant, Function, GlobalAddress, IRBuilder, Opcode, Operation
from repro.ir.types import INT
from repro.machine import (
    ClusterConfig,
    FUClass,
    InterclusterNetwork,
    Machine,
    four_cluster_machine,
    heterogeneous_machine,
    paper_cluster,
    two_cluster_machine,
)
from repro.partition import Anchor, INFEASIBLE, ScheduleEstimator
from repro.partition.estimator import (
    ESTIMATOR_MOVE_OVERLAP_CAP,
    effective_move_latency,
)
from repro.schedule import DependenceGraph


def chain_block(n=4):
    """A serial chain: v0 -> v1 -> ... -> ret."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    v = b.mov(b.const(1))
    for _ in range(n - 1):
        v = b.add(v, b.const(1))
    b.ret(v)
    return func, entry


def wide_block(n=8):
    """n independent adds."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    for i in range(n):
        b.add(b.const(i), b.const(1))
    b.ret(Constant(0, INT))
    return func, entry


def estimator_for(block, machine=None, anchors=()):
    machine = machine or two_cluster_machine(move_latency=5)
    graph = DependenceGraph(block, machine.latency_of)
    return ScheduleEstimator(graph, machine, anchors), graph


class TestEffectiveLatency:
    def test_capped(self):
        assert effective_move_latency(two_cluster_machine(move_latency=10)) == \
            ESTIMATOR_MOVE_OVERLAP_CAP

    def test_low_latency_uncapped(self):
        assert effective_move_latency(two_cluster_machine(move_latency=1)) == 1


class TestEstimate:
    def test_single_cluster_chain_equals_critical_path(self):
        _, block = chain_block(5)
        est, graph = estimator_for(block)
        cluster_of = {op.uid: 0 for op in block.ops}
        assert est.estimate(cluster_of)[0] == graph.critical_path_length()

    def test_cut_chain_costs_moves(self):
        _, block = chain_block(5)
        est, _ = estimator_for(block)
        same = {op.uid: 0 for op in block.ops}
        alternating = {
            op.uid: i % 2 for i, op in enumerate(block.ops)
        }
        assert est.estimate(alternating)[0] > est.estimate(same)[0]

    def test_wide_block_prefers_split(self):
        """Resource-bound code estimates lower when split across clusters."""
        _, block = wide_block(12)
        est, _ = estimator_for(block)
        together = {op.uid: 0 for op in block.ops}
        split = {op.uid: i % 2 for i, op in enumerate(block.ops)}
        assert est.estimate(split)[0] <= est.estimate(together)[0]

    def test_infeasible_when_no_unit(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        f = b.fadd(b.const(1.0), b.const(2.0))
        b.ret(Constant(0, INT))
        from repro.machine import ClusterConfig, FUClass, InterclusterNetwork, Machine

        no_float = ClusterConfig(
            {FUClass.INT: 2, FUClass.FLOAT: 0, FUClass.MEM: 1, FUClass.BRANCH: 1}
        )
        has_float = ClusterConfig(
            {FUClass.INT: 2, FUClass.FLOAT: 1, FUClass.MEM: 1, FUClass.BRANCH: 1}
        )
        machine = Machine([no_float, has_float], InterclusterNetwork(1))
        est, _ = estimator_for(entry, machine)
        on_bad = {op.uid: 0 for op in entry.ops}
        on_good = {op.uid: 1 for op in entry.ops}
        assert est.estimate(on_bad)[0] == INFEASIBLE
        assert est.estimate(on_good)[0] < INFEASIBLE

    def test_partial_assignment_ignores_unplaced(self):
        _, block = wide_block(6)
        est, _ = estimator_for(block)
        partial = {block.ops[0].uid: 0}
        full = {op.uid: 0 for op in block.ops}
        assert est.estimate(partial)[0] <= est.estimate(full)[0]

    def test_exposed_estimate_charges_full_latency(self):
        _, block = chain_block(5)
        machine = two_cluster_machine(move_latency=10)
        est, _ = estimator_for(block, machine)
        alternating = {op.uid: i % 2 for i, op in enumerate(block.ops)}
        optimistic = est.estimate(alternating)[0]
        exposed = est.estimate(alternating, exposed=True)[0]
        assert exposed > optimistic


class TestAnchors:
    def test_anchor_penalises_wrong_cluster(self):
        _, block = chain_block(3)
        first = block.ops[0]
        anchor = Anchor(("vreg", 99), 1, {first.uid})
        est, _ = estimator_for(block, anchors=[anchor])
        on_home = {op.uid: 1 for op in block.ops}
        off_home = {op.uid: 0 for op in block.ops}
        assert est.estimate(off_home)[0] > est.estimate(on_home)[0]

    def test_anchor_counts_move(self):
        _, block = chain_block(3)
        first = block.ops[0]
        anchor = Anchor(("vreg", 99), 1, {first.uid})
        est, _ = estimator_for(block, anchors=[anchor])
        off_home = {op.uid: 0 for op in block.ops}
        on_home = {op.uid: 1 for op in block.ops}
        assert est.estimate(off_home)[1] == est.estimate(on_home)[1] + 1

    def test_moves_count_distinct_pairs(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        v = b.mov(b.const(1))
        u1 = b.add(v, b.const(1))
        u2 = b.add(v, b.const(2))
        b.ret(b.add(u1, u2))
        est, _ = estimator_for(entry)
        # v on c0; both consumers on c1 -> ONE move (value sent once).
        asn = {op.uid: 1 for op in entry.ops}
        asn[entry.ops[0].uid] = 0
        cut_once = est.estimate(asn)[1]
        asn2 = {op.uid: 0 for op in entry.ops}
        assert cut_once == est.estimate(asn2)[1] + 1


# -- property tests: the compiled kernel against a reference estimator ---------


def reference_estimate(graph, machine, anchors, cluster_of, exposed=False):
    """The estimator as a plain uid-dict walk over the dependence graph
    (the formula before it was compiled): ``(length, moves)``."""
    move_latency = (
        machine.move_latency if exposed else effective_move_latency(machine)
    )
    moves = set()
    for edge in graph.edges:
        if edge.is_flow():
            cs = cluster_of.get(edge.src)
            cd = cluster_of.get(edge.dst)
            if cs is not None and cd is not None and cs != cd:
                moves.add((edge.src, cd))
    for anchor in anchors:
        for uid in anchor.use_uids:
            cu = cluster_of.get(uid)
            if cu is not None and cu != anchor.cluster:
                moves.add((anchor.key, cu))

    counts = {}
    for op in graph.ops:
        cls = machine.fu_class_of(op)
        cluster = cluster_of.get(op.uid)
        if cls is None or cluster is None:
            continue
        if machine.units(cluster, cls) == 0:
            return INFEASIBLE, len(moves)
        counts[(cluster, cls)] = counts.get((cluster, cls), 0) + 1
    res_bound = 0.0
    for (cluster, cls), n in counts.items():
        res_bound = max(res_bound, n / machine.units(cluster, cls))
    bus_bound = len(moves) / machine.network.bandwidth

    anchor_uses = {}
    for anchor in anchors:
        for uid in anchor.use_uids:
            anchor_uses.setdefault(uid, []).append(anchor)
    start = {}
    completion = 0
    for op in graph.ops:
        uid = op.uid
        t = 0
        cu = cluster_of.get(uid)
        if cu is not None:
            for anchor in anchor_uses.get(uid, ()):
                if cu != anchor.cluster:
                    t = max(t, move_latency)
        for edge in graph.preds[uid]:
            delay = edge.delay
            if edge.is_flow():
                cs = cluster_of.get(edge.src)
                if cs is not None and cu is not None and cs != cu:
                    delay += move_latency
            t = max(t, start[edge.src] + delay)
        start[uid] = t
        completion = max(completion, t + machine.latency_of(op))
    length = max(float(completion), math.ceil(res_bound), math.ceil(bus_bound))
    return length, len(moves)


def _no_float_machine():
    no_float = ClusterConfig(
        {FUClass.INT: 2, FUClass.FLOAT: 0, FUClass.MEM: 1, FUClass.BRANCH: 1}
    )
    return Machine([no_float, paper_cluster("c1")], InterclusterNetwork(3))


MACHINES = {
    "two": lambda: two_cluster_machine(move_latency=5),
    "four": lambda: four_cluster_machine(move_latency=10),
    "hetero": lambda: heterogeneous_machine(move_latency=5),
    "no-float": _no_float_machine,
    "bandwidth-2": lambda: two_cluster_machine(move_latency=1, bandwidth=2),
}

OP_KINDS = ["add", "mul", "fadd", "load", "store", "call", "redef", "icmove"]
op_specs = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=24,
)


def random_block(specs):
    """A block of adds, muls, float adds, loads, stores, calls, register
    redefinitions and ICMOVEs over a growing pool of values."""
    func = Function("f", [], INT)
    b = IRBuilder(func)
    entry = b.new_block("entry")
    b.set_block(entry)
    ints = [b.mov(b.const(1))]
    floats = [b.mov(b.const(1.0))]
    for kind, i, j in specs:
        x, y = ints[i % len(ints)], ints[j % len(ints)]
        g = GlobalAddress(f"g{j % 3}", INT)
        if kind == "add":
            ints.append(b.add(x, y))
        elif kind == "mul":
            ints.append(b.mul(x, y))
        elif kind == "fadd":
            floats.append(b.fadd(floats[i % len(floats)], floats[j % len(floats)]))
        elif kind == "load":
            ints.append(b.load(g))
        elif kind == "store":
            b.store(x, g)
        elif kind == "call":
            ints.append(b.call("print_int", [x], INT))
        elif kind == "redef":
            b.mov_to(x, y)
        else:
            dest = func.new_vreg(INT)
            b.block.append(
                Operation(Opcode.ICMOVE, dest, [x], attrs={"from": 0, "to": 1})
            )
            ints.append(dest)
    b.ret(ints[-1])
    return entry


@st.composite
def scenarios(draw):
    """(graph, machine, anchors, partial assignment)."""
    machine = MACHINES[draw(st.sampled_from(sorted(MACHINES)))]()
    block = random_block(draw(op_specs))
    graph = DependenceGraph(block, machine.latency_of)
    k = machine.num_clusters
    uids = [op.uid for op in block.ops]
    anchors = [
        Anchor(
            ("vreg", draw(st.integers(min_value=0, max_value=3))),
            draw(st.integers(min_value=0, max_value=k - 1)),
            draw(st.sets(st.sampled_from(uids), max_size=3)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    cluster_of = {}
    for uid in uids:
        c = draw(st.integers(min_value=-1, max_value=k - 1))
        if c >= 0:
            cluster_of[uid] = c
    return graph, machine, anchors, cluster_of


def _reassign(cluster_of, members, cluster):
    for uid in members:
        if cluster < 0:
            cluster_of.pop(uid, None)
        else:
            cluster_of[uid] = cluster


class TestKernelProperties:
    @given(scenarios(), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_full_estimate_matches_reference(self, scenario, exposed):
        graph, machine, anchors, cluster_of = scenario
        est = ScheduleEstimator(graph, machine, anchors)
        assert est.estimate(cluster_of, exposed=exposed) == reference_estimate(
            graph, machine, anchors, cluster_of, exposed
        )

    @given(scenarios(), st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_incremental_trials_match_full_evaluation(self, scenario, data):
        """RHOP's call pattern: trial one group on several clusters, then
        accept one trial or restore the group, then move to another
        (possibly overlapping) group.  Every trial must equal a fresh
        evaluation of the same assignment."""
        graph, machine, anchors, cluster_of = scenario
        est = ScheduleEstimator(graph, machine, anchors)
        k = machine.num_clusters
        uids = [op.uid for op in graph.ops]
        clusters = st.integers(min_value=-1, max_value=k - 1)
        assert est.estimate(cluster_of) == reference_estimate(
            graph, machine, anchors, cluster_of
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            members = data.draw(st.sets(st.sampled_from(uids), min_size=1))
            before = {uid: cluster_of.get(uid, -1) for uid in members}
            tried = []
            for _trial in range(data.draw(st.integers(min_value=1, max_value=3))):
                dst = data.draw(clusters)
                _reassign(cluster_of, members, dst)
                tried.append(dst)
                assert est.estimate(cluster_of, moved=members) == (
                    reference_estimate(graph, machine, anchors, cluster_of)
                )
            for uid, c in before.items():
                _reassign(cluster_of, [uid], c)
            accept = data.draw(st.sampled_from([None] + tried))
            if accept is not None:
                _reassign(cluster_of, members, accept)
            if data.draw(st.booleans()):
                # Exposed arbitration and plain re-evaluation in between.
                expected = reference_estimate(
                    graph, machine, anchors, cluster_of, exposed=True
                )
                assert est.estimate(cluster_of, exposed=True) == expected
            if data.draw(st.booleans()):
                est.release()  # the next call evaluates in full
        assert est.estimate(cluster_of) == reference_estimate(
            graph, machine, anchors, cluster_of
        )

    def test_lone_terminator_block(self):
        func = Function("f", [], INT)
        b = IRBuilder(func)
        entry = b.new_block("entry")
        b.set_block(entry)
        b.ret(Constant(0, INT))
        est, graph = estimator_for(entry)
        only = {entry.ops[0].uid: 1}
        assert est.estimate(only) == reference_estimate(
            graph, est.machine, [], only
        )
        assert est.estimate({}, moved=set(only)) == (1.0, 0)

    def test_attach_forgets_the_settled_assignment(self):
        _, block = chain_block(4)
        est, graph = estimator_for(block)
        on_zero = {op.uid: 0 for op in block.ops}
        est.estimate(on_zero)
        anchor = Anchor(("vreg", 7), 1, {block.ops[0].uid})
        est.attach([anchor])
        moved = {block.ops[1].uid}
        trial = dict(on_zero)
        trial[block.ops[1].uid] = 1
        expected = reference_estimate(graph, est.machine, [anchor], trial)
        assert est.estimate(trial, moved=moved) == expected
