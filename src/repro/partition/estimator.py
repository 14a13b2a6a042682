"""Schedule-length estimation for RHOP clustering decisions.

RHOP's defining feature (Chu et al., PLDI 2003) is choosing cluster moves
by *estimated* schedule length rather than by edge cut: "These were used
in order to estimate the schedule length impact of clustering decisions
without requiring the need to actually schedule the code."

The estimate for one block under a tentative cluster assignment is

    max( critical path with intercluster penalties,
         per-cluster resource bounds,
         intercluster bus bandwidth bound )

Anchors model values that are live into the block from operations already
placed in other blocks: using such a value from the wrong cluster adds a
move at block entry.

The estimator is a compiled block kernel.  The block is turned once into
position-indexed tables (latencies, FU-class indices, a flat per-cluster
unit table, split predecessor lists, flow successors, anchor uses), so an
evaluation never hashes an ``FUClass``, calls ``Machine.units`` or
compares edge kinds.  A refinement trial that moves one group is
evaluated against the last settled assignment: resource counts and cut
moves change by delta, and start times are recomputed only from the
group's first block position (block order is topological, so every
earlier start time is unchanged) up to the farthest successor of an op
whose start time or cluster changed.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..machine import FUClass, Machine
from ..schedule.depgraph import DependenceGraph

INFEASIBLE = float("inf")

#: Critical-path latency the estimator assumes for one intercluster move.
#: RHOP's schedule estimates model a pipelined bus whose transfer latency
#: overlaps with surrounding iterations (the PLDI'03 formulation targets
#: latency-1 moves); the cycle-accurate evaluation still exposes the full
#: configured latency.  This optimism is what keeps the unified baseline
#: spreading computation at 5- and 10-cycle latencies, as in the paper.
ESTIMATOR_MOVE_OVERLAP_CAP = 2

_FU_INDEX = {cls: i for i, cls in enumerate(FUClass)}
_NUM_FU = len(_FU_INDEX)


def effective_move_latency(machine: "Machine") -> int:
    """Move latency as seen by schedule estimates (see above)."""
    return min(machine.move_latency, ESTIMATOR_MOVE_OVERLAP_CAP)


class Anchor:
    """A value live into the block, already homed on ``cluster``."""

    __slots__ = ("key", "cluster", "use_uids")

    def __init__(self, key, cluster: int, use_uids: Set[int]):
        self.key = key
        self.cluster = cluster
        self.use_uids = set(use_uids)


class _State:
    """One evaluated assignment: clusters by position (-1 = unplaced),
    (cluster, class) op counts, cut-move reference counts (a trial holds
    its delta to the settled counts instead), start times, and the fused
    ``(length, moves)`` key.  Settled states also keep ``prefix[p]``, the
    latest completion before position ``p``, and ``tail[p]``, the latest
    completion from ``p`` up to the sink."""

    __slots__ = ("cl", "counts", "refs", "delta", "start", "prefix", "tail", "key")

    def __init__(self, cl, counts, refs, delta, start, key):
        self.cl = cl
        self.counts = counts
        self.refs = refs
        self.delta = delta
        self.start = start
        self.prefix: List[int] = []
        self.tail: List[int] = []
        self.key = key


class ScheduleEstimator:
    """Estimates block schedule length under candidate assignments."""

    def __init__(
        self,
        graph: DependenceGraph,
        machine: Machine,
        anchors: Iterable[Anchor] = (),
    ):
        self.machine = machine
        k = machine.num_clusters
        self._k = k
        self._bandwidth = machine.network.bandwidth
        self._move_latency = effective_move_latency(machine)
        self._order = [op.uid for op in graph.ops]
        self._pos = {uid: p for p, uid in enumerate(self._order)}
        pos = self._pos
        n = len(self._order)
        self._n = n
        self._latency = [machine.latency_of(op) for op in graph.ops]
        fu = []
        for op in graph.ops:
            cls = machine.fu_class_of(op)
            fu.append(-1 if cls is None else _FU_INDEX[cls])
        self._fu = fu
        self._units = [
            machine.units(c, cls) for c in range(k) for cls in _FU_INDEX
        ]
        # Flow and ordering predecessors as (src_pos, delay); only flow
        # edges pay an intercluster penalty when cut.
        flow_preds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        other_preds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        flow_succs: List[List[int]] = [[] for _ in range(n)]
        # A block-ending terminator is ordered after every other op by
        # delay-0 edges; its start then begins at max(start[:sink]), so
        # those n - 1 edges are never walked.
        sink = n - 1
        ordered = [
            edge for edge in graph.preds.get(self._order[-1], ())
            if edge.kind == "order" and edge.delay == 0
        ] if n > 1 else []
        if n < 2 or {pos[edge.src] for edge in ordered} != set(range(sink)):
            sink, ordered = n, []
        self._sink = sink
        skip = set(map(id, ordered))
        #: Latest successor position before the sink, per position: how far
        #: a changed start time or cluster can reach.
        self._far = [-1] * n
        for edge in graph.edges:
            s, d = pos[edge.src], pos[edge.dst]
            if d < sink and d > self._far[s]:
                self._far[s] = d
            if edge.is_flow():
                flow_preds[d].append((s, edge.delay))
                flow_succs[s].append(d)
            elif id(edge) not in skip:
                other_preds[d].append((s, edge.delay))
        # Tuples: every empty table entry is the one shared empty tuple.
        self._flow_preds = [tuple(x) for x in flow_preds]
        self._other_preds = [tuple(x) for x in other_preds]
        self._flow_succs = [tuple(x) for x in flow_succs]
        self.attach(anchors)

    def attach(self, anchors: Iterable[Anchor]) -> None:
        """Replace the anchors (RHOP re-anchors a block on every global
        pass); forgets the settled assignment."""
        self.anchors = list(anchors)
        n = self._n
        ids: Dict[object, int] = {}
        # Per position: (move-key base, anchor cluster) of each anchored
        # use.  Move keys are ints: ``src_pos * k + cluster`` for cut
        # flow values, ``(n + anchor id) * k + cluster`` for anchors.
        anchor_at: List[Tuple[Tuple[int, int], ...]] = [()] * n
        for anchor in self.anchors:
            base = (n + ids.setdefault(anchor.key, len(ids))) * self._k
            for uid in anchor.use_uids:
                p = self._pos.get(uid)
                if p is not None:  # uses outside the block move nothing here
                    anchor_at[p] += ((base, anchor.cluster),)
        self._anchor_at = anchor_at
        self.release()

    def release(self) -> None:
        """Forget the settled assignment and pending trials, and the
        memory they hold; the next call evaluates in full."""
        self._base: Optional[_State] = None
        self._pending_pos: Tuple[int, ...] = ()
        self._pending: Dict[Tuple[int, ...], _State] = {}

    # -- the estimate ---------------------------------------------------------------

    def estimate(
        self,
        cluster_of: Dict[int, int],
        exposed: bool = False,
        moved: Optional[Iterable[int]] = None,
    ) -> Tuple[float, int]:
        """``(estimated schedule length, static intercluster moves)``.

        The length is ``INFEASIBLE`` when an op sits on a cluster lacking
        its function-unit class; the move count is one per distinct
        (producer, consumer cluster) cut flow pair plus one per anchor
        value imported into a cluster other than its home.

        ``cluster_of`` may be *partial* (initial placement proceeds group
        by group): operations without an assignment contribute no resource
        pressure and their edges carry no intercluster penalty, so early
        placement decisions are unbiased by not-yet-placed code.

        ``exposed=True`` charges the full configured move latency instead
        of the optimistic pipelined-bus latency — used to arbitrate
        between finished candidate partitions.  Exposed calls never change
        the estimator's settled assignment.

        ``moved`` makes the call an incremental trial: ``cluster_of`` may
        differ from the assignment of the previous non-exposed call only
        at the ops in ``moved`` and at those that call named in its own
        ``moved`` (so a tried group may be restored, or left on its
        accepted cluster, before the next group is tried).  A trial whose
        assignment is still in place at the next call becomes the settled
        assignment without another evaluation.  Without ``moved`` the
        whole assignment is evaluated."""
        ml = self.machine.move_latency if exposed else self._move_latency
        base = self._base
        if moved is None or exposed or base is None:
            cl = [cluster_of.get(uid, -1) for uid in self._order]
            if exposed:
                return self._evaluate(cl, ml).key
            if base is not None:
                if cl == base.cl:
                    return base.key
                now = tuple([cl[p] for p in self._pending_pos])
                trial = self._pending.get(now)
                if trial is not None and trial.cl == cl:
                    self._settle(trial)
                    return trial.key
            state = self._evaluate(cl, ml)
            self._settle(state)
            if moved is not None:  # a trial's ops may be restored next
                self._pending_pos = tuple(sorted([self._pos[uid] for uid in moved]))
            return state.key

        pos = self._pos
        positions = tuple(sorted([pos[uid] for uid in moved]))
        order = self._order
        if positions != self._pending_pos:
            # The previous trial group now holds its accepted clusters
            # (or was restored): fold that into the settled state.
            held = self._pending_pos
            if held:
                if not set(held).isdisjoint(positions):
                    held = tuple(p for p in held if p not in positions)
                now = tuple([cluster_of.get(order[p], -1) for p in held])
                if now != tuple([base.cl[p] for p in held]):
                    trial = None
                    if held == self._pending_pos:
                        trial = self._pending.get(now)
                    self._settle(trial or self._trial(base, held, now, ml))
                    base = self._base
            self._pending_pos = positions
            self._pending = {}
        now = tuple([cluster_of.get(order[p], -1) for p in positions])
        trial = self._trial(base, positions, now, ml)
        self._pending[now] = trial
        return trial.key

    # -- evaluation kernels ------------------------------------------------------------

    def _settle(self, state: _State) -> None:
        """Make ``state`` the settled assignment that trials build on."""
        base = self._base
        if state.delta is not None:  # a trial: apply its move-ref delta
            refs = base.refs
            for key, dv in state.delta.items():
                v = refs.get(key, 0) + dv
                if v:
                    refs[key] = v
                else:
                    refs.pop(key, None)
            state.refs = refs
            state.delta = None
        ends = list(map(add, state.start, self._latency))
        sink = self._sink
        state.prefix = [0, *accumulate(ends, max)]
        state.tail = [*accumulate(reversed(ends[:sink]), max)][::-1]
        state.tail += [0] * (self._n + 1 - sink)
        self._base = state
        self._pending_pos = ()
        self._pending = {}

    def _evaluate(self, cl: List[int], ml: int) -> _State:
        """Evaluate a whole assignment from scratch."""
        k = self._k
        counts = [0] * (k * _NUM_FU)
        for c, f in zip(cl, self._fu):
            if c >= 0 and f >= 0:
                counts[c * _NUM_FU + f] += 1
        refs: Dict[int, int] = {}
        for s, succs in enumerate(self._flow_succs):
            cs = cl[s]
            if cs >= 0:
                for d in succs:
                    cd = cl[d]
                    if cd >= 0 and cs != cd:
                        refs[s * k + cd] = refs.get(s * k + cd, 0) + 1
        for p, uses in enumerate(self._anchor_at):
            cu = cl[p]
            if cu >= 0:
                for key, home in uses:
                    if cu != home:
                        refs[key + cu] = refs.get(key + cu, 0) + 1
        start = [0] * self._n
        completion = self._path(cl, start, 0, 0, ml, cl, self._n, ())
        key = self._key(completion, counts, len(refs))
        return _State(cl, counts, refs, None, start, key)

    def _trial(
        self, base: _State, positions: Tuple[int, ...], now: Tuple[int, ...], ml: int
    ) -> _State:
        """Evaluate ``base`` with ``positions`` reassigned to ``now``."""
        k = self._k
        fu = self._fu
        old = base.cl
        cl = old[:]
        counts = base.counts[:]
        for p, c in zip(positions, now):
            cl[p] = c
            f = fu[p]
            if f >= 0:
                o = old[p]
                if o >= 0:
                    counts[o * _NUM_FU + f] -= 1
                if c >= 0:
                    counts[c * _NUM_FU + f] += 1

        # Cut moves change only on flow edges and anchor uses that touch
        # a reassigned op; each affected edge is visited once.
        delta: Dict[int, int] = {}
        moving = set(positions)
        flow_succs, flow_preds, anchor_at = (
            self._flow_succs, self._flow_preds, self._anchor_at
        )
        for p in positions:
            os_, ns = old[p], cl[p]
            for d in flow_succs[p]:
                od, nd = old[d], cl[d]
                if os_ >= 0 and od >= 0 and os_ != od:
                    delta[p * k + od] = delta.get(p * k + od, 0) - 1
                if ns >= 0 and nd >= 0 and ns != nd:
                    delta[p * k + nd] = delta.get(p * k + nd, 0) + 1
            if ns != os_:
                for s, _delay in flow_preds[p]:
                    if s in moving:
                        continue  # counted among s's successors
                    cs = cl[s]
                    if cs >= 0:
                        if os_ >= 0 and cs != os_:
                            delta[s * k + os_] = delta.get(s * k + os_, 0) - 1
                        if ns >= 0 and cs != ns:
                            delta[s * k + ns] = delta.get(s * k + ns, 0) + 1
                for key, home in anchor_at[p]:
                    if os_ >= 0 and os_ != home:
                        delta[key + os_] = delta.get(key + os_, 0) - 1
                    if ns >= 0 and ns != home:
                        delta[key + ns] = delta.get(key + ns, 0) + 1
        refs = base.refs
        moves = len(refs)
        for key, dv in delta.items():
            if dv:
                was = refs.get(key, 0)
                moves += (was + dv > 0) - (was > 0)

        first, last = (positions[0], positions[-1]) if positions else (self._n,) * 2
        start = base.start[:]
        completion = self._path(
            cl, start, first, base.prefix[first], ml, old, last, base.tail
        )
        key = self._key(completion, counts, moves)
        return _State(cl, counts, None, delta, start, key)

    def _path(
        self,
        cl: List[int],
        start: List[int],
        first: int,
        completion: int,
        ml: int,
        old: List[int],
        horizon: int,
        tail: Sequence[int],
    ) -> int:
        """Start times from position ``first`` on, with intercluster
        penalties on cut flow edges; returns the latest completion, seeded
        with ``completion`` (that of the positions before ``first``).

        ``start`` holds the times of the assignment ``old`` differs from
        ``cl`` in.  Only positions up to ``horizon`` and the sink are
        recomputed: the horizon grows to the farthest successor of every
        op whose start time or cluster changed, and past it the old times
        stand, their latest completion being ``tail[horizon + 1]``."""
        flow_preds, other_preds = self._flow_preds, self._other_preds
        anchor_at, latency, sink = self._anchor_at, self._latency, self._sink
        far = self._far
        for p in range(first, self._n):
            if p > horizon and p < sink:
                continue
            c = cl[p]
            t = 0 if p < sink else max(start[:p])
            if c >= 0:
                for _key, home in anchor_at[p]:
                    if home != c:
                        if ml > t:
                            t = ml
                        break
                for s, delay in flow_preds[p]:
                    cs = cl[s]
                    v = start[s] + delay
                    if cs >= 0 and cs != c:
                        v += ml
                    if v > t:
                        t = v
            else:
                for s, delay in flow_preds[p]:
                    v = start[s] + delay
                    if v > t:
                        t = v
            for s, delay in other_preds[p]:
                v = start[s] + delay
                if v > t:
                    t = v
            if (t != start[p] or c != old[p]) and far[p] > horizon:
                horizon = far[p]
            start[p] = t
            t += latency[p]
            if t > completion:
                completion = t
        if horizon + 1 < sink and tail[horizon + 1] > completion:
            completion = tail[horizon + 1]
        return completion

    def _key(self, completion: int, counts: List[int], moves: int) -> Tuple[float, int]:
        """Fuse the three bounds into the ``(length, moves)`` key."""
        length = completion
        for n, units in zip(counts, self._units):
            if n:
                if not units:
                    return INFEASIBLE, moves
                bound = -(-n // units)
                if bound > length:
                    length = bound
        bus = -(-moves // self._bandwidth)
        if bus > length:
            length = bus
        return float(length), moves
