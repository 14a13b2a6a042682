"""Cycle-accurate VLIW list scheduler for a clustered machine.

Schedules one basic block given a cluster assignment for every operation.
Resources modelled per cycle: FU slots per (cluster, class) — units are
fully pipelined — and the shared intercluster bus with its fixed
moves-per-cycle bandwidth.  Flow dependences that cross clusters are
expected to be materialised as explicit ``ICMOVE`` operations *before*
scheduling (see :mod:`repro.partition.assign`); the scheduler only checks
resources and dependence delays.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..ir import BasicBlock, Opcode, Operation
from ..machine import FUClass, Machine
from .depgraph import DependenceGraph


class ScheduleResult:
    """Outcome of scheduling one block."""

    def __init__(
        self,
        block: BasicBlock,
        issue_cycle: Dict[int, int],
        length: int,
        moves: int,
    ):
        self.block = block
        self.issue_cycle = issue_cycle  # op uid -> cycle
        self.length = length  # cycles until all results complete
        self.moves = moves  # ICMOVE ops in the block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<schedule {self.block.name}: {self.length} cycles>"


class ListScheduler:
    """Greedy cycle-by-cycle scheduler with critical-path priority."""

    def __init__(self, machine: Machine):
        self.machine = machine

    def schedule_block(
        self,
        block: BasicBlock,
        cluster_of: Dict[int, int],
        depgraph: Optional[DependenceGraph] = None,
    ) -> ScheduleResult:
        """Schedule ``block``; ``cluster_of`` maps op uid -> cluster index.

        Raises ``KeyError`` if an operation lacks a cluster assignment.
        """
        machine = self.machine
        graph = depgraph or DependenceGraph(block, machine.latency_of)
        if not graph.ops:
            return ScheduleResult(block, {}, 0, 0)

        unscheduled_preds: Dict[int, int] = {
            op.uid: len(graph.preds[op.uid]) for op in graph.ops
        }
        earliest: Dict[int, int] = {op.uid: 0 for op in graph.ops}
        issue: Dict[int, int] = {}
        # ready heap entries: (-height, seq, uid); seq keeps FIFO stability.
        ready: List[Tuple[int, int, int]] = []
        for seq, op in enumerate(graph.ops):
            if unscheduled_preds[op.uid] == 0:
                heapq.heappush(ready, (-graph.height(op.uid), seq, op.uid))

        # Resource tables: (cycle, cluster, fu_class) -> used; bus per cycle.
        fu_used: Dict[Tuple[int, int, FUClass], int] = {}
        bus_used: Dict[int, int] = {}
        bandwidth = machine.network.bandwidth

        moves = 0
        scheduled = 0
        total = len(graph.ops)
        cycle = 0
        max_completion = 0
        seq_counter = total

        while scheduled < total:
            # Pull ops whose dependence-earliest time has arrived.
            issued_this_cycle = True
            while issued_this_cycle:
                issued_this_cycle = False
                deferred: List[Tuple[int, int, int]] = []
                while ready:
                    neg_height, seq, uid = heapq.heappop(ready)
                    op = graph.op_by_uid[uid]
                    t = max(cycle, earliest[uid])
                    if t > cycle:
                        deferred.append((neg_height, seq, uid))
                        continue
                    if not self._reserve(op, cluster_of, cycle, fu_used, bus_used, bandwidth):
                        deferred.append((neg_height, seq, uid))
                        continue
                    issue[uid] = cycle
                    scheduled += 1
                    if op.opcode is Opcode.ICMOVE:
                        moves += 1
                    completion = cycle + machine.latency_of(op)
                    max_completion = max(max_completion, completion)
                    for edge in graph.succs[uid]:
                        earliest[edge.dst] = max(
                            earliest[edge.dst], cycle + edge.delay
                        )
                        unscheduled_preds[edge.dst] -= 1
                        if unscheduled_preds[edge.dst] == 0:
                            seq_counter += 1
                            heapq.heappush(
                                ready,
                                (-graph.height(edge.dst), seq_counter, edge.dst),
                            )
                    issued_this_cycle = True
                for item in deferred:
                    heapq.heappush(ready, item)
            cycle += 1
            if cycle > 4 * total * (machine.move_latency + 8) + 64:
                raise RuntimeError(
                    f"scheduler failed to converge on block {block.name}"
                )

        # A block takes at least one cycle per issued terminator.
        length = max(max_completion, 1)
        return ScheduleResult(block, issue, length, moves)

    def _reserve(
        self,
        op: Operation,
        cluster_of: Dict[int, int],
        cycle: int,
        fu_used: Dict[Tuple[int, int, FUClass], int],
        bus_used: Dict[int, int],
        bandwidth: int,
    ) -> bool:
        """Try to reserve the resources for issuing ``op`` at ``cycle``."""
        if op.opcode is Opcode.ICMOVE:
            if bus_used.get(cycle, 0) >= bandwidth:
                return False
            bus_used[cycle] = bus_used.get(cycle, 0) + 1
            return True
        cluster = cluster_of[op.uid]
        cls = self.machine.fu_class_of(op)
        key = (cycle, cluster, cls)
        if fu_used.get(key, 0) >= self.machine.units(cluster, cls):
            return False
        fu_used[key] = fu_used.get(key, 0) + 1
        return True
