"""Differential golden for RHOP: per-cell assignments, cycles and moves.

Every cell is one benchmark x scheme x machine.  Its record holds the
evaluated cycles and dynamic moves, a sha256 of the final op -> cluster
assignment (keyed by textual position, so it does not depend on the
process-global op uids) and a sha256 of the object homes.  Any change to
RHOP, its schedule estimator or the schemes around them that alters a
single placement shows up as a mismatch.

Machines: the paper's 2-cluster machine at move latency 1, 5 and 10,
plus the 4-cluster and heterogeneous machines at latency 5 (the only
cells where a refinement trial has more than one destination cluster).

Usage (from the repository root, ``PYTHONPATH=src``)::

    python scripts/rhop_golden.py --check            # full matrix
    python scripts/rhop_golden.py --check --bench fir --bench fft
    python scripts/rhop_golden.py --write            # regenerate

``--check`` exits 0 when every checked cell matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "tests", "goldens", "rhop_assignments.json",
)

#: (machine label, move latency) per cell column.
MACHINES: List[Tuple[str, int]] = [
    ("two", 1), ("two", 5), ("two", 10), ("four", 5), ("hetero", 5),
]


def build_machine(label: str, latency: int):
    from repro.machine import (
        four_cluster_machine,
        heterogeneous_machine,
        two_cluster_machine,
    )

    if label == "two":
        return two_cluster_machine(move_latency=latency)
    if label == "four":
        return four_cluster_machine(move_latency=latency)
    if label == "hetero":
        return heterogeneous_machine(move_latency=latency)
    raise ValueError(f"unknown machine {label!r}")


def cell_key(bench: str, scheme: str, label: str, latency: int) -> str:
    return f"{bench}/{scheme}/{label}/{latency}"


def _sha(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def outcome_record(outcome) -> Dict:
    """The golden record of one scheme outcome."""
    assignment = outcome.assignment
    placed = []
    for func in outcome.module:
        for block in func:
            for index, op in enumerate(block.ops):
                placed.append(
                    f"{func.name}/{block.name}/{index:05d}/{op.opcode.name}"
                    f"={assignment.get(op.uid)}"
                )
    homes = outcome.object_home or {}
    return {
        "cycles": outcome.cycles,
        "dynamic_moves": outcome.dynamic_moves,
        "assignment_sha256": _sha(placed),
        "homes_sha256": _sha(f"{obj}={c}" for obj, c in homes.items()),
    }


def bench_records(
    bench: str, machines: Optional[List[Tuple[str, int]]] = None
) -> Dict[str, Dict]:
    """Records of every scheme x machine cell of one benchmark (one
    prepare serves them all)."""
    from repro import RunConfig
    from repro.bench import get
    from repro.exec import SCHEMES
    from repro.pipeline import PreparedProgram, run_scheme

    program = get(bench)
    prepared = PreparedProgram.from_source(
        program.source, program.name, config=RunConfig(cache="off")
    )
    records = {}
    for label, latency in machines or MACHINES:
        machine = build_machine(label, latency)
        for scheme in SCHEMES:
            outcome = run_scheme(prepared, machine, scheme)
            records[cell_key(bench, scheme, label, latency)] = outcome_record(
                outcome
            )
    return records


def load_golden(path: str = GOLDEN) -> Dict[str, Dict]:
    with open(path) as handle:
        return json.load(handle)["cells"]


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("--bench", action="append", default=None,
                        help="restrict to these benchmarks (repeatable)")
    parser.add_argument("--golden", default=GOLDEN)
    args = parser.parse_args(argv)

    benches = args.bench or names()
    if args.write:
        cells: Dict[str, Dict] = {}
        for bench in benches:
            cells.update(bench_records(bench))
            print(f"recorded {bench}", flush=True)
        with open(args.golden, "w") as handle:
            json.dump({"cells": cells}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(cells)} cells to {args.golden}")
        return 0

    golden = load_golden(args.golden)
    bad = checked = 0
    for bench in benches:
        for key, record in bench_records(bench).items():
            checked += 1
            expected = golden.get(key)
            if record != expected:
                bad += 1
                print(f"FAIL: {key}: {record} != {expected}")
        print(f"checked {bench}", flush=True)
    print(f"{checked - bad}/{checked} cells match the golden")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
