"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every end-to-end metric of ``BENCHMARK.json``, with ``--trace 1`` every
per-layer one (0 for a layer the workload never enters).  The line
before it carries the run's details (seed, sample counts, percentiles,
self-time table).  A traced run also writes its spans to
``.perfbench/trace-<workload>-<seed>.json``.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return _fail("run from the root of a checkout: src/repro is missing")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # Anything that falls back to the default artifact store stays inside
    # the checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    try:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(out.attempted, 1)
    # A failed check that names no single operation still fails one.
    failed = max(out.failed_ops, int(bool(out.problems)))
    if args.trace:
        trace_path = os.path.join(
            root, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
        out.tracer.dump(trace_path)
        out.detail["trace_file"] = os.path.relpath(trace_path, root)
        wanted = spec["per_layer"]
        values = {m["name"]: out.metrics.get(m["name"], 0.0) for m in wanted}
    else:
        out.metrics["ok_share"] = (attempted - failed) / attempted
        out.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
        if missing:
            return _fail(f"workload {args.workload} produced no {missing}")
        values = {m["name"]: out.metrics[m["name"]] for m in wanted}

    correct = not out.problems
    out.detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, problems=out.problems[:20])
    print(json.dumps({"detail": out.detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
