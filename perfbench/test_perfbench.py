"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest perfbench -q``."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from stats import tail  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _interpret(source, name, **compile_args):
    from repro.lang import compile_source
    from repro.profiler import Interpreter

    interp = Interpreter(compile_source(source, name, **compile_args))
    interp.run()
    return interp.profile.output


# -- seeded inputs -------------------------------------------------------------


def _mix_fingerprint(seed):
    mix = inputs.service_mix(seed, 5)
    return mix.warm_cells, [
        (s.due_s, s.tenant, s.scheme, s.bench, s.source) for s in mix.submissions
    ]


def test_same_seed_same_inputs_and_other_seed_differs():
    assert inputs.cold_sweep_cells(7) == inputs.cold_sweep_cells(7)
    assert inputs.cold_sweep_cells(7) != inputs.cold_sweep_cells(8)
    names = ["a", "b", "c"]
    assert inputs.prepare_matrix_cells(names, 7) == inputs.prepare_matrix_cells(names, 7)
    assert inputs.prepare_matrix_cells(names, 7) != inputs.prepare_matrix_cells(names, 8)
    assert _mix_fingerprint(7) == _mix_fingerprint(7)
    assert _mix_fingerprint(7) != _mix_fingerprint(8)


def test_service_programs_are_distinct_and_print_their_expected_output():
    mix = inputs.service_mix(11, 10)
    cold = [s for s in mix.submissions if s.cold]
    assert cold and len({s.source for s in cold}) == len(cold)
    # One cold job ends each segment, so none slows the warm jobs after it.
    assert [s.index for s in cold] == list(range(
        inputs.SEGMENT_JOBS - 1, len(mix.submissions), inputs.SEGMENT_JOBS))
    for sub in cold[:4]:
        assert _interpret(sub.source, sub.name) == sub.expected_output


def test_expected_outputs_match_the_unoptimised_interpreter():
    from repro.bench import get, names

    expected = workloads.expected_outputs()
    assert sorted(expected) == names()
    for bench in ("djpeg", "rawdaudio", "unepic"):
        assert _interpret(get(bench).source, bench) == expected[bench]


# -- spans ---------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_union_of_child_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.set_thread_trace("cell0")
    root = tracer.open("root")                # 0 .. 10
    clock.now = 1.0
    child = tracer.open("child")              # 1 .. 4
    clock.now = 2.0
    with tracer.span("grandchild"):           # 2 .. 3
        clock.now = 3.0
    clock.now = 4.0
    tracer.close(child)
    clock.now = 6.0
    with tracer.span("child"):                # 6 .. 9
        clock.now = 9.0
    clock.now = 10.0
    tracer.close(root)
    own = tracer.self_seconds_by_name()
    assert own == {"root": 4.0, "child": 5.0, "grandchild": 1.0}
    assert {tracer.resolved_trace(s) for s in tracer.spans} == {"cell0"}


def test_trace_id_set_on_close_reaches_the_children():
    tracer = Tracer()
    submit = tracer.open("service.submit")
    with tracer.span("service.journal_append"):
        pass
    submit.trace = "j000001"
    tracer.close(submit)
    assert [tracer.resolved_trace(s) for s in tracer.spans] == ["j000001"] * 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == {"value": 90, "percentile": 90.0, "samples": 100}
    small = tail([5, 1, 3])
    assert small["value"] == 3 and small["percentile"] == 50.0


# -- output gate ---------------------------------------------------------------


def test_output_gate_fails_on_a_wrong_expected_output(tmp_path):
    expected = workloads.expected_outputs()
    wrong = dict(expected, rawdaudio=[v + 1 for v in expected["rawdaudio"]])
    out = workloads.Outcome({})
    for profile in ("dynamic", "static"):
        workloads._prepare("rawdaudio", profile, "andersen", str(tmp_path), wrong, out)
    assert out.attempted == 2 and out.failed_ops == 1
    assert len(out.problems) == 1 and "rawdaudio/andersen profile" in out.problems[0]
    good = workloads.Outcome({})
    workloads._prepare("rawdaudio", "dynamic", "andersen", str(tmp_path), expected, good)
    assert good.problems == [] and good.failed_ops == 0


# -- the command's contract ----------------------------------------------------


def test_benchmark_json_names_units_and_directions():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"] and metric["better"] in ("higher", "lower")
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics(Tracer())) <= per_layer


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared_with_its_unit(trace, kind):
    done = _run(ROOT, "--workload", "service-mix", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "cold-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
