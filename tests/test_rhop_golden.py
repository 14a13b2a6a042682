"""Differential golden for RHOP: a fixed subset of the recorded cells.

``tests/goldens/rhop_assignments.json`` records, per benchmark x scheme x
machine, the cycles, dynamic moves and hashes of the op -> cluster
assignment and object homes.  This test re-derives a subset of those
cells; ``scripts/check.sh rhop`` checks the whole matrix.
"""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "rhop_golden.py"
)


def _load_script():
    spec = importlib.util.spec_from_file_location("rhop_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rhop_golden = _load_script()

#: bench -> machine columns checked in tier 1.
SUBSET = {
    "rawcaudio": [("two", 1), ("two", 5), ("two", 10), ("four", 5), ("hetero", 5)],
    "fir": [("two", 1), ("two", 5), ("two", 10)],
    "fft": [("two", 5)],
    "huffman": [("two", 5)],
    "cjpeg": [("two", 5)],
    "unepic": [("two", 5)],
    "rawdaudio": [("four", 5), ("hetero", 5)],
}


@pytest.fixture(scope="module")
def golden():
    return rhop_golden.load_golden()


def test_golden_covers_the_full_matrix(golden):
    from repro.bench import names
    from repro.exec import SCHEMES

    expected = {
        rhop_golden.cell_key(bench, scheme, label, latency)
        for bench in names()
        for scheme in SCHEMES
        for label, latency in rhop_golden.MACHINES
    }
    assert set(golden) == expected


@pytest.mark.parametrize("bench", sorted(SUBSET))
def test_rhop_cells_match_golden(golden, bench):
    records = rhop_golden.bench_records(bench, SUBSET[bench])
    assert records
    for key, record in records.items():
        assert record == golden[key], key
