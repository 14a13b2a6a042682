"""The documented entry points run as written: the package docstring's
usage block, README's quickstart, and the fast example scripts."""

import os
import re
import subprocess
import sys
import textwrap

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_block(code: str, label: str) -> None:
    exec(compile(code, label, "exec"), {"__name__": label})


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Keep any cache="on" example inside the test's temp directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_package_docstring_runs(cache_dir, capsys):
    block = textwrap.dedent(repro.__doc__.split("Typical use::", 1)[1])
    _run_block(block, "repro.__doc__")
    scheme, cycles = capsys.readouterr().out.split()
    assert scheme == "gdp" and float(cycles) > 0


def test_readme_quickstart_runs(cache_dir, capsys):
    with open(os.path.join(ROOT, "README.md")) as handle:
        readme = handle.read()
    section = readme.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    _run_block(block, "README quickstart")
    out = capsys.readouterr().out
    for scheme in ("unified", "gdp", "profilemax", "naive"):
        assert scheme in out
    assert "GDP object homes:" in out


@pytest.mark.parametrize("script", ["quickstart.py", "minic_tour.py"])
def test_example_script_runs(script, cache_dir):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
