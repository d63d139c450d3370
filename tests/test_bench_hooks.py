"""The benchmark's hooks into the program, run as the benchmark runs them.

`bench/run.py` times `SETUP_CODE` (config parsing and sweep expansion) in a
fresh process per fixture, and `bench/traced_cli.py` wraps the public
functions of every module by name. A deletion or rename in `src/` that
breaks either fails here rather than only in a benchmark run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=ROOT,
                          capture_output=True, text=True)


def setup_code() -> str:
    """`SETUP_CODE` as `bench/run.py` assigns it, read without importing the benchmark."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"])


@pytest.mark.parametrize("fixture", ["table1.ini", "table2.ini", "figures.ini"])
def test_setup_code_runs_on_each_fixture(fixture, fixtures_dir):
    done = run_python(["-c", setup_code(), fixtures_dir / fixture])
    assert done.returncode == 0, done.stderr


def test_traced_cli_records_pipeline_durations(tmp_path, fixtures_dir):
    trace = tmp_path / "trace.json"
    done = run_python([BENCH / "traced_cli.py", trace, "entropy",
                       "--config", fixtures_dir / "table2.ini"])
    assert done.returncode == 0, done.stderr
    durations = json.loads(trace.read_text())["durations"]["entropy.entropy_pipeline"]
    assert durations and all(d > 0.0 for d in durations)
