"""The benchmark's own checks pass against the current sources.

A copy of the sources, the benchmark harness and its declaration is run in a
scratch directory with ``--smoke`` (every workload at tiny n, untraced and
traced), so a change under ``src/`` that breaks what the benchmark checks
fails the suite rather than only the next benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    report = proc.stdout + proc.stderr
    assert proc.returncode == 0, report
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, report
