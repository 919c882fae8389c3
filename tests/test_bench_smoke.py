"""The benchmark harness still runs: one small operation per workload, every check on."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stdout + run.stderr
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    lines = run.stdout.split("\n")
    for name in workloads:
        for trace in (0, 1):
            line = next(l for l in lines if l.split()[:2] == [name, f"trace={trace}"])
            assert "correct=True" in line.split(), line
