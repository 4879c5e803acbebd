"""Smoke run of the benchmark: each workload in quick mode must check its
outputs as correct with no failed command. Timings are not asserted."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["saturated-1000", "fig3-bursty", "analytic-sweeps"])
def test_quick_benchmark_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, done.stderr
    assert summary["attempted"] > 0
    assert summary["failed"] == 0
