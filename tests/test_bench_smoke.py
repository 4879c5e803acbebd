"""Smoke run of the benchmark: each workload in quick mode, untraced and
traced, must check its outputs as correct with no failed command. Timings
are not asserted. The traced run wraps the package's functions by
attribute name, so it also fails when a wrapped name is gone, and the
span counts show when a layer's calls no longer pass through them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["saturated-1000", "fig3-bursty", "analytic-sweeps"]
# spans each workload's traced run must record
TRACED_LAYERS = {
    "saturated-1000": ["simcore.runs", "metrics.calls", "analytical.calls", "csv.rows"],
    "fig3-bursty": ["simcore.runs", "workload.bursts", "metrics.calls", "csv.rows"],
    "analytic-sweeps": ["analytical.calls", "csv.rows"],
}


@pytest.mark.parametrize("workload,trace", [
    *[pytest.param(w, "0", id=w) for w in WORKLOADS],
    *[pytest.param(w, "1", id=f"{w}-traced") for w in WORKLOADS],
])
def test_quick_benchmark_run_is_correct(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--quick", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, done.stderr
    assert summary["attempted"] > 0
    assert summary["failed"] == 0
    if trace == "1":
        for name in TRACED_LAYERS[workload]:
            assert summary["metrics"][name]["value"] > 0, name
