"""The benchmark's own tests: every check passes the program's real output
and rejects a perturbed copy of it, and quick mode runs every workload.

  python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from fddiperf import cli  # noqa: E402
from workloads import WORKLOADS, dense_grid  # noqa: E402


def cli_rows(tmp_path: Path, *argv: str) -> list[dict]:
    out = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0
    return list(csv.DictReader(io.StringIO(out.read_text())))


def perturbed(rows: list[dict], index: int, **changes) -> list[dict]:
    copy = [dict(r) for r in rows]
    copy[index].update({k: str(v) for k, v in changes.items()})
    return copy


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    return cli_rows(tmp_path_factory.mktemp("dense"), "sweep", "--var", "ttrt", "--grid",
                    dense_grid(5), "--preset", "largest", "--frame-bytes", "512")


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    return cli_rows(tmp_path_factory.mktemp("table1"), "table1")


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    return cli_rows(tmp_path_factory.mktemp("fig3"), "sweep", "--figure", "fig3",
                    "--seed", "9", "--duration-ms", "100")


def saturated_row(tmp_path: Path, *extra: str) -> list[dict]:
    return cli_rows(tmp_path, "simulate", "--preset", "largest", "--frame-bytes", "100",
                    "--duration-ms", "100", *extra)


def test_analytical_check_passes_every_figure(tmp_path):
    for figure in ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        assert checks.analytical_problems(cli_rows(tmp_path, "sweep", "--figure", figure)) == []


def test_analytical_check_rejects_perturbed_rows(dense):
    assert checks.analytical_problems(dense) == []
    saturated = next(i for i, r in enumerate(dense) if r["error"])
    live = next(i for i, r in enumerate(dense) if not r["error"])
    row = dense[live]
    for change in (
        {"efficiency": float(row["efficiency"]) * (1 + 1e-6)},
        {"max_access_delay_ms": float(row["max_access_delay_ms"]) * (1 + 1e-6)},
        {"frames_per_opportunity": int(row["frames_per_opportunity"]) + 1},
        {"efficiency_pct_rounded": float(row["efficiency_pct_rounded"]) + 0.01},
        {"access_delay_s_rounded": float(row["access_delay_s_rounded"]) + 0.01},
        {"error": checks.SATURATED_MARKER},
    ):
        assert checks.analytical_problems(perturbed(dense, live, **change)), change
    assert checks.analytical_problems(perturbed(dense, saturated, error="", efficiency=0.5))


def test_table1_check_rejects_a_cell_off_the_published_table(table1):
    assert checks.table1_problems(table1) == []
    assert checks.table1_problems(perturbed(table1, 4, efficiency_pct_rounded=99.8))
    assert checks.table1_problems(table1[:-1])


def test_saturated_check_rejects_perturbed_rows(tmp_path):
    for extra in (("--ttrt", "8"), ("--ttrt", "165"), ("--ttrt", "165", "--no-overflow")):
        rows = saturated_row(tmp_path, *extra)
        assert checks.saturated_problems(rows) == []
        row = rows[0]
        eff, tol = float(row["efficiency"]), checks.saturated_tolerance(row)
        high = checks.saturated_expectation(row) + 1.5 * tol
        assert checks.saturated_problems(
            perturbed(rows, 0, efficiency=high, throughput_mbps=high * 100))
        assert checks.saturated_problems(perturbed(rows, 0, max_rotation_ms=2 * float(row["ttrt_ms"])))
        assert checks.saturated_problems(perturbed(rows, 0, throughput_mbps=eff * 101))
    # the last row ran without overflow; passed off as an overflow run, an
    # efficiency below the closed form must fail too
    low = checks.saturated_expectation(row) - 1.5 * tol
    assert checks.saturated_problems(perturbed(rows, 0, async_overflow="true", efficiency=low,
                                               throughput_mbps=low * 100))


def test_bursty_check_rejects_perturbed_rows(fig3):
    assert checks.bursty_problems(fig3, 9, 15) == []
    row = fig3[7]
    offered = float(row["offered_load_mbps"])
    for change in (
        {"throughput_mbps": offered * (1 + 2 * checks.wic_throughput_tolerance(row))},
        {"p95_response_ms": float(row["max_response_ms"]) * 1.01},
        {"mean_response_ms": float(row["p95_response_ms"]) * 1.01},
        {"max_access_ms": 40 * float(row["ttrt_ms"])},
        {"interburst_ms": float(row["interburst_ms"]) * 1.01},
        {"seed": 10},
    ):
        assert checks.bursty_problems(perturbed(fig3, 7, **change), 9, 15), change
    assert checks.bursty_problems(fig3[:-1], 9, 15)


def test_accounting_check():
    assert checks.accounting_problems(SimpleNamespace(busy_ns=5, overhead_ns=3, idle_ns=2, duration_ns=10)) == []
    assert checks.accounting_problems(SimpleNamespace(busy_ns=5, overhead_ns=3, idle_ns=1, duration_ns=10))


def test_frame_counts_accepts_either_side_of_a_whole_budget():
    assert checks.frame_counts(8.0, 2.0, 1.5) == (4, 5)
    assert checks.frame_counts(8.0, 2.0, 1.4) == (5,)


def test_a_pass_writing_other_bytes_fails(tmp_path):
    calls = []

    def drifting_main(argv):
        code = cli.main(argv)
        calls.append(argv)
        if len(calls) > 3:  # every command of the second pass
            with open(argv[-1], "a") as fh:
                fh.write("\n")
        return code

    wl = run.Workload("saturated-1000", 1, True, tmp_path)
    wl.run_pass(drifting_main)
    assert (wl.attempted, wl.failed) == (3, 0)
    wl.run_pass(drifting_main)
    assert (wl.attempted, wl.failed) == (6, 3)


def test_dense_grid_depends_on_seed_only():
    assert dense_grid(3) == dense_grid(3) != dense_grid(4)
    values = [float(v) for v in dense_grid(3).split(",")]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] < checks.ring_latency_ms(200.0, 1000) < values[-1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_mode_prints_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig3-bursty", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
