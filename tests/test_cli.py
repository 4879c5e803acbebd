"""CLI tests: subcommand outputs, exit codes, CSV schema, config-file
override precedence, --dump-config, and the saturated-row marker."""

from __future__ import annotations

import argparse
import csv
import errno
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from fddiperf import analytical, cli, metrics, presets, simcore, workload


def _run(argv):
    return cli.main(argv)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_analyze_typical(capsys):
    assert _run(["analyze", "--preset", "typical", "--ttrt", "4"]) == 0
    out = capsys.readouterr().out
    assert "98.94%" in out
    assert "(0.08 s)" in out


def test_analyze_largest_165(capsys):
    assert _run(["analyze", "--preset", "largest", "--ttrt", "165"]) == 0
    out = capsys.readouterr().out
    assert "(164.84 s)" in out


def test_analyze_zero_latency_ring(capsys):
    # one MAC still contributes its repeat delay, so this rounds to 99.98%;
    # a literally zero-latency ring needs zero MACs and an explicit --active
    assert _run(["analyze", "--fiber-km", "0", "--macs", "1", "--ttrt", "8"]) == 0
    out = capsys.readouterr().out
    assert "(99.98%)" in out
    assert _run([
        "analyze", "--fiber-km", "0", "--macs", "0", "--active", "1", "--ttrt", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "(100.00%)" in out


def test_analyze_saturated_exits_one(capsys):
    rc = _run(["analyze", "--preset", "largest", "--ttrt", "1"])
    assert rc == 1
    assert cli.SATURATED_MARKER in capsys.readouterr().err


def test_analyze_requires_ring(capsys):
    assert _run(["analyze", "--ttrt", "8"]) == 2
    assert _run(["analyze", "--macs", "10", "--ttrt", "8"]) == 2


def test_analyze_overflow_outputs(capsys):
    rc = _run([
        "analyze", "--preset", "big", "--ttrt", "8", "--frame-bytes", "4500",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overflow_frames_per_opportunity: 20" in out


def test_table1_green(tmp_path):
    out = tmp_path / "t1.csv"
    assert _run(["table1", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 18
    big8 = next(r for r in rows if r["preset"] == "big" and r["sweep_value"] == "8.0")
    assert big8["efficiency_pct_rounded"] == "85.92"
    assert big8["access_delay_s_rounded"] == "0.79"
    assert all(r["error"] == "" for r in rows)


def test_table1_mismatch_is_a_verdict_with_the_csv_kept(tmp_path, monkeypatch, capsys):
    # one wrong golden cell: exit 1, the mismatch on stderr, and the CSV
    # written with that row alone marked
    monkeypatch.setitem(presets.TABLE1_GOLDEN["big"], 8.0, (0.79, 85.93))
    out = tmp_path / "t1.csv"
    assert _run(["table1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "golden table mismatches:",
        "  big/8 ms: access 0.79 (golden 0.79), efficiency 85.92 (golden 85.93)",
    ]
    rows = _read_csv(out)
    assert len(rows) == 18
    marked = [(r["preset"], r["sweep_value"], r["error"]) for r in rows if r["error"]]
    assert marked == [("big", "8.0", "golden_mismatch")]


def test_validate_exit_codes(capsys):
    assert _run(["validate", "--ttrt", "8", "--max-ring"]) == 0
    assert _run(["validate", "--ttrt", "3", "--max-ring"]) == 1
    out = capsys.readouterr().out
    assert "rule 3" in out


def test_validate_advisory(capsys):
    rc = _run([
        "validate", "--ttrt", "8", "--max-ring", "--service-interval-ms", "20",
    ])
    assert rc == 0
    assert "advisory_ttrt_ms: 10" in capsys.readouterr().out


def test_validate_rule_4_keeps_the_advisory(capsys):
    argv = ["validate", "--ttrt", "170", "--max-ring", "--service-interval-ms", "30"]
    assert _run(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert "verdict: violates rules 4" in out
    assert "  rule 4: TTRT 170 ms exceeds T_max = 165 ms" in out
    assert "  rule 1 advisory: a 30 ms service interval calls for requesting TTRT = 15 ms" in out


def test_validate_min_legal(capsys):
    _run(["validate", "--ttrt", "8", "--max-ring"])
    assert "2.134" in capsys.readouterr().out


def test_simulate_report_and_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = _run([
        "simulate", "--preset", "typical", "--ttrt", "8",
        "--duration-ms", "200", "--seed", "5", "--token-time-us", "0",
        "--out", str(out),
    ])
    assert rc == 0
    assert "efficiency:" in capsys.readouterr().out
    rows = _read_csv(out)
    assert len(rows) == 1
    assert rows[0]["mode"] == "simulated"
    assert rows[0]["seed"] == "5"
    assert float(rows[0]["efficiency"]) > 0.9


def test_simulate_wic_workload(tmp_path):
    out = tmp_path / "wic.csv"
    rc = _run([
        "simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic",
        "--load-pct", "30", "--duration-ms", "300", "--out", str(out),
    ])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["load_pct"] == "30.0"
    assert float(row["mean_response_ms"]) > 0


def test_sweep_custom_with_saturated_marker(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = _run([
        "sweep", "--var", "ttrt", "--grid", "1,2,4,8", "--preset", "largest",
        "--mode", "analytical", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    assert [r["sweep_value"] for r in rows] == ["1.0", "2.0", "4.0", "8.0"]
    assert rows[0]["error"] == cli.SATURATED_MARKER  # 1 ms < D = 2.017 ms
    assert rows[1]["error"] == cli.SATURATED_MARKER
    assert rows[2]["error"] == ""
    assert float(rows[3]["efficiency"]) > float(rows[2]["efficiency"])


def test_sweep_figure_fig8_variation_small(tmp_path):
    out = tmp_path / "fig8.csv"
    assert _run(["sweep", "--figure", "fig8", "--out", str(out)]) == 0
    rows = _read_csv(out)
    effs = [float(r["efficiency"]) for r in rows]
    assert max(effs) / min(effs) < 1.05
    assert all(r["frames_per_opportunity"] for r in rows)


def test_sweep_mode_both_agrees(tmp_path):
    out = tmp_path / "both.csv"
    rc = _run([
        "sweep", "--var", "ttrt", "--grid", "8,20", "--preset", "typical",
        "--mode", "both", "--frame-bytes", "512", "--token-time-us", "0",
        "--duration-ms", "400", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    for value in ("8.0", "20.0"):
        pair = [r for r in rows if r["sweep_value"] == value]
        ana = next(r for r in pair if r["mode"] == "analytical")
        sim = next(r for r in pair if r["mode"] == "simulated")
        assert float(sim["efficiency"]) == pytest.approx(
            float(ana["efficiency"]), rel=0.02
        )


def test_sweep_other_variables(tmp_path):
    # extent: latency grows with fiber, efficiency falls
    out = tmp_path / "ext.csv"
    assert _run([
        "sweep", "--var", "extent", "--grid", "10,100,200", "--macs", "100",
        "--ttrt", "8", "--out", str(out),
    ]) == 0
    effs = [float(r["efficiency"]) for r in _read_csv(out)]
    assert effs[0] > effs[1] > effs[2]

    # total stations: more repeaters, lower efficiency
    out = tmp_path / "tot.csv"
    assert _run([
        "sweep", "--var", "total_stations", "--grid", "50,500,1000",
        "--fiber-km", "200", "--ttrt", "8", "--active", "10", "--out", str(out),
    ]) == 0
    effs = [float(r["efficiency"]) for r in _read_csv(out)]
    assert effs[0] > effs[1] > effs[2]

    # active MACs: more contenders, higher efficiency, longer delay
    out = tmp_path / "act.csv"
    assert _run([
        "sweep", "--var", "active_macs", "--grid", "1,10,100",
        "--preset", "largest", "--ttrt", "8", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    effs = [float(r["efficiency"]) for r in rows]
    delays = [float(r["max_access_delay_ms"]) for r in rows]
    assert effs == sorted(effs) and delays == sorted(delays)

    # frame size sweep carries the overflow frame count
    out = tmp_path / "fr.csv"
    assert _run([
        "sweep", "--var", "frame_size", "--grid", "100,4500",
        "--preset", "big", "--ttrt", "8", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    assert int(rows[0]["frames_per_opportunity"]) > int(rows[1]["frames_per_opportunity"])


def test_sweep_grid_validation():
    assert _run(["sweep", "--var", "ttrt", "--grid", "8,4", "--preset", "big"]) == 2
    assert _run(["sweep", "--var", "ttrt", "--preset", "big"]) == 2
    assert _run(["sweep", "--var", "nope", "--grid", "1,2", "--preset", "big"]) == 2
    assert _run(["sweep", "--figure", "fig99"]) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[ring]\npreset = typical\nttrt = 4\n")
    assert _run(["analyze", "--config", str(cfg)]) == 0
    assert "98.94%" in capsys.readouterr().out
    # explicit flag beats the file value
    assert _run(["analyze", "--config", str(cfg), "--ttrt", "8"]) == 0
    assert "99.47%" in capsys.readouterr().out


def test_dump_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[ring]\npreset = big\n")
    rc = _run(["analyze", "--config", str(cfg), "--ttrt", "8", "--dump-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[ring]" in out
    assert "ttrt = 8.0" in out
    assert "preset = big" in out


def test_sweep_csv_reproducible(tmp_path):
    args = [
        "sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical",
        "--mode", "simulate", "--frame-bytes", "512", "--duration-ms", "200",
        "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_out_runs_the_simulation_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_run = simcore.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(simcore, "run", counting_run)
    out = tmp_path / "sim.csv"
    rc = _run([
        "simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic",
        "--load-pct", "40", "--duration-ms", "100", "--out", str(out),
    ])
    assert rc == 0
    assert len(calls) == 1
    row = _read_csv(out)[0]
    # stdout and the CSV row come from the same report
    printed = capsys.readouterr().out
    assert f"efficiency: {float(row['efficiency'])!r}" in printed


def _stats_cells(text: str, keys: list[str]) -> list[str]:
    """The values of a printed statistic, "mean=.. max=.. n=..", named by
    keys in its order; "no samples" as the empty cells the CSV holds."""
    if text == "no samples":
        return [""] * len(keys)
    values = dict(part.split("=") for part in text.split())
    return [values[key] for key in keys]


@pytest.mark.parametrize("argv,absent", [
    (["--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "58"], []),
    (["--preset", "largest", "--frame-bytes", "100", "--ttrt", "8"],
     ["offered_load_mbps: saturated", "response_ms: no samples", "access_ms: no samples"]),
])
def test_simulate_stdout_and_csv_agree_field_by_field(argv, absent, tmp_path, monkeypatch,
                                                      capsys):
    built = []
    real_fields = cli._report_fields

    def counting_fields(report):
        built.append(report)
        return real_fields(report)

    monkeypatch.setattr(cli, "_report_fields", counting_fields)
    out = tmp_path / "sim.csv"
    assert _run(["simulate", *argv, "--duration-ms", "50", "--out", str(out)]) == 0
    assert len(built) == 1  # one report's text and cells, built once
    row = _read_csv(out)[0]
    lines = capsys.readouterr().out.splitlines()
    assert set(absent) <= set(lines)
    printed = dict(line.split(": ", 1) for line in lines)
    for key in ("throughput_mbps", "efficiency", "max_rotation_ms"):
        assert printed[key] == row[key]
    load = printed["offered_load_mbps"]
    assert ("" if load == "saturated" else load) == row["offered_load_mbps"]
    assert _stats_cells(printed["response_ms"], ["mean", "p95", "max"]) == [
        row["mean_response_ms"], row["p95_response_ms"], row["max_response_ms"]]
    assert _stats_cells(printed["access_ms"], ["mean", "max"]) == [
        row["mean_access_ms"], row["max_access_ms"]]


@pytest.mark.parametrize("ring,ttrt,simulate_only", [
    (["--preset", "typical", "--load-pct", "58", "--seed", "4"], "8", ["--workload", "wic"]),
    (["--preset", "largest", "--frame-bytes", "100", "--no-overflow"], "8", []),
    (["--macs", "30", "--fiber-km", "6", "--active", "7", "--frame-bytes", "4500",
      "--token-time-us", "0"], "12", []),
])
def test_simulate_writes_the_row_of_a_one_point_sweep(ring, ttrt, simulate_only, tmp_path):
    # simulate and a simulated sweep build a run's row on one path
    one, swept = tmp_path / "one.csv", tmp_path / "swept.csv"
    common = ring + ["--duration-ms", "50"]
    assert _run(["simulate", "--ttrt", ttrt, *simulate_only, *common, "--out", str(one)]) == 0
    assert _run(["sweep", "--var", "ttrt", "--grid", ttrt, "--mode", "simulate", *common,
                 "--out", str(swept)]) == 0
    (row,), (point,) = _read_csv(one), _read_csv(swept)
    assert (point.pop("sweep_var"), point.pop("sweep_value")) == ("ttrt", str(float(ttrt)))
    assert (row.pop("sweep_var"), row.pop("sweep_value")) == ("", "")
    assert row == point
    assert row["mode"] == "simulated" and row["efficiency"]


@pytest.mark.parametrize("argv,rows,max_runs", [
    (["sweep", "--figure", "fig3", "--duration-ms", "50"], 15, 14),
    # a certified run at one extent stands in for no other extent
    (["sweep", "--var", "extent", "--grid", "10,20,40", "--preset", "typical",
      "--mode", "simulate", "--load-pct", "40", "--duration-ms", "20"], 3, 3),
])
def test_sweep_holds_no_result_across_a_real_run(argv, rows, max_runs, tmp_path, monkeypatch):
    # a sweep keeps only runs that TTRT provably did not bind, and drops even
    # those before it simulates again
    real_run = simcore.run
    earlier = []

    def tracked_run(*args, **kwargs):
        assert all(ref() is None for ref in earlier)
        result = real_run(*args, **kwargs)
        earlier.append(weakref.ref(result))
        return result

    monkeypatch.setattr(simcore, "run", tracked_run)
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 0
    assert len(_read_csv(out)) == rows
    assert len(earlier) <= max_runs


@pytest.mark.parametrize("replications", [1, 2])
def test_a_sweep_draws_the_bursts_of_each_load_and_replication_once(replications, tmp_path,
                                                                      monkeypatch):
    # each TTRT point of a load reads the bursts its replication drew first
    from fddiperf import workload
    real_next_burst, real_arrivals = workload.WicGenerator.next_burst, simcore.Arrivals
    bursts, keys = [], []

    def counted_next_burst(self, now_ns):
        bursts.append(now_ns)
        return real_next_burst(self, now_ns)

    def counted_arrivals(*key):
        keys.append(key)
        return real_arrivals(*key)

    monkeypatch.setattr(workload.WicGenerator, "next_burst", counted_next_burst)
    monkeypatch.setattr(simcore, "Arrivals", counted_arrivals)
    assert _run(["sweep", "--figure", "fig3", "--duration-ms", "100", "--replications",
                 str(replications), "--out", str(tmp_path / "out.csv")]) == 0
    expected = [(workload.WicWorkload.for_utilization(load / 100.0, presets.FIG3_STATIONS),
                 presets.FIG3_STATIONS, 1 + rep, 100.0)
                for load in presets.FIG3_LOAD_PCT for rep in range(replications)]
    assert keys == expected
    drawn = len(bursts)
    bursts.clear()
    for key in expected:
        real_arrivals(*key)
    assert drawn == len(bursts) > 0


def test_no_arrivals_outlive_a_sweep(tmp_path, monkeypatch):
    real_arrivals = simcore.Arrivals
    drawn = []

    def tracked(*key):
        arrivals = real_arrivals(*key)
        drawn.append(weakref.ref(arrivals))
        return arrivals

    monkeypatch.setattr(simcore, "Arrivals", tracked)
    assert _run(["sweep", "--figure", "fig3", "--duration-ms", "50", "--replications", "2",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert len(drawn) == 6
    assert all(ref() is None for ref in drawn)


def test_reused_runs_write_the_csv_of_real_runs(tmp_path, monkeypatch):
    argv = ["sweep", "--figure", "fig3", "--duration-ms", "50", "--seed", "5"]
    reused, rerun = tmp_path / "reused.csv", tmp_path / "rerun.csv"
    assert _run(argv + ["--out", str(reused)]) == 0
    monkeypatch.setattr(simcore, "reuse_at", lambda *a: None)
    assert _run(argv + ["--out", str(rerun)]) == 0
    assert reused.read_bytes() == rerun.read_bytes()


def test_reused_reports_are_the_reports_of_real_runs(tmp_path, monkeypatch):
    # the CSV carries neither the access bound nor trt_bound_ok, so compare
    # every field of each point's report with a fresh summary of a real run
    real = cli._reuse_or_run
    points = []

    def recording(held, *args):
        report, held = real(held, *args)
        points.append((args, report))
        return report, held

    real_reuse = metrics.reuse_at
    reused = []

    def counting_reuse(*args, **kwargs):
        reused.append(1)
        return real_reuse(*args, **kwargs)

    monkeypatch.setattr(cli, "_reuse_or_run", recording)
    monkeypatch.setattr(metrics, "reuse_at", counting_reuse)
    argv = ["sweep", "--figure", "fig3", "--duration-ms", "50"]
    assert _run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(points) == 15
    assert reused
    for (config, load, duration_ms, seed), report in points:
        result = simcore.run(config, load, duration_ms=duration_ms, seed=seed)
        assert report == metrics.summarize(result)


def test_token_that_never_returns_breaks_the_rotation_bound(capsys, tmp_path):
    # a broken bound is a rule violation: exit 1, with the report and CSV kept
    out_csv = tmp_path / "run.csv"
    argv = ["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "50",
            "--token-time-us", "1e300", "--out", str(out_csv)]
    assert _run(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert "max_rotation_ms: 0.0" in out
    assert "trt_bound_ok: False" in out
    assert len(out_csv.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--var", "ttrt", "--grid", "nan,inf", "--preset", "typical"],
    ["sweep", "--var", "ttrt", "--grid", "4,inf", "--preset", "typical"],
    ["analyze", "--ttrt", "inf", "--preset", "typical"],
    ["analyze", "--ttrt", "nan", "--preset", "typical"],
])
def test_non_finite_input_is_one_error_line(argv, capsys):
    assert _run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert "finite" in err[0]


@pytest.mark.parametrize("argv,code,line", [
    (["validate", "--ttrt", "8", "--ring-latency-ms", "1e300"], 1,
     "min_legal_ttrt_ms: 1e+300 (rounds to 1e+300)"),
    (["analyze", "--macs", "10", "--fiber-km", "1e300", "--ttrt", "8"], 1,
     "ring_latency_ms: 5.085e+297 (rounds to 5.085e+297)"),
])
def test_huge_finite_input_is_reported(argv, code, line, capsys):
    assert _run(argv) == code
    assert line in capsys.readouterr().out.splitlines()


_TTRT_OVERFLOWS = "error: ttrt_ms 1e+305 overflows the closed form with 10 active MACs"


@pytest.mark.parametrize("argv,line", [
    pytest.param(["analyze", "--macs", "10", "--fiber-km", "1e308", "--ttrt", "8"],
                 "error: ring_latency_ms must be finite, got inf", id="argv0"),  # latency is inf
    # n_active * TTRT overflows, and the efficiency with it
    pytest.param(["sweep", "--var", "ttrt", "--grid", "1e300,1e305", "--macs", "10",
                  "--fiber-km", "1"], _TTRT_OVERFLOWS, id="argv1"),
    pytest.param(["analyze", "--macs", "10", "--fiber-km", "1", "--ttrt", "1e305",
                  "--frame-bytes", "512"], _TTRT_OVERFLOWS, id="analyze-ttrt"),
    # each simulator input is refused where it becomes whole nanoseconds
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "1e308", "--allow-any-ttrt"],
                 "error: ttrt_ms 1e+308 overflows whole nanoseconds", id="simulate-ttrt"),
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "8", "--token-time-us", "1e308"],
                 "error: token_time_us 1e+308 overflows whole nanoseconds",
                 id="simulate-token-time"),
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "1e308"],
                 "error: duration_ms 1e+308 overflows whole nanoseconds",
                 id="simulate-duration"),
    pytest.param(["sweep", "--figure", "fig3", "--duration-ms", "1e308"],
                 "error: duration_ms 1e+308 overflows whole nanoseconds", id="fig3-duration"),
    pytest.param(["simulate", "--macs", "10", "--fiber-km", "1e308", "--ttrt", "8"],
                 "error: fiber_km 1e+308 overflows whole nanoseconds", id="simulate-fiber"),
])
def test_input_that_overflows_is_one_error_line(argv, line, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def _no_draw(self, now_ns):
    raise AssertionError("a burst was drawn")


@pytest.mark.parametrize("argv,line", [
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "1e-7"],
                 "error: duration_ms must be at least 1e-06 (one nanosecond), got 1e-07",
                 id="simulate-duration"),
    pytest.param(["sweep", "--figure", "fig3", "--duration-ms", "0"],
                 "error: duration_ms must be at least 1e-06 (one nanosecond), got 0.0",
                 id="fig3-duration"),
    # about 5 GB per simulated ms, were it drawn
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic",
                  "--interburst-ms", "1e-6"],
                 "error: a draw of about 1e+11 frames (1.95e+08 Mbps offered for 1000.0 ms) "
                 "exceeds the 10000000 frames a run may draw", id="simulate-wic-draw"),
    # a saturated run that would never end, refused before the dump prints
    pytest.param(["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "1e300",
                  "--dump-config"],
                 "error: a saturated run of about 1.25e+299 token captures (1e+300 ms at TTRT "
                 "8.0 ms) exceeds the 10000000 captures a run may make", id="simulate-captures"),
    pytest.param(["sweep", "--var", "ttrt", "--grid", "4,165", "--preset", "largest", "--mode",
                  "simulate", "--duration-ms", "1e9", "--dump-config"],
                 "error: a saturated run of about 2.5e+08 token captures (1000000000.0 ms at "
                 "TTRT 4.0 ms) exceeds the 10000000 captures a run may make",
                 id="sweep-captures"),
    # over the standard's MAC limit, refused before the dump prints
    pytest.param(["simulate", "--macs", "2000", "--fiber-km", "1", "--ttrt", "8",
                  "--duration-ms", "5", "--dump-config"],
                 "error: mac_count must be in [0, 1000], got 2000", id="simulate-mac-limit"),
])
def test_a_run_the_simulator_cannot_hold_is_one_error_line(argv, line, tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.setattr(workload.WicGenerator, "next_burst", _no_draw)
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert captured.out == ""
    assert not out.exists()


_OUTSIDE_WINDOW = "outside [4.0, 167.77216]; give --allow-any-ttrt to probe illegal values"


# A RingConfig simulates any TTRT above 0; the CLI keeps the standard's window
# unless --allow-any-ttrt, or its config key, lets a TTRT outside it through.
@pytest.mark.parametrize("argv,ttrt", [
    (["simulate", "--preset", "typical", "--ttrt", "2"], "2.0"),
    (["simulate", "--preset", "typical", "--ttrt", "200"], "200.0"),
    (["sweep", "--var", "ttrt", "--grid", "2,8", "--preset", "typical", "--mode", "simulate"],
     "2.0"),
    (["sweep", "--var", "ttrt", "--grid", "2,8", "--preset", "typical", "--mode", "both"], "2.0"),
])
def test_a_ttrt_outside_the_window_needs_the_flag(argv, ttrt, tmp_path, capsys):
    out = tmp_path / "out.csv"
    extras = [[]] + ([["--dump-config"]] if argv[0] == "simulate" else [])
    for extra in extras:  # simulate refuses it before the dump prints
        assert _run(argv + extra + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: ttrt_ms {ttrt} {_OUTSIDE_WINDOW}"]
        assert captured.out == ""
        assert not out.exists()
    cfg = tmp_path / "any.ini"
    cfg.write_text("[ring]\nallow_any_ttrt = true\n")
    for allow in (["--allow-any-ttrt"], ["--config", str(cfg)]):
        assert _run(argv + allow + ["--duration-ms", "5", "--out", str(out)]) == 0
        assert {float(r["ttrt_ms"]) for r in _read_csv(out)} >= {float(ttrt)}
        out.unlink()


_TEN_MACS = ["--macs", "10", "--fiber-km", "1"]


# Each refusal of a closed-form input: its one stderr line, exit 2, no CSV.
# The inf TTRT of a sweep over another variable reaches no check before the
# row's closed form; the infinite latency of a 1e308 km extent is refused
# where the latency is computed.
@pytest.mark.parametrize("argv,line", [
    (["sweep", "--var", "ttrt", "--grid=-1,2", *_TEN_MACS], "ttrt_ms must be > 0, got -1.0"),
    (["sweep", "--var", "ttrt", "--grid", "0,2", *_TEN_MACS], "ttrt_ms must be > 0, got 0.0"),
    (["sweep", "--var", "ttrt", "--grid", "0,2", "--frame-bytes", "512", *_TEN_MACS],
     "ttrt_ms must be > 0, got 0.0"),
    (["sweep", "--var", "active_macs", "--grid", "1,2", "--ttrt", "-3", *_TEN_MACS],
     "ttrt_ms must be > 0, got -3.0"),
    (["sweep", "--var", "active_macs", "--grid", "1,2", "--ttrt", "0", *_TEN_MACS],
     "ttrt_ms must be > 0, got 0.0"),
    (["sweep", "--var", "active_macs", "--grid", "1,2", "--ttrt", "inf", *_TEN_MACS],
     "ttrt_ms must be finite, got inf"),
    (["sweep", "--var", "active_macs", "--grid", "0,2", *_TEN_MACS],
     "active count 0 outside [1, 10]"),
    (["sweep", "--var", "active_macs", "--grid", "1,20", *_TEN_MACS],
     "active count 20 outside [1, 10]"),
    (["sweep", "--var", "frame_size", "--grid=-5,10", *_TEN_MACS],
     "frame_bytes must be > 0, got -5"),
    (["sweep", "--var", "extent", "--grid=-1,2", "--macs", "10"],
     "fiber_km must be >= 0, got -1.0"),
    (["sweep", "--var", "extent", "--grid", "1,1e308", "--macs", "10"],
     "ring_latency_ms must be finite, got inf"),
    (["sweep", "--var", "total_stations", "--grid", "0,5", "--fiber-km", "1"],
     "a ring of 0 MACs needs --active"),
    (["analyze", "--ttrt", "-1", *_TEN_MACS], "ttrt_ms must be > 0, got -1.0"),
    # a frame size of 0 is a frame size, not "none given"
    (["analyze", "--preset", "typical", "--ttrt", "8", "--frame-bytes", "0"],
     "frame_bytes must be > 0, got 0"),
    (["sweep", "--var", "frame_size", "--grid", "0,100", "--preset", "typical"],
     "frame_bytes must be > 0, got 0"),
    (["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical", "--frame-bytes", "0"],
     "frame_bytes must be > 0, got 0"),
    # no frame is longer than the standard's 4500 bytes, closed form or simulated
    (["analyze", "--preset", "typical", "--ttrt", "8", "--frame-bytes", "5000"],
     "frame_bytes must be <= 4500, got 5000"),
    (["sweep", "--var", "frame_size", "--grid", "4500,9000,100000", "--preset", "typical"],
     "frame_bytes must be <= 4500, got 9000"),
    (["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical", "--frame-bytes", "5000"],
     "frame_bytes must be <= 4500, got 5000"),
    (["validate", "--preset", "typical", "--ttrt", "8", "--frame-bytes", "5000"],
     "frame_bytes must be <= 4500, got 5000"),
    # a simulated point's frame size is refused in the closed form's words
    (["sweep", "--var", "frame_size", "--grid", "100,9000", "--preset", "typical",
      "--mode", "simulate"], "frame_bytes must be <= 4500, got 9000"),
    # the MAC count is checked before the active count it bounds
    (["analyze", "--macs", "-1", "--fiber-km", "1", "--ttrt", "8"],
     "mac_count must be in [0, 1000], got -1"),
    (["sweep", "--var", "ttrt", "--grid", "4,8", "--macs", "-1", "--fiber-km", "1"],
     "mac_count must be in [0, 1000], got -1"),
])
def test_closed_form_refusal_is_one_error_line(argv, line, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + line]
    assert not out.exists()


def test_closed_form_rows_build_no_ring_parameters(tmp_path, monkeypatch):
    # a closed-form row checks its inputs with comparisons, not a record:
    # the records a sweep builds do not grow with its grid
    built = []
    check = analytical.RingParameters._check

    def counted(self) -> None:
        built.append(self)
        check(self)

    monkeypatch.setattr(analytical.RingParameters, "_check", counted)

    def sweep(points: int) -> int:
        built.clear()
        grid = ",".join(str(0.25 + 0.42 * i) for i in range(points))
        assert _run(["sweep", "--var", "ttrt", "--grid", grid, "--preset", "largest",
                     "--frame-bytes", "512", "--out", str(tmp_path / "out.csv")]) == 0
        return len(built)

    assert sweep(16) == sweep(400)


def test_a_simulated_sweep_lays_its_ring_out_once(tmp_path):
    # the points of a TTRT sweep share one ring: its hops, offsets and latency
    # are worked out once, not for each point's run and summary
    simcore._layout.cache_clear()
    assert _run(["sweep", "--var", "ttrt", "--grid", "8,20,165", "--preset", "largest",
                 "--duration-ms", "50", "--mode", "simulate",
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert simcore._layout.cache_info().misses == 1


def test_whole_ring_row_binds_every_station_without_a_list():
    row = dict(mac_count=6, n_active=6, frame_bytes=100)
    load = cli._build_workload(row)
    assert load.stations is None
    assert load.bind(6, 0) == load._replace(stations=tuple(range(6))).bind(6, 0)
    assert cli._build_workload(dict(row, n_active=4)).stations == (0, 1, 2, 3)


def test_parser_is_built_once_and_still_rejects_bad_flags(capsys):
    cli._build_parser.cache_clear()
    assert _run(["analyze", "--preset", "typical", "--ttrt", "4"]) == 0
    assert _run(["analyze", "--preset", "typical", "--ttrt", "8"]) == 0
    with pytest.raises(SystemExit) as exc:
        _run(["analyze", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1


# the closed form's 0-MAC ring has no station for the simulator to run
_ZERO_MAC_SIMULATIONS = [
    ["simulate", "--macs", "0", "--fiber-km", "1", "--ttrt", "8", "--workload", "wic",
     "--load-pct", "40"],
    ["simulate", "--macs", "0", "--fiber-km", "1", "--ttrt", "8", "--workload", "saturation",
     "--active", "1"],
    ["sweep", "--var", "total_stations", "--grid", "0,5", "--fiber-km", "1", "--mode", "simulate",
     "--active", "1", "--ttrt", "8"],
]


@pytest.mark.parametrize("argv", _ZERO_MAC_SIMULATIONS)
def test_zero_mac_simulation_says_the_simulator_needs_a_mac(argv, capsys):
    assert _run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the simulator needs at least one MAC"]


# a load of 100 % or more, named as the flag gives it, not as a utilization
_LOAD_PCT_OUT_OF_RANGE = [
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "100"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical", "--mode", "simulate",
     "--load-pct", "150", "--duration-ms", "5"],
]


@pytest.mark.parametrize("argv, got", zip(_LOAD_PCT_OUT_OF_RANGE, ["100.0", "150.0"]))
def test_load_pct_out_of_range_names_the_flag(argv, got, capsys):
    # refused where it is read, before --dump-config prints anything
    assert _run(argv + ["--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --load-pct must be in (0, 100), got {got}"]


@pytest.mark.parametrize("frame_bytes", ["-5", "0", "5000"])
def test_analyze_refuses_a_bad_frame_size_before_printing(frame_bytes, capsys):
    # refused where it is read, before the report or --dump-config prints;
    # validate reads it the same way
    rule = "<= 4500" if frame_bytes == "5000" else "> 0"
    for command in ("analyze", "validate"):
        for extra in ([], ["--dump-config"]):
            assert _run([command, "--preset", "typical", "--ttrt", "8",
                         "--frame-bytes", frame_bytes, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: frame_bytes must be {rule}, got {frame_bytes}"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "typical", "--ttrt", "8", "--active", "50"],
    ["analyze", "--preset", "typical", "--ttrt", "8", "--active", "0"],
    ["sweep", "--figure", "fig3", "--replications", "0"],
    ["sweep", "--figure", "fig1", "--replications", "0"],
    ["sweep", "--figure", "fig1", "--var", "ttrt"],
    ["sweep", "--figure", "fig4", "--grid", "1,2"],
    # the simulator charges whole nanoseconds; the CSV would echo 0.0006
    ["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "50",
     "--token-time-us", "0.0006"],
    ["analyze", "--preset", "nope", "--ttrt", "8"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "foo"],
    ["sweep", "--var", "ttrt", "--grid", "1,x", "--preset", "typical"],
    ["sweep", "--var", "ttrt", "--grid", ",", "--preset", "typical"],
    ["sweep", "--preset", "big"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big", "--mode", "fast"],
    ["analyze", "--preset", "typical", "--ttrt", "8", "--config", "/nonexistent.ini"],
    *_ZERO_MAC_SIMULATIONS,
    *_LOAD_PCT_OUT_OF_RANGE,
    ["validate", "--ttrt", "8", "--max-ring", "--sync-ms", "-1"],
    ["validate", "--ttrt", "8", "--max-ring", "--service-interval-ms", "0"],
    # every input is checked before --dump-config prints and before any run
    ["analyze", "--macs", "10", "--fiber-km", "1e308", "--ttrt", "8", "--dump-config"],
    ["analyze", "--preset", "typical", "--ttrt", "1e305", "--dump-config"],
    ["validate", "--ttrt", "8", "--preset", "typical", "--t-max-ms", "170", "--dump-config"],
    ["validate", "--ttrt", "8", "--ring-latency-ms", "-1", "--dump-config"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "50",
     "--duration-ms", "1e300", "--dump-config"],
    ["sweep", "--var", "ttrt", "--grid", "2,8", "--preset", "typical", "--mode", "simulate",
     "--dump-config"],
    ["sweep", "--var", "frame_size", "--grid", "100,9000", "--preset", "typical", "--mode",
     "simulate"],
    # a value outside an option's choices, from a config file (its text here)
    ["analyze", "--ttrt", "8", "--config", "[ring]\npreset = nope\n"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--config", "[workload]\nworkload = foo\n"],
    ["sweep", "--grid", "1,2", "--preset", "big", "--config", "[sweep]\nvar = nope\n"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big",
     "--config", "[sweep]\nmode = fast\n"],
    ["sweep", "--config", "[sweep]\nfigure = fig99\n"],
    ["validate", "--ttrt", "8", "--max-ring"],  # it writes no CSV for --out
])
def test_bad_input_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(simcore, "run", lambda *a, **k: calls.append(a))
    if argv[-1].startswith("["):  # a config file's text, passed as its path
        config = tmp_path / "config.ini"
        config.write_text(argv[-1])
        argv = argv[:-1] + [str(config)]
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert captured.out == ""
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("key,value,choices", [
    ("var", "nope", "ttrt, extent, total_stations, active_macs, frame_size"),
    ("mode", "fast", "analytical, simulate, both"),
])
def test_a_value_outside_its_choices_is_refused_with_them(key, value, choices, tmp_path, capsys):
    # from a flag and from a config file alike
    argv = ["sweep", "--grid", "4,8", "--preset", "big"]
    if key == "mode":
        argv += ["--var", "ttrt"]
    config = tmp_path / "config.ini"
    config.write_text(f"[sweep]\n{key} = {value}\n")
    for given in ([f"--{key}", value], ["--config", str(config)]):
        assert _run(argv + given) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown {key} {value!r}; choices: {choices}"]


def test_dump_config_lists_the_keys_a_sweep_reads(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert _run([
        "sweep", "--figure", "fig3", "--duration-ms", "20", "--token-time-us", "0",
        "--dump-config", "--out", str(out),
    ]) == 0
    dump = capsys.readouterr().out
    assert "token_time_us = 0.0" in dump
    assert "allow_any_ttrt = true" in dump
    assert {r["token_time_us"] for r in _read_csv(out)} == {"0.0"}

    assert _run([
        "sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big", "--dump-config",
        "--out", str(out),
    ]) == 0
    dump = capsys.readouterr().out
    assert "duration_ms" not in dump
    assert "seed" not in dump


@pytest.mark.parametrize("argv", [
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "40",
     "--duration-ms", "20"],
])
def test_dump_config_reruns_to_the_same_csv(argv, tmp_path, capsys):
    first, again, cfg = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "d.ini"
    assert _run(argv + ["--dump-config", "--out", str(first)]) == 0
    # simulate prints its report after the dump
    lines = capsys.readouterr().out.splitlines(keepends=True)
    cfg.write_text("".join(line for line in lines if line.startswith("[") or " = " in line))
    assert _run([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "big", "--ttrt", "8", "--frame-bytes", "512"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "40",
     "--duration-ms", "20"],
    ["validate", "--preset", "big", "--ttrt", "3", "--frame-bytes", "512"],
])
def test_whole_dump_config_output_reads_back(argv, tmp_path, capsys):
    first, again, cfg = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "d.ini"
    writes = argv[0] != "validate"  # validate writes no CSV and refuses --out
    code = _run(argv + ["--dump-config", *["--out", str(first)] * writes])
    out = capsys.readouterr().out
    cfg.write_text(out)  # the report follows the dump as comments
    assert _run([argv[0], "--config", str(cfg), *["--out", str(again)] * writes]) == code
    report = [line[2:] for line in out.splitlines(keepends=True) if line.startswith("# ")]
    assert report and capsys.readouterr().out == "".join(report)
    if writes:
        assert again.read_bytes() == first.read_bytes()


# The option strings of each subcommand, recorded before the options were
# moved into one table: the table may reword help, never add or drop a flag.
_RING_FLAGS = ["--active", "--fiber-km", "--macs", "--preset", "--ttrt"]
_SIM_FLAGS = ["--allow-any-ttrt", "--duration-ms", "--no-overflow", "--seed",
              "--token-time-us"]
_COMMON_FLAGS = ["--config", "--dump-config", "--help", "--out", "-h"]
FROZEN_FLAGS = {
    "analyze": _RING_FLAGS + ["--frame-bytes"],
    "simulate": _RING_FLAGS + _SIM_FLAGS + ["--frame-bytes", "--interburst-ms",
                                            "--load-pct", "--workload"],
    "sweep": _RING_FLAGS + _SIM_FLAGS + ["--figure", "--frame-bytes", "--grid",
                                         "--load-pct", "--mode", "--replications",
                                         "--var"],
    "table1": [],
    "validate": _RING_FLAGS + ["--frame-bytes", "--max-ring", "--ring-latency-ms",
                               "--service-interval-ms", "--sync-ms", "--t-max-ms"],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_keeps_its_flags():
    # a parser takes the options of the subcommand it was built for
    flags = {name: sorted(s for a in _subparsers(cli._build_parser(name))[name]._actions
                          for s in a.option_strings)
             for name in cli.COMMANDS}
    assert flags == {name: sorted(f + _COMMON_FLAGS) for name, f in FROZEN_FLAGS.items()}


def test_help_lists_every_subcommand_while_one_takes_options(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.endswith("{" + ",".join(cli.COMMANDS) + "} ...")
    # building the parser of one subcommand adds no option to the others
    subparsers = _subparsers(cli._build_parser("table1"))
    assert all(len(p._actions) == 1 for name, p in subparsers.items() if name != "table1")


@pytest.mark.parametrize("argv", [
    ["sweep", "--figure", "fig1", "--mode", "simulate", "--active", "3", "--preset", "typical"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big", "--seed", "4"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big", "--ttrt", "20"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "big", "--replications", "3"],
    ["sweep", "--figure", "fig3", "--load-pct", "40", "--duration-ms", "20"],
    # bursty traffic cannot follow a grid of frame sizes or active counts
    ["sweep", "--var", "frame_size", "--grid", "100,4500", "--preset", "typical",
     "--mode", "simulate", "--load-pct", "40", "--duration-ms", "40"],
    ["simulate", "--preset", "typical", "--workload", "wic", "--load-pct", "50",
     "--frame-bytes", "100"],
    ["simulate", "--preset", "typical", "--load-pct", "50", "--duration-ms", "20"],
    ["simulate", "--preset", "typical", "--workload", "wic", "--interburst-ms", "0.7",
     "--load-pct", "90", "--duration-ms", "20"],
    # bursty traffic loads every station, whatever the active count
    ["simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic", "--load-pct", "40",
     "--active", "5", "--duration-ms", "100"],
    ["validate", "--ttrt", "8", "--max-ring", "--preset", "big", "--ring-latency-ms", "3"],
    ["validate", "--ttrt", "8", "--preset", "big", "--active", "3"],
])
def test_flag_the_command_does_not_use_is_rejected(argv, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(simcore, "run", lambda *a, **k: calls.append(a))
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out), "--dump-config"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert captured.out == ""
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("text", ["[ring]\nttrtt = 4\n", "[run]\nttrt = 20\n"])
def test_config_key_that_names_no_option_is_rejected(text, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert _run(["analyze", "--preset", "typical", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")


@pytest.mark.parametrize("text", [
    "preset = typical\n",  # no section header
    "[ring]\npreset = typical\npreset = big\n",  # a key given twice
    "[ring]\npreset = typical\n[workload]\nefficiency: 0.99 (99.47%)\n",  # a pasted report
])
def test_config_file_that_configparser_rejects_is_one_error_line(text, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert _run(["analyze", "--preset", "typical", "--ttrt", "8", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: config file {str(cfg)!r}: ")


@pytest.mark.parametrize("word,dumped", [
    ("ture", None), ("maybe", None), ("", None),
    ("YES", "true"), ("On", "true"), ("1", "true"), ("off", "false"), ("0", "false"),
])
def test_config_booleans_take_the_configparser_words(word, dumped, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[ring]\nno_overflow = {word}\n")
    rc = _run(["simulate", "--preset", "typical", "--duration-ms", "20", "--config", str(cfg),
               "--dump-config"])
    captured = capsys.readouterr()
    if dumped is None:
        assert rc == 2
        assert captured.err.startswith("error: config [ring] no_overflow = ")
        assert len(captured.err.splitlines()) == 1
    else:
        assert rc == 0
        assert f"no_overflow = {dumped}\n" in captured.out


def _no_run(*args, **kwargs):
    raise AssertionError("a run was simulated")


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "typical", "--ttrt", "8"],
    ["simulate", "--preset", "typical", "--ttrt", "8", "--duration-ms", "5"],
    ["sweep", "--var", "ttrt", "--grid", "4,8", "--preset", "typical"],
    ["table1"],
    ["sweep", "--figure", "fig3"],
])
@pytest.mark.parametrize("target,errno_", [("missing/x.csv", errno.ENOENT), (".", errno.EISDIR),
                                            ("/proc/x.csv", errno.ENOENT)],
                         ids=["missing-directory", "directory", "refused-by-open"])
def test_an_out_path_that_cannot_be_opened_is_one_error_line(argv, target, errno_, tmp_path,
                                                             monkeypatch, capsys):
    # refused before the work: nothing simulated, no report printed; /proc
    # passes a check of the directory alone, and only open refuses it
    monkeypatch.setattr(simcore, "run", _no_run)
    path = str(tmp_path / target)
    assert _run(argv + ["--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: cannot write {path!r}: {os.strerror(errno_)}"]
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert os.listdir(tmp_path) == []  # no file made


def _read_fifo(path, got):
    with open(path, "rb") as fh:
        got.append(fh.read())


@pytest.mark.parametrize("kind", ["new-file", "longer-file", "pipe", "fifo"])
def test_out_writes_one_csv_to_a_file_a_pipe_or_a_fifo(kind, tmp_path, capsys):
    # --out is opened once, before the work: a file it held is replaced, not
    # left with a tail, and a path that cannot seek or truncate takes the CSV
    import threading

    argv = ["analyze", "--preset", "typical", "--ttrt", "8", "--out"]
    assert _run(argv + [str(tmp_path / "expected.csv")]) == 0
    expected = (tmp_path / "expected.csv").read_bytes()
    path = tmp_path / "out.csv"
    if kind == "new-file":
        assert _run(argv + [str(path)]) == 0
        got = path.read_bytes()
    elif kind == "longer-file":
        path.write_bytes(b"x" * 100_000)
        assert _run(argv + [str(path)]) == 0
        got = path.read_bytes()
    elif kind == "pipe":
        r, w = os.pipe()  # one row of CSV fits its buffer
        try:
            assert _run(argv + [f"/dev/fd/{w}"]) == 0
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            got = fh.read()
    else:
        os.mkfifo(path)
        read = []
        reader = threading.Thread(target=_read_fifo, args=(path, read))
        reader.start()
        assert _run(argv + [str(path)]) == 0
        reader.join(timeout=60)
        got = read[0]
    assert got == expected
    assert capsys.readouterr().err == ""


def test_a_command_that_writes_no_csv_keeps_the_out_file_it_found(tmp_path, capsys):
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    assert _run(["analyze", "--preset", "largest", "--ttrt", "1", "--out", str(path)]) == 1
    assert cli.SATURATED_MARKER in capsys.readouterr().err
    assert path.read_text() == "kept\n"
    path.unlink()
    assert _run(["analyze", "--preset", "largest", "--ttrt", "1", "--out", str(path)]) == 1
    assert not path.exists()  # nor leaves one it made


def test_closed_pipe_exits_141_without_a_traceback():
    # about 300 KB of CSV: far more than a 64 KiB pipe buffer holds
    grid = ",".join(f"{4 + i / 10:.1f}" for i in range(1500))
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with subprocess.Popen(
        [sys.executable, "-m", "fddiperf.cli", "sweep", "--var", "ttrt", "--grid", grid,
         "--preset", "largest"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"figure,mode,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_config_keys_of_other_commands_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "shared.ini"
    cfg.write_text("[ring]\npreset = typical\nttrt = 4\nring_latency_ms = 3\n"
                   "[sweep]\nfigure = fig3\n[run]\nseed = 4\n")
    assert _run(["analyze", "--config", str(cfg)]) == 0
    assert "98.94%" in capsys.readouterr().out


def test_validate_dumps_the_keys_it_reads(capsys):
    # the maximum ring's latency, given as a key a dump can hold
    argv = ["validate", "--ttrt", "8", "--ring-latency-ms", "1.773", "--dump-config"]
    assert _run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("[ring]\n")
    assert "ring_latency_ms = 1.773" in out
    assert "ttrt = 8.0" in out
    assert "t_max_ms = 165.0" in out
    assert "frame_bytes = 4500" in out
    assert "preset" not in out
    assert "verdict: ok" in out


@pytest.mark.parametrize("flag,ring", [
    (["--max-ring"], []),
    (["--sync-ms", "3"], ["--preset", "big"]),
    (["--service-interval-ms", "20"], ["--preset", "big"]),
])
def test_validate_refuses_to_dump_a_flag_no_config_key_holds(flag, ring, capsys):
    # such a dump would read back to another verdict
    argv = ["validate", "--ttrt", "4", *ring, *flag]
    assert _run(argv + ["--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --dump-config cannot record {flag[0]}: no config key holds it\n"
    # without the dump the flag is read as before
    assert _run(argv) in (0, 1)


def test_validate_requires_a_ttrt(capsys):
    assert _run(["validate", "--max-ring"]) == 2
    assert capsys.readouterr().err == "error: validate needs --ttrt\n"
    with pytest.raises(SystemExit):
        _run(["validate", "--help"])
    help_text = capsys.readouterr().out
    assert "rotation time (ms)\n" in help_text
    assert "(default 165.0)" in help_text
