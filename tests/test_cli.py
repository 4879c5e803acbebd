"""CLI tests: subcommand outputs, exit codes, CSV schema, config-file
override precedence, --dump-config, and the saturated-row marker."""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fddiperf import cli


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
    real_run = cli.simcore.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli.simcore, "run", counting_run)
    out = tmp_path / "sim.csv"
    rc = _run([
        "simulate", "--preset", "typical", "--ttrt", "8", "--workload", "wic",
        "--load-pct", "40", "--active", "5", "--duration-ms", "100", "--out", str(out),
    ])
    assert rc == 0
    assert len(calls) == 1
    row = _read_csv(out)[0]
    # stdout and the CSV row come from the same report
    printed = capsys.readouterr().out
    assert f"efficiency: {float(row['efficiency'])!r}" in printed


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


def test_parser_is_built_once_and_still_rejects_bad_flags(capsys):
    cli._build_parser.cache_clear()
    assert _run(["analyze", "--preset", "typical", "--ttrt", "4"]) == 0
    assert _run(["analyze", "--preset", "typical", "--ttrt", "8"]) == 0
    with pytest.raises(SystemExit) as exc:
        _run(["analyze", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "typical", "--ttrt", "8", "--active", "50"],
    ["analyze", "--preset", "typical", "--ttrt", "8", "--active", "0"],
    ["sweep", "--figure", "fig3", "--replications", "0"],
    ["sweep", "--figure", "fig1", "--replications", "0"],
    ["sweep", "--figure", "fig1", "--var", "ttrt"],
    ["sweep", "--figure", "fig4", "--grid", "1,2"],
])
def test_bad_input_is_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert not out.exists()


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


def test_each_subcommand_keeps_its_flags():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in p._actions for s in a.option_strings)
             for name, p in sub.choices.items()}
    assert flags == {name: sorted(f + _COMMON_FLAGS) for name, f in FROZEN_FLAGS.items()}


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
    ["validate", "--ttrt", "8", "--max-ring", "--preset", "big", "--ring-latency-ms", "3"],
    ["validate", "--ttrt", "8", "--preset", "big", "--active", "3"],
])
def test_flag_the_command_does_not_use_is_rejected(argv, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.simcore, "run", lambda *a, **k: calls.append(a))
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
    assert _run(["validate", "--ttrt", "8", "--max-ring", "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[ring]\n")
    assert "ttrt = 8.0" in out
    assert "t_max_ms = 165.0" in out
    assert "frame_bytes = 4500" in out
    assert "preset" not in out
    assert "verdict: ok" in out


def test_validate_requires_a_ttrt(capsys):
    assert _run(["validate", "--max-ring"]) == 2
    assert capsys.readouterr().err == "error: validate needs --ttrt\n"
    with pytest.raises(SystemExit):
        _run(["validate", "--help"])
    help_text = capsys.readouterr().out
    assert "rotation time (ms)\n" in help_text
    assert "(default 165.0)" in help_text
