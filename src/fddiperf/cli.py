"""Command-line front end.

Subcommands:

  analyze   closed-form efficiency / max access delay for one configuration
  simulate  one simulator run with a saturation or bursty workload
  sweep     CSV sweeps: a figure preset (a presets.FIGURES entry) or --var/--grid
  table1    recompute the golden reference table and verify every cell
  validate  check a requested TTRT against the standard's rules

Each option's flag, INI section, type, help and default are declared once,
in OPTIONS, and COMMANDS lists the options each subcommand takes. Values may
come from an INI config file (--config), whose keys must name an option in
its own section; explicit flags override file values. A command reads every
option it uses before it computes anything, and rejects a flag it was given
but did not use. --dump-config prints each key the command read, resolved,
for provenance. Every sweep runs through one engine, and its output echoes
every input including the seed, so any CSV row can be reproduced on its own.

Exit codes: 0 success, 1 validation failure / golden mismatch / saturated
configuration, 2 bad input, 141 (128 + SIGPIPE) when the reader of stdout
closes it early.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import os
import sys
from typing import Callable, NamedTuple

from . import analytical, metrics, presets, simcore
from .analytical import PhysicalRing, RingParameters, RingSaturatedError
from .presets import PRESETS, paper_round
from .simcore import RingConfig
from .workload import DEFAULT_LARGE_FRAME_BYTES, SaturationWorkload, WicWorkload

CSV_COLUMNS = [
    "figure",
    "mode",
    "preset",
    "sweep_var",
    "sweep_value",
    "mac_count",
    "fiber_km",
    "n_active",
    "ttrt_ms",
    "frame_bytes",
    "load_pct",
    "interburst_ms",
    "token_time_us",
    "async_overflow",
    "duration_ms",
    "replication",
    "seed",
    "error",
    "efficiency",
    "efficiency_pct_rounded",
    "max_access_delay_ms",
    "access_delay_s_rounded",
    "frames_per_opportunity",
    "throughput_mbps",
    "mean_response_ms",
    "p95_response_ms",
    "max_response_ms",
    "mean_access_ms",
    "max_access_ms",
    "max_rotation_ms",
    "offered_load_mbps",
]

SATURATED_MARKER = "saturated_by_latency"


class CliError(Exception):
    """Bad input that argparse cannot catch itself."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows: list[dict], out_path: str | None) -> None:
    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])

    if out_path:
        with open(out_path, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


class Option(NamedTuple):
    """The flag --key-with-dashes, and the INI key of the same name."""

    section: str | None  # None: command line only
    type: type  # bool: an on/off flag
    help: str
    default: object = None
    repeat: bool = False  # the flag may be given again; its values make a list


# sweep variable -> (the row column its grid values set, the option it replaces)
SWEEP_VARS: dict[str, tuple[str, str]] = {
    "ttrt": ("ttrt_ms", "ttrt"),
    "extent": ("fiber_km", "fiber_km"),
    "total_stations": ("mac_count", "macs"),
    "active_macs": ("n_active", "active"),
    "frame_size": ("frame_bytes", "frame_bytes"),
}

OPTIONS: dict[str, Option] = {
    "preset": Option("ring", str, " | ".join(PRESETS)),
    "macs": Option("ring", int, "total MACs on the ring"),
    "fiber_km": Option("ring", float, "total fiber length"),
    "ttrt": Option("ring", float, "target token rotation time (ms)", presets.FIGURE_TTRT_MS),
    "active": Option("ring", int, "number of active MACs"),
    "token_time_us": Option("ring", float, "per-hop token time", analytical.TOKEN_TIME_US),
    "no_overflow": Option("ring", bool, "start no frame the holding budget cannot fit", False),
    "allow_any_ttrt": Option("ring", bool, "permit TTRT outside 4..167.77 ms", False),
    "ring_latency_ms": Option("ring", float, "use this latency directly"),
    "max_ring": Option(None, bool, "validate against the maximum-size ring", False),
    "sync_ms": Option(None, float, "synchronous allocation (summed)", repeat=True),
    "service_interval_ms": Option(None, float, "required service interval (tightest wins)",
                                  repeat=True),
    "t_max_ms": Option("ring", float, "station T_max (165..167.77216)", analytical.T_MAX_MS),
    "workload": Option("workload", str, "saturation or wic", "saturation"),
    "frame_bytes": Option("workload", int, "frame size (validate: the largest) in bytes"),
    "load_pct": Option("workload", float, "wic target utilization, percent"),
    "interburst_ms": Option("workload", float, "wic mean burst gap"),
    "duration_ms": Option("run", float, "simulated time per run", simcore.DEFAULT_DURATION_MS),
    "seed": Option("run", int, "base RNG seed", 1),
    "figure": Option("sweep", str, "named recipe: " + ", ".join(presets.FIGURES)),
    "var": Option("sweep", str, " | ".join(SWEEP_VARS)),
    "grid": Option("sweep", str, "comma-separated, strictly increasing values"),
    "mode": Option("sweep", str, "analytical | simulate | both", "analytical"),
    "replications": Option("sweep", int, "simulated repeats per point", 1),
    "config": Option(None, str, "INI config file; flags override its values"),
    "dump_config": Option(None, bool, "print the fully resolved configuration", False),
    "out": Option(None, str, "write CSV to this path"),
}
# Every subcommand takes these and may leave them unused.
COMMON = ("config", "dump_config", "out")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config_bool(raw: str) -> bool:
    """A config-file boolean, spelt as configparser itself accepts them."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean (1/yes/true/on or 0/no/false/off)") from None


class Resolver:
    """Layered lookup of OPTIONS: flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self._file: dict[str, str] = {}
        self.resolved: dict[str, object] = {}
        if args.config:
            cp = configparser.ConfigParser()
            if not cp.read(args.config):
                raise CliError(f"cannot read config file {args.config!r}")
            for section in cp.sections():
                for key, value in cp.items(section):
                    if key not in OPTIONS or OPTIONS[key].section != section:
                        raise CliError(f"config [{section}] {key}: no such key in [{section}]")
                    self._file[key] = value

    def get(self, key: str, default=None):
        """The flag, else the config file, else default, else OPTIONS' default."""
        opt = OPTIONS[key]
        value = getattr(self.args, key)
        if value is None and key in self._file:
            raw = self._file[key]
            try:
                value = (_config_bool if opt.type is bool else opt.type)(raw)
            except ValueError as exc:
                raise CliError(f"config [{opt.section}] {key} = {raw!r}: {exc}") from None
        if value is None and key in COMMANDS[self.args.command].required:
            raise CliError(f"{self.args.command} needs {_flag(key)}")
        if value is None:
            value = opt.default if default is None else default
        self.resolved[key] = value
        return value

    def finish(self) -> None:
        """Reject the flags given that the command did not read, then print
        --dump-config: each key the command read, resolved."""
        command = self.args.command
        unused = [_flag(key) for key in COMMANDS[command].options
                  if key not in self.resolved and getattr(self.args, key) is not None]
        if unused:
            raise CliError(f"{command} cannot use {', '.join(unused)} with these inputs")
        if not self.args.dump_config:
            return
        sections: dict[str, list[str]] = {}
        for key, value in sorted(self.resolved.items()):
            if OPTIONS[key].section:
                sections.setdefault(OPTIONS[key].section, []).append(f"{key} = {_fmt(value)}")
        lines = []
        for section, items in sorted(sections.items()):
            lines += [f"[{section}]", *items, ""]
        sys.stdout.write("\n".join(lines))


def _resolve_ring(res: Resolver, swept: str = "") -> tuple[str, int | None, float | None]:
    """Returns (preset name or '', mac_count, fiber_km). The ring option a
    sweep varies, named in swept, is not read and may stay None."""
    preset_name = res.get("preset") or ""
    macs = None if swept == "macs" else res.get("macs")
    fiber = None if swept == "fiber_km" else res.get("fiber_km")
    if preset_name:
        if preset_name not in PRESETS:
            raise CliError(f"unknown preset {preset_name!r}; choices: {', '.join(PRESETS)}")
        p = PRESETS[preset_name]
        macs = p.mac_count if macs is None else macs
        fiber = p.fiber_km if fiber is None else fiber
    if (macs is None and swept != "macs") or (fiber is None and swept != "fiber_km"):
        raise CliError("give --preset, or both --macs and --fiber-km")
    return preset_name, macs, fiber


def _active(n_active: int | None, macs: int) -> int:
    """The active count (every MAC by default) checked against the ring; zero
    MACs, the closed form's idealised zero-latency ring, bounds none."""
    n_active = macs if n_active is None else n_active
    if n_active < 1 or n_active > macs > 0:
        raise CliError(f"active count {n_active} outside [1, {macs}]")
    return n_active


def _base_row(**kwargs) -> dict:
    row = {col: None for col in CSV_COLUMNS}
    row.update(kwargs)
    return row


def _ring_latency_ms(row: dict) -> float:
    ring = PhysicalRing(fiber_km=row["fiber_km"], mac_count=row["mac_count"])
    return analytical.ring_latency(ring)


def _analytical_row(row: dict) -> dict:
    """Fill the metric columns of a row from the closed-form model for its
    ring, active count, TTRT and frame size (the overflow model when a frame
    size is set); mark the row instead of failing when latency swallows the
    TTRT."""
    row["mode"] = "analytical"
    frame_bytes = row["frame_bytes"]
    try:
        p = RingParameters(row["n_active"], row["ttrt_ms"], _ring_latency_ms(row),
                           analytical.frame_time_ms(frame_bytes) if frame_bytes else None)
        result = analytical.overflow_model(p) if frame_bytes else analytical.basic_model(p)
    except RingSaturatedError:
        row["error"] = SATURATED_MARKER
        return row
    row["efficiency"] = result.efficiency
    row["efficiency_pct_rounded"] = paper_round(result.efficiency * 100.0)
    row["max_access_delay_ms"] = result.max_access_delay_ms
    row["access_delay_s_rounded"] = paper_round(result.max_access_delay_ms / 1000.0)
    row["frames_per_opportunity"] = result.frames_per_opportunity
    return row


def _simulate(config: RingConfig, load, duration_ms: float, seed: int,
              n_active: int) -> metrics.MetricsReport:
    """One simulator run, summarized with the access-delay bound for the
    stations that send: n_active saturated ones, or every station."""
    result = simcore.run(config, load, duration_ms=duration_ms, seed=seed)
    return metrics.summarize(
        result,
        offered_load_mbps=load.total_offered_load_mbps(config.n_stations),
        n_active=n_active if isinstance(load, SaturationWorkload) else config.n_stations,
        max_frame_bytes=load.max_frame_bytes,
    )


def _simulated_row(row: dict, config: RingConfig, load,
                   report: metrics.MetricsReport | None) -> dict:
    """Fill the run-input columns of a row from the config and workload of a
    run, and its metric columns from the run's report; with no report, mark
    the row as saturated by latency."""
    row.update(
        mode="simulated",
        frame_bytes=getattr(load, "frame_bytes", None),
        interburst_ms=getattr(load, "mean_interburst_ms", None),
        token_time_us=config.token_time_us,
        async_overflow=config.async_overflow,
    )
    if report is None:
        row["error"] = SATURATED_MARKER
        return row
    row["efficiency"] = report.efficiency
    row["efficiency_pct_rounded"] = paper_round(report.efficiency * 100.0)
    row["throughput_mbps"] = report.throughput_mbps
    if report.response_time:
        row["mean_response_ms"] = report.response_time.mean_ms
        row["p95_response_ms"] = report.response_time.p95_ms
        row["max_response_ms"] = report.response_time.max_ms
    if report.access_delay:
        row["mean_access_ms"] = report.access_delay.mean_ms
        row["max_access_ms"] = report.access_delay.max_ms
    row["max_rotation_ms"] = report.max_rotation_ms
    if report.offered_load_mbps is not None and report.offered_load_mbps != float("inf"):
        row["offered_load_mbps"] = report.offered_load_mbps
    return row


# ---------------------------------------------------------------- analyze

def cmd_analyze(res: Resolver) -> int:
    preset_name, macs, fiber = _resolve_ring(res)
    ttrt = res.get("ttrt")
    n_active = _active(res.get("active"), macs)
    frame_bytes = res.get("frame_bytes")
    res.finish()

    row = _base_row(preset=preset_name, mac_count=macs, fiber_km=fiber, n_active=n_active,
                    ttrt_ms=ttrt, frame_bytes=frame_bytes)
    d_ms = _ring_latency_ms(row)
    print(f"ring: {preset_name or 'custom'} ({macs} MACs, {fiber:g} km fiber)")
    print(f"ring_latency_ms: {d_ms!r} (rounds to {paper_round(d_ms):g})")
    print(f"n_active: {n_active}")
    print(f"ttrt_ms: {ttrt:g}")
    try:
        basic = analytical.basic_model(RingParameters(n_active, ttrt, d_ms))
    except RingSaturatedError as exc:
        print(f"error: {SATURATED_MARKER}: {exc}", file=sys.stderr)
        return 1
    eff, delay_ms = basic.efficiency, basic.max_access_delay_ms
    print(f"efficiency: {eff!r} ({paper_round(eff * 100.0):.2f}%)")
    print(
        f"max_access_delay_ms: {delay_ms!r} "
        f"({paper_round(delay_ms / 1000.0):.2f} s)"
    )
    row = _analytical_row(row)
    if frame_bytes:
        print(f"overflow_frames_per_opportunity: {row['frames_per_opportunity']}")
        print(f"overflow_efficiency: {row['efficiency']!r}")
        print(f"overflow_max_access_delay_ms: {row['max_access_delay_ms']!r}")
    if res.args.out:
        _write_rows([row], res.args.out)
    return 0


# --------------------------------------------------------------- simulate

def _sim_settings(res: Resolver, any_ttrt: bool = False) -> tuple[float, int, dict]:
    """The run length, the base seed and the RingConfig keywords shared by
    every run of a command; any_ttrt is the default of allow_any_ttrt."""
    ring = dict(
        token_time_us=res.get("token_time_us"),
        async_overflow=not res.get("no_overflow"),
        allow_any_ttrt=res.get("allow_any_ttrt", default=any_ttrt),
    )
    return res.get("duration_ms"), res.get("seed"), ring


def _build_workload(row: dict, load_pct: float | None = None, interburst_ms: float | None = None):
    """The traffic of a simulated row: bursty (WIC) traffic on every station
    with the given mean burst gap or target utilization, else saturated
    stations (the row's active count) sending frames of the row's size."""
    if interburst_ms is not None:
        return WicWorkload(mean_interburst_ms=interburst_ms)
    if load_pct is not None:
        return WicWorkload.for_utilization(load_pct / 100.0, row["mac_count"])
    frame_bytes = row["frame_bytes"]
    return SaturationWorkload(
        frame_bytes=DEFAULT_LARGE_FRAME_BYTES if frame_bytes is None else frame_bytes,
        stations=tuple(range(row["n_active"])),
    )


def _print_report(report: metrics.MetricsReport) -> None:
    print(f"throughput_mbps: {report.throughput_mbps!r}")
    print(f"efficiency: {report.efficiency!r}")
    if report.offered_load_mbps == float("inf"):
        print("offered_load_mbps: saturated")
    elif report.offered_load_mbps is not None:
        print(f"offered_load_mbps: {report.offered_load_mbps!r}")
    if report.response_time:
        r = report.response_time
        print(
            f"response_ms: mean={r.mean_ms!r} p95={r.p95_ms!r} "
            f"max={r.max_ms!r} n={r.count}"
        )
    else:
        print("response_ms: no samples")
    if report.access_delay:
        a = report.access_delay
        print(f"access_ms: mean={a.mean_ms!r} max={a.max_ms!r} n={a.count}")
    else:
        print("access_ms: no samples")
    if report.access_bound_ms is not None:
        status = "EXCEEDED" if report.access_bound_exceeded else "ok"
        print(f"access_bound_ms: {report.access_bound_ms!r} ({status})")
    print(f"max_rotation_ms: {report.max_rotation_ms!r}")
    print(f"trt_bound_ok: {report.trt_bound_ok}")
    print(
        f"warmup_ms: {report.warmup_ms!r} "
        f"(discarded {report.warmup_frames_discarded} frames, "
        f"{report.warmup_access_discarded} access episodes)"
    )
    print(f"measured_interval_ms: {report.measured_interval_ms!r}")
    print(f"completed_frames: {report.completed_frames}")
    print(f"seed: {report.seed}")


def cmd_simulate(res: Resolver) -> int:
    preset_name, macs, fiber = _resolve_ring(res)
    n_active = _active(res.get("active"), macs)
    duration, seed, ring = _sim_settings(res)
    row = _base_row(preset=preset_name, mac_count=macs, fiber_km=fiber, n_active=n_active,
                    ttrt_ms=res.get("ttrt"), duration_ms=duration, replication=0, seed=seed)
    kind, interburst = res.get("workload"), None
    if kind == "saturation":
        row["frame_bytes"] = res.get("frame_bytes", default=DEFAULT_LARGE_FRAME_BYTES)
    elif kind == "wic":
        interburst = res.get("interburst_ms")
        row["load_pct"] = res.get("load_pct") if interburst is None else None
        if row["load_pct"] is None and interburst is None:
            raise CliError("wic workload needs --load-pct or --interburst-ms")
    else:
        raise CliError(f"unknown workload {kind!r}; choices: saturation, wic")
    config = RingConfig.uniform(macs, fiber, row["ttrt_ms"], **ring)
    load = _build_workload(row, row["load_pct"], interburst)
    res.finish()

    report = _simulate(config, load, duration, seed, n_active)
    _print_report(report)
    if res.args.out:
        _write_rows([_simulated_row(row, config, load, report)], res.args.out)
    return 0


# ------------------------------------------------------------------ sweep

def _parse_grid(raw: str, cast) -> tuple:
    try:
        values = [cast(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad grid {raw!r}: {exc}") from None
    if not values:
        raise CliError("grid is empty")
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"grid values must be finite, got {raw!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CliError("grid values must be strictly increasing")
    return tuple(values)


def _custom_sweep(res: Resolver) -> presets.Figure:
    """The unnamed Figure a --var/--grid sweep describes. It leaves unread the
    option the grid replaces and the inputs no row of the sweep uses."""
    var = res.get("var")
    if not var:
        raise CliError("give --figure or --var/--grid")
    if var not in SWEEP_VARS:
        raise CliError(f"unknown sweep variable {var!r}; choices: {', '.join(SWEEP_VARS)}")
    grid = res.get("grid")
    if not grid:
        raise CliError("--var needs --grid")
    mode = res.get("mode")
    if mode not in ("analytical", "simulate", "both"):
        raise CliError(f"unknown mode {mode!r}")
    key = SWEEP_VARS[var][1]
    # bursty traffic loads every station with the fixed WIC frame mix, so it
    # cannot follow a grid of active counts or frame sizes
    bursty = mode != "analytical" and key not in ("active", "frame_bytes")
    load_pct = res.get("load_pct") if bursty else None
    frame_unused = key == "frame_bytes" or (mode == "simulate" and load_pct is not None)
    return presets.Figure(
        description="",
        var=var,
        sweep_var=var,
        grid=_parse_grid(grid, OPTIONS[key].type),
        rings=(_resolve_ring(res, swept=key),),
        loads=(load_pct,),
        mode=mode,
        ttrt_ms=None if key == "ttrt" else res.get("ttrt"),
        n_active=None if key == "active" else res.get("active"),
        frame_bytes=None if frame_unused else res.get("frame_bytes"),
    )


def _sweep_rows(spec: presets.Figure, figure: str, replications: int, sim) -> list[dict]:
    """Every row of a sweep: ring, then load, then grid point, each point
    giving its closed-form row and/or, when spec simulates, one simulated
    row per replication, run with sim, the command's _sim_settings."""
    column = SWEEP_VARS[spec.var][0]
    rows: list[dict] = []
    for preset_name, macs, fiber in spec.rings:
        for load_pct in spec.loads:
            for value in spec.grid:
                point = _base_row(
                    figure=figure, preset=preset_name, sweep_var=spec.sweep_var,
                    sweep_value=value, mac_count=macs, fiber_km=fiber,
                    n_active=spec.n_active, ttrt_ms=spec.ttrt_ms, frame_bytes=spec.frame_bytes,
                )
                point[column] = value
                point["n_active"] = _active(point["n_active"], point["mac_count"])
                if spec.mode != "simulate":
                    rows.append(_analytical_row(dict(point)))
                if not sim:
                    continue
                duration, seed, ring = sim
                config = RingConfig.uniform(point["mac_count"], point["fiber_km"],
                                            point["ttrt_ms"], **ring)
                load = _build_workload(point, load_pct)
                saturated = point["ttrt_ms"] <= _ring_latency_ms(point)
                for rep in range(replications):
                    row = dict(point, load_pct=load_pct, duration_ms=duration,
                               replication=rep, seed=seed + rep)
                    report = None if saturated else _simulate(
                        config, load, duration, seed + rep, point["n_active"])
                    rows.append(_simulated_row(row, config, load, report))
    return rows


def cmd_sweep(res: Resolver) -> int:
    figure = res.get("figure") or ""
    if figure:
        if figure not in presets.FIGURES:
            raise CliError(f"unknown figure {figure!r}; choices: {', '.join(presets.FIGURES)}")
        spec = presets.FIGURES[figure]
    else:
        spec = _custom_sweep(res)
    replications, sim = 1, None
    if spec.mode != "analytical":
        replications = res.get("replications")
        if replications < 1:
            raise CliError("--replications must be >= 1")
        # figure grids probe TTRTs outside the legal window on purpose
        sim = _sim_settings(res, any_ttrt=bool(figure))
    res.finish()
    _write_rows(_sweep_rows(spec, figure, replications, sim), res.args.out)
    return 0


# ----------------------------------------------------------------- table1

def cmd_table1(res: Resolver) -> int:
    res.finish()
    rows = presets.table1_rows()
    _write_rows([
        _base_row(
            figure="table1", mode="analytical", preset=r.preset,
            sweep_var="ttrt", sweep_value=r.ttrt_ms,
            mac_count=PRESETS[r.preset].mac_count,
            fiber_km=PRESETS[r.preset].fiber_km,
            n_active=PRESETS[r.preset].mac_count,
            ttrt_ms=r.ttrt_ms,
            efficiency=r.efficiency_pct / 100.0,
            efficiency_pct_rounded=r.efficiency_pct_rounded,
            max_access_delay_ms=r.access_delay_s * 1000.0,
            access_delay_s_rounded=r.access_delay_s_rounded,
            error=None if r.matches else "golden_mismatch",
        )
        for r in rows
    ], res.args.out)
    mismatches = [r for r in rows if not r.matches]
    if mismatches:
        print("golden table mismatches:", file=sys.stderr)
        for r in mismatches:
            print(f"  {r.preset}/{r.ttrt_ms:g} ms: access {r.access_delay_s_rounded} "
                  f"(golden {r.golden_access_s}), efficiency {r.efficiency_pct_rounded} "
                  f"(golden {r.golden_efficiency_pct})", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- validate

def cmd_validate(res: Resolver) -> int:
    ttrt = res.get("ttrt")
    ring = analytical.MAX_RING_LATENCY_MS if res.get("max_ring") else res.get("ring_latency_ms")
    if ring is None:
        _, macs, fiber = _resolve_ring(res)
        ring = PhysicalRing(fiber_km=fiber, mac_count=macs)
    sync_ms = sum(res.get("sync_ms") or [0.0])
    frame_bytes = res.get("frame_bytes", default=analytical.MAX_FRAME_BYTES)
    t_max = res.get("t_max_ms")
    service = res.get("service_interval_ms")
    res.finish()

    verdict = analytical.validate_ttrt(
        ttrt,
        ring,
        sync_allocation_ms=sync_ms,
        max_frame_time_ms=analytical.frame_time_ms(frame_bytes),
        service_interval_ms=min(service) if service else None,
        t_max_ms=t_max,
    )
    print(f"requested_ttrt_ms: {verdict.requested_ttrt_ms:g}")
    print(f"ring_latency_ms: {verdict.ring_latency_ms!r}")
    print(f"sync_allocation_ms: {verdict.sync_allocation_ms:g}")
    print(f"min_legal_ttrt_ms: {verdict.min_legal_ttrt_ms!r} "
          f"(rounds to {paper_round(verdict.min_legal_ttrt_ms, 3):g})")
    if verdict.advisory_ttrt_ms is not None:
        print(f"advisory_ttrt_ms: {verdict.advisory_ttrt_ms:g} "
              f"(half the required service interval)")
    if verdict.ok:
        print("verdict: ok")
        return 0
    print(f"verdict: violates rules {', '.join(str(r) for r in verdict.violated_rules)}")
    for msg in verdict.messages:
        print(f"  {msg}")
    return 1


# ------------------------------------------------------------------ parser

class Command(NamedTuple):
    help: str
    run: Callable[[Resolver], int]
    options: tuple[str, ...]  # the OPTIONS it takes besides COMMON
    required: tuple[str, ...] = ()  # options it takes without a default


_RING = ("preset", "macs", "fiber_km", "ttrt", "active")
_SIM = ("token_time_us", "no_overflow", "allow_any_ttrt", "duration_ms", "seed")

COMMANDS: dict[str, Command] = {
    "analyze": Command("closed-form efficiency and access delay", cmd_analyze,
                       _RING + ("frame_bytes",)),
    "simulate": Command("run the simulator once", cmd_simulate,
                        _RING + ("workload", "frame_bytes", "load_pct", "interburst_ms") + _SIM),
    "sweep": Command("parameter sweeps to CSV", cmd_sweep,
                     ("figure", "var", "grid", "mode", "replications") + _RING
                     + ("frame_bytes", "load_pct") + _SIM),
    "table1": Command("recompute and verify the golden reference table", cmd_table1, ()),
    "validate": Command("check a TTRT against the standard's rules", cmd_validate,
                        _RING + ("ring_latency_ms", "max_ring", "sync_ms",
                                 "service_interval_ms", "frame_bytes", "t_max_ms"), ("ttrt",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from COMMANDS and OPTIONS on first use
    and reused by every later call to main(). Every flag defaults to None,
    so the Resolver can tell a flag given from one left out."""
    parser = argparse.ArgumentParser(
        prog="fddiperf",
        description="Timed-token ring performance toolkit: closed-form models, "
        "a deterministic simulator, TTRT validation, and CSV sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.options + COMMON:
            opt = OPTIONS[key]
            if opt.type is bool:
                p.add_argument(_flag(key), action="store_true", default=None, help=opt.help)
                continue
            text = opt.help
            if opt.default is not None and key not in command.required:
                text += f" (default {opt.default})"
            p.add_argument(_flag(key), type=opt.type, action="append" if opt.repeat else "store",
                           help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command].run(Resolver(args))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (CliError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so the flush at exit
        # cannot raise again, and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
