"""Command-line front end.

Subcommands:

  analyze   closed-form efficiency / max access delay for one configuration
  simulate  one simulator run with a saturation or bursty workload
  sweep     parameter sweeps to CSV, including the named figure presets
  table1    recompute the golden reference table and verify every cell
  validate  check a requested TTRT against the standard's rules

Values may come from an INI config file (--config); explicit flags always
override file values, and --dump-config prints the fully resolved
configuration for provenance. Sweep output echoes every input including
the seed, so any CSV row can be reproduced on its own.

Exit codes: 0 success, 1 validation failure / golden mismatch / saturated
configuration, 2 bad input.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import math
import sys

from . import analytical, metrics, presets, simcore, workload
from .analytical import PhysicalRing, RingParameters, RingSaturatedError
from .presets import PRESETS, paper_round
from .simcore import RingConfig
from .workload import SaturationWorkload, WicWorkload

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

DEFAULT_SEED = 1
DEFAULT_DURATION_MS = 1000.0
DEFAULT_SAT_FRAME_BYTES = 512


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
        buf = io.StringIO()
        emit(buf)
        sys.stdout.write(buf.getvalue())


class Resolver:
    """Layered lookup: CLI flag, then config file, then built-in default."""

    def __init__(self, args: argparse.Namespace, config_path: str | None):
        self._args = args
        self._file: dict[tuple[str, str], str] = {}
        self.resolved: dict[tuple[str, str], object] = {}
        if config_path:
            cp = configparser.ConfigParser()
            if not cp.read(config_path):
                raise CliError(f"cannot read config file {config_path!r}")
            for section in cp.sections():
                for key, value in cp.items(section):
                    self._file[(section, key)] = value

    def get(self, section: str, key: str, default=None, cast=str):
        value = getattr(self._args, key, None)
        if value is None and (section, key) in self._file:
            raw = self._file[(section, key)]
            if cast is bool:
                value = raw.strip().lower() in ("1", "true", "yes", "on")
            else:
                try:
                    value = cast(raw)
                except ValueError as exc:
                    raise CliError(f"config [{section}] {key} = {raw!r}: {exc}") from None
        if value is None:
            value = default
        self.resolved[(section, key)] = value
        return value

    def dump(self) -> str:
        sections: dict[str, list[tuple[str, object]]] = {}
        for (section, key), value in sorted(self.resolved.items()):
            sections.setdefault(section, []).append((key, value))
        lines = []
        for section, items in sections.items():
            lines.append(f"[{section}]")
            for key, value in items:
                lines.append(f"{key} = {_fmt(value) if value is not None else ''}")
            lines.append("")
        return "\n".join(lines)


def _resolve_ring(res: Resolver) -> tuple[str, int, float]:
    """Returns (preset name or '', mac_count, fiber_km)."""
    preset_name = res.get("ring", "preset")
    macs = res.get("ring", "macs", cast=int)
    fiber = res.get("ring", "fiber_km", cast=float)
    if preset_name:
        if preset_name not in PRESETS:
            raise CliError(f"unknown preset {preset_name!r}; choices: {', '.join(PRESETS)}")
        p = PRESETS[preset_name]
        return preset_name, macs if macs is not None else p.mac_count, (
            fiber if fiber is not None else p.fiber_km
        )
    if macs is None or fiber is None:
        raise CliError("give --preset, or both --macs and --fiber-km")
    return "", macs, fiber


def _base_row(**kwargs) -> dict:
    row = {col: None for col in CSV_COLUMNS}
    row.update(kwargs)
    return row


def _analytical_row(row: dict, n_active: int, ttrt_ms: float, d_ms: float,
                    frame_bytes: int | None) -> dict:
    """Fill the metric columns of a row from the closed-form model; mark the
    row instead of failing when latency swallows the TTRT."""
    try:
        if frame_bytes:
            result = analytical.overflow_model(
                RingParameters(n_active, ttrt_ms, d_ms, analytical.frame_time_ms(frame_bytes))
            )
        else:
            result = analytical.basic_model(RingParameters(n_active, ttrt_ms, d_ms))
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
    """One simulator run, summarized with the access-delay bound for
    n_active stations."""
    result = simcore.run(config, load, duration_ms=duration_ms, seed=seed)
    return metrics.summarize(
        result,
        offered_load_mbps=load.total_offered_load_mbps(config.n_stations),
        n_active=n_active,
        max_frame_bytes=load.max_frame_bytes,
    )


def _simulated_row(row: dict, report: metrics.MetricsReport) -> dict:
    """Fill the metric columns of a row from a simulated run's report."""
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

def cmd_analyze(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    preset_name, macs, fiber = _resolve_ring(res)
    ttrt = res.get("ring", "ttrt", default=8.0, cast=float)
    n_active = res.get("ring", "active", cast=int)
    frame_bytes = res.get("workload", "frame_bytes", cast=int)
    if n_active is None:
        n_active = macs
    if args.dump_config:
        sys.stdout.write(res.dump())

    ring = PhysicalRing(fiber_km=fiber, mac_count=macs)
    d_ms = analytical.ring_latency(ring)
    print(f"ring: {preset_name or 'custom'} ({macs} MACs, {fiber:g} km fiber)")
    print(f"ring_latency_ms: {d_ms!r} (rounds to {paper_round(d_ms):g})")
    print(f"n_active: {n_active}")
    print(f"ttrt_ms: {ttrt:g}")
    try:
        p = RingParameters(n_active, ttrt, d_ms)
        eff = analytical.efficiency(p)
        delay_ms = analytical.max_access_delay(p)
    except RingSaturatedError as exc:
        print(f"error: {SATURATED_MARKER}: {exc}", file=sys.stderr)
        return 1
    print(f"efficiency: {eff!r} ({paper_round(eff * 100.0):.2f}%)")
    print(
        f"max_access_delay_ms: {delay_ms!r} "
        f"({paper_round(delay_ms / 1000.0):.2f} s)"
    )
    k = None
    if frame_bytes:
        ovf = analytical.overflow_model(
            RingParameters(n_active, ttrt, d_ms, analytical.frame_time_ms(frame_bytes))
        )
        k = ovf.frames_per_opportunity
        print(f"overflow_frames_per_opportunity: {k}")
        print(f"overflow_efficiency: {ovf.efficiency!r}")
        print(f"overflow_max_access_delay_ms: {ovf.max_access_delay_ms!r}")

    if args.out:
        row = _base_row(
            mode="analytical",
            preset=preset_name,
            mac_count=macs,
            fiber_km=fiber,
            n_active=n_active,
            ttrt_ms=ttrt,
            frame_bytes=frame_bytes,
        )
        _write_rows([_analytical_row(row, n_active, ttrt, d_ms, frame_bytes)], args.out)
    return 0


# --------------------------------------------------------------- simulate

def _build_sim_config(res: Resolver, ttrt: float, macs: int, fiber: float) -> RingConfig:
    token_us = res.get("ring", "token_time_us", default=0.88, cast=float)
    no_overflow = res.get("ring", "no_overflow", default=False, cast=bool)
    allow_any = res.get("ring", "allow_any_ttrt", default=False, cast=bool)
    return RingConfig.uniform(
        n_stations=macs,
        fiber_km=fiber,
        ttrt_ms=ttrt,
        token_time_us=token_us,
        async_overflow=not no_overflow,
        allow_any_ttrt=allow_any,
    )


def _build_workload(res: Resolver, macs: int, n_active: int):
    kind = res.get("workload", "workload", default="saturation")
    if kind == "saturation":
        frame_bytes = res.get("workload", "frame_bytes", default=DEFAULT_SAT_FRAME_BYTES, cast=int)
        return SaturationWorkload(frame_bytes=frame_bytes, stations=tuple(range(n_active)))
    if kind == "wic":
        load_pct = res.get("workload", "load_pct", cast=float)
        interburst = res.get("workload", "interburst_ms", cast=float)
        if interburst is not None:
            return WicWorkload(mean_interburst_ms=interburst)
        if load_pct is not None:
            return WicWorkload.for_utilization(load_pct / 100.0, macs)
        raise CliError("wic workload needs --load-pct or --interburst-ms")
    raise CliError(f"unknown workload {kind!r}; choices: saturation, wic")


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


def cmd_simulate(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    preset_name, macs, fiber = _resolve_ring(res)
    ttrt = res.get("ring", "ttrt", default=8.0, cast=float)
    n_active = res.get("ring", "active", cast=int)
    if n_active is None:
        n_active = macs
    if not 1 <= n_active <= macs:
        raise CliError(f"--active must be in [1, {macs}]")
    duration = res.get("run", "duration_ms", default=DEFAULT_DURATION_MS, cast=float)
    seed = res.get("run", "seed", default=DEFAULT_SEED, cast=int)
    config = _build_sim_config(res, ttrt, macs, fiber)
    load = _build_workload(res, macs, n_active)
    if args.dump_config:
        sys.stdout.write(res.dump())

    bound_active = n_active if isinstance(load, SaturationWorkload) else macs
    report = _simulate(config, load, duration, seed, bound_active)
    _print_report(report)

    if args.out:
        row = _base_row(
            mode="simulated",
            preset=preset_name,
            mac_count=macs,
            fiber_km=fiber,
            n_active=n_active,
            ttrt_ms=ttrt,
            frame_bytes=getattr(load, "frame_bytes", None),
            load_pct=res.resolved.get(("workload", "load_pct")),
            interburst_ms=getattr(load, "mean_interburst_ms", None),
            token_time_us=config.token_time_us,
            async_overflow=config.async_overflow,
            duration_ms=duration,
            replication=0,
            seed=seed,
        )
        _write_rows([_simulated_row(row, report)], args.out)
    return 0


# ------------------------------------------------------------------ sweep

def _figure_rows(figure: str, res: Resolver, seed: int, replications: int) -> list[dict]:
    rows: list[dict] = []
    if figure in ("fig1", "fig2"):
        for name in ("typical", "big", "largest"):
            p = PRESETS[name]
            d_ms = p.ring_latency_ms()
            for ttrt in presets.FIG_TTRT_GRID_MS:
                row = _base_row(
                    figure=figure, mode="analytical", preset=name,
                    sweep_var="ttrt", sweep_value=ttrt,
                    mac_count=p.mac_count, fiber_km=p.fiber_km,
                    n_active=p.mac_count, ttrt_ms=ttrt,
                )
                rows.append(_analytical_row(row, p.mac_count, ttrt, d_ms, None))
        return rows

    if figure == "fig3":
        duration = res.get("run", "duration_ms", default=presets.FIG3_DURATION_MS, cast=float)
        n = presets.FIG3_STATIONS
        for load_pct in presets.FIG3_LOAD_PCT:
            load = WicWorkload.for_utilization(load_pct / 100.0, n)
            for ttrt in presets.FIG3_TTRT_GRID_MS:
                config = RingConfig.uniform(
                    n_stations=n, fiber_km=presets.FIG3_FIBER_KM, ttrt_ms=ttrt,
                    allow_any_ttrt=True,
                )
                for rep in range(replications):
                    row = _base_row(
                        figure=figure, mode="simulated", preset="",
                        sweep_var="ttrt", sweep_value=ttrt,
                        mac_count=n, fiber_km=presets.FIG3_FIBER_KM,
                        n_active=n, ttrt_ms=ttrt,
                        load_pct=load_pct,
                        interburst_ms=load.mean_interburst_ms,
                        token_time_us=config.token_time_us,
                        async_overflow=config.async_overflow,
                        duration_ms=duration, replication=rep, seed=seed + rep,
                    )
                    report = _simulate(config, load, duration, seed + rep, n)
                    rows.append(_simulated_row(row, report))
        return rows

    if figure in ("fig4", "fig5"):
        n = presets.EXTENT_STATIONS
        for extent_km in presets.EXTENT_GRID_KM:
            d_ms = analytical.ring_latency(PhysicalRing(fiber_km=extent_km, mac_count=n))
            row = _base_row(
                figure=figure, mode="analytical", preset="",
                sweep_var="extent_km", sweep_value=extent_km,
                mac_count=n, fiber_km=extent_km, n_active=n,
                ttrt_ms=presets.FIGURE_TTRT_MS,
            )
            rows.append(_analytical_row(row, n, presets.FIGURE_TTRT_MS, d_ms, None))
        return rows

    if figure in ("fig6", "fig7"):
        p = PRESETS["largest"]
        d_ms = p.ring_latency_ms()
        for active in presets.ACTIVE_MACS_GRID:
            row = _base_row(
                figure=figure, mode="analytical", preset=p.name,
                sweep_var="active_macs", sweep_value=active,
                mac_count=p.mac_count, fiber_km=p.fiber_km,
                n_active=active, ttrt_ms=presets.FIGURE_TTRT_MS,
            )
            rows.append(_analytical_row(row, active, presets.FIGURE_TTRT_MS, d_ms, None))
        return rows

    if figure in ("fig8", "fig9"):
        p = PRESETS["largest"]
        d_ms = p.ring_latency_ms()
        for frame_bytes in presets.FRAME_SIZE_GRID_BYTES:
            row = _base_row(
                figure=figure, mode="analytical", preset=p.name,
                sweep_var="frame_bytes", sweep_value=frame_bytes,
                mac_count=p.mac_count, fiber_km=p.fiber_km,
                n_active=p.mac_count, ttrt_ms=presets.FIGURE_TTRT_MS,
                frame_bytes=frame_bytes,
            )
            rows.append(
                _analytical_row(row, p.mac_count, presets.FIGURE_TTRT_MS, d_ms, frame_bytes)
            )
        return rows

    raise CliError(f"unknown figure {figure!r}; choices: {', '.join(presets.FIGURES)}")


def _parse_grid(raw: str, cast) -> list:
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
    return values


def _custom_rows(res: Resolver) -> list[dict]:
    var = res.get("sweep", "var")
    if not var:
        raise CliError("give --figure or --var/--grid")
    grid_raw = res.get("sweep", "grid")
    if not grid_raw:
        raise CliError("--var needs --grid")
    mode = res.get("sweep", "mode", default="analytical")
    if mode not in ("analytical", "simulate", "both"):
        raise CliError(f"unknown mode {mode!r}")
    replications = res.get("sweep", "replications", default=1, cast=int)
    if replications < 1:
        raise CliError("--replications must be >= 1")
    seed = res.get("run", "seed", default=DEFAULT_SEED, cast=int)
    duration = res.get("run", "duration_ms", default=DEFAULT_DURATION_MS, cast=float)
    # the swept variable supplies its own ring dimension, so only require
    # the ones that stay fixed
    preset_name = res.get("ring", "preset") or ""
    if preset_name and preset_name not in PRESETS:
        raise CliError(f"unknown preset {preset_name!r}; choices: {', '.join(PRESETS)}")
    macs = res.get("ring", "macs", cast=int)
    fiber = res.get("ring", "fiber_km", cast=float)
    if preset_name:
        p = PRESETS[preset_name]
        macs = macs if macs is not None else p.mac_count
        fiber = fiber if fiber is not None else p.fiber_km
    if macs is None and var != "total_stations":
        raise CliError("give --preset or --macs")
    if fiber is None:
        if var != "extent":
            raise CliError("give --preset or --fiber-km")
        fiber = 0.0
    ttrt = res.get("ring", "ttrt", default=8.0, cast=float)
    n_active = res.get("ring", "active", cast=int)
    frame_bytes = res.get("workload", "frame_bytes", cast=int)
    sim_frame = frame_bytes if frame_bytes is not None else DEFAULT_SAT_FRAME_BYTES
    load_pct = res.get("workload", "load_pct", cast=float)

    cast = int if var in ("total_stations", "active_macs", "frame_size") else float
    grid = _parse_grid(grid_raw, cast)

    rows: list[dict] = []
    for value in grid:
        point_macs, point_fiber, point_ttrt = macs, fiber, ttrt
        point_frame = frame_bytes
        if var == "ttrt":
            point_ttrt = value
        elif var == "extent":
            point_fiber = value
        elif var == "total_stations":
            point_macs = value
        elif var == "active_macs":
            pass
        elif var == "frame_size":
            point_frame = value
        else:
            raise CliError(
                f"unknown sweep variable {var!r}; choices: ttrt, extent, "
                "total_stations, active_macs, frame_size"
            )
        point_active = value if var == "active_macs" else (
            n_active if n_active is not None else point_macs
        )
        if not 1 <= point_active <= point_macs:
            raise CliError(f"active count {point_active} outside [1, {point_macs}]")
        d_ms = analytical.ring_latency(PhysicalRing(fiber_km=point_fiber, mac_count=point_macs))

        common = dict(
            preset=preset_name, sweep_var=var, sweep_value=value,
            mac_count=point_macs, fiber_km=point_fiber,
            n_active=point_active, ttrt_ms=point_ttrt,
        )
        if mode in ("analytical", "both"):
            row = _base_row(figure="", mode="analytical", frame_bytes=point_frame, **common)
            rows.append(_analytical_row(row, point_active, point_ttrt, d_ms, point_frame))
        if mode in ("simulate", "both"):
            try:
                config = RingConfig.uniform(
                    n_stations=point_macs, fiber_km=point_fiber, ttrt_ms=point_ttrt,
                    token_time_us=res.get("ring", "token_time_us", default=0.88, cast=float),
                    async_overflow=not res.get("ring", "no_overflow", default=False, cast=bool),
                    allow_any_ttrt=res.get("ring", "allow_any_ttrt", default=False, cast=bool),
                )
            except ValueError as exc:
                raise CliError(str(exc)) from None
            if load_pct is not None:
                load = WicWorkload.for_utilization(load_pct / 100.0, point_macs)
            else:
                load = SaturationWorkload(
                    frame_bytes=point_frame if point_frame else sim_frame,
                    stations=tuple(range(point_active)),
                )
            for rep in range(replications):
                row = _base_row(
                    figure="", mode="simulated",
                    frame_bytes=getattr(load, "frame_bytes", None),
                    load_pct=load_pct,
                    interburst_ms=getattr(load, "mean_interburst_ms", None),
                    token_time_us=config.token_time_us,
                    async_overflow=config.async_overflow,
                    duration_ms=duration, replication=rep, seed=seed + rep,
                    **common,
                )
                if point_ttrt <= d_ms:
                    row["error"] = SATURATED_MARKER
                    rows.append(row)
                    continue
                report = _simulate(config, load, duration, seed + rep, point_active)
                rows.append(_simulated_row(row, report))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    figure = res.get("sweep", "figure")
    seed = res.get("run", "seed", default=DEFAULT_SEED, cast=int)
    replications = res.get("sweep", "replications", default=1, cast=int)
    if figure:
        rows = _figure_rows(figure, res, seed, replications)
    else:
        rows = _custom_rows(res)
    if args.dump_config:
        sys.stdout.write(res.dump())
    _write_rows(rows, args.out)
    return 0


# ----------------------------------------------------------------- table1

def cmd_table1(args: argparse.Namespace) -> int:
    rows = presets.table1_rows()
    out_rows = []
    mismatches = []
    for r in rows:
        out_rows.append(
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
        )
        if not r.matches:
            mismatches.append(
                f"{r.preset}/{r.ttrt_ms:g} ms: access {r.access_delay_s_rounded} "
                f"(golden {r.golden_access_s}), efficiency {r.efficiency_pct_rounded} "
                f"(golden {r.golden_efficiency_pct})"
            )
    _write_rows(out_rows, args.out)
    if mismatches:
        print("golden table mismatches:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------- validate

def cmd_validate(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    ttrt = res.get("ring", "ttrt", cast=float)
    if ttrt is None:
        raise CliError("validate needs --ttrt")
    ring: PhysicalRing | float
    ring_latency_ms = res.get("ring", "ring_latency_ms", cast=float)
    if args.max_ring:
        ring = analytical.MAX_RING_LATENCY_MS
    elif ring_latency_ms is not None:
        ring = ring_latency_ms
    else:
        _, macs, fiber = _resolve_ring(res)
        ring = PhysicalRing(fiber_km=fiber, mac_count=macs)
    sync_ms = sum(args.sync_ms) if args.sync_ms else 0.0
    frame_bytes = res.get("workload", "frame_bytes", default=analytical.MAX_FRAME_BYTES, cast=int)
    t_max = res.get("ring", "t_max_ms", default=analytical.T_MAX_MS, cast=float)
    service = min(args.service_interval_ms) if args.service_interval_ms else None

    verdict = analytical.validate_ttrt(
        ttrt,
        ring,
        sync_allocation_ms=sync_ms,
        max_frame_time_ms=analytical.frame_time_ms(frame_bytes),
        service_interval_ms=service,
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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--dump-config", action="store_true",
                   help="print the fully resolved configuration")
    p.add_argument("--out", help="write CSV to this path")


def _add_ring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="typical | big | largest")
    p.add_argument("--macs", type=int, help="total MACs on the ring")
    p.add_argument("--fiber-km", type=float, help="total fiber length")
    p.add_argument("--ttrt", type=float, help="target token rotation time (ms)")
    p.add_argument("--active", type=int, help="number of active MACs")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--token-time-us", type=float, help="per-hop token time (default 0.88)")
    p.add_argument("--no-overflow", action="store_true", default=None,
                   help="stop at the holding budget instead of finishing the last frame")
    p.add_argument("--allow-any-ttrt", action="store_true", default=None,
                   help="permit TTRT outside the legal 4..167.77 ms window")
    p.add_argument("--duration-ms", type=float, help="simulated time per run")
    p.add_argument("--seed", type=int, help="base RNG seed")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    later call to main()."""
    parser = argparse.ArgumentParser(
        prog="fddiperf",
        description="Timed-token ring performance toolkit: closed-form models, "
        "a deterministic simulator, TTRT validation, and CSV sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form efficiency and access delay")
    _add_ring_flags(p)
    p.add_argument("--frame-bytes", type=int,
                   help="fixed frame size; adds the overflow-model outputs")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the simulator once")
    _add_ring_flags(p)
    p.add_argument("--workload", help="saturation (default) or wic")
    p.add_argument("--frame-bytes", type=int, help="saturation frame size")
    p.add_argument("--load-pct", type=float, help="wic target utilization, percent")
    p.add_argument("--interburst-ms", type=float, help="wic mean burst gap")
    _add_sim_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweeps to CSV")
    p.add_argument("--figure", help="named recipe: " + ", ".join(presets.FIGURES))
    p.add_argument("--var", help="ttrt | extent | total_stations | active_macs | frame_size")
    p.add_argument("--grid", help="comma-separated, strictly increasing values")
    p.add_argument("--mode", help="analytical (default) | simulate | both")
    p.add_argument("--replications", type=int, help="simulated repeats per point")
    _add_ring_flags(p)
    p.add_argument("--frame-bytes", type=int, help="fixed frame size")
    p.add_argument("--load-pct", type=float, help="wic target utilization, percent")
    _add_sim_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="recompute and verify the golden reference table")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("validate", help="check a TTRT against the standard's rules")
    _add_ring_flags(p)
    p.add_argument("--ring-latency-ms", type=float, help="use this latency directly")
    p.add_argument("--max-ring", action="store_true",
                   help="validate against the maximum-size ring")
    p.add_argument("--sync-ms", type=float, action="append",
                   help="synchronous allocation (repeatable, summed)")
    p.add_argument("--service-interval-ms", type=float, action="append",
                   help="required service interval (repeatable; tightest wins)")
    p.add_argument("--frame-bytes", type=int, help="maximum frame size in bytes")
    p.add_argument("--t-max-ms", type=float, help="station T_max (165..167.77216)")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
