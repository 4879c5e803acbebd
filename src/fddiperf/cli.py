"""Command-line front end.

Subcommands:

  analyze   closed-form efficiency / max access delay for one configuration
  simulate  one simulator run with a saturation or bursty workload
  sweep     CSV sweeps: a figure preset (a presets.FIGURES entry) or --var/--grid
  table1    recompute the golden reference table and verify every cell
  validate  check a requested TTRT against the standard's rules

Values may come from an INI config file (--config); explicit flags always
override file values, and --dump-config prints each key the command read,
resolved, for provenance. Every sweep runs through one engine, and its
output echoes every input including the seed, so any CSV row can be
reproduced on its own.

Exit codes: 0 success, 1 validation failure / golden mismatch / saturated
configuration, 2 bad input.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
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
        emit(sys.stdout)


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


# sweep variable -> (the row column its grid values set, their type)
SWEEP_VARS: dict[str, tuple[str, type]] = {
    "ttrt": ("ttrt_ms", float),
    "extent": ("fiber_km", float),
    "total_stations": ("mac_count", int),
    "active_macs": ("n_active", int),
    "frame_size": ("frame_bytes", int),
}


def _resolve_ring(res: Resolver, swept: str = "") -> tuple[str, int | None, float | None]:
    """Returns (preset name or '', mac_count, fiber_km). The ring dimension
    a sweep varies, named by its row column in swept, may stay None."""
    preset_name = res.get("ring", "preset") or ""
    macs = res.get("ring", "macs", cast=int)
    fiber = res.get("ring", "fiber_km", cast=float)
    if preset_name:
        if preset_name not in PRESETS:
            raise CliError(f"unknown preset {preset_name!r}; choices: {', '.join(PRESETS)}")
        p = PRESETS[preset_name]
        macs = p.mac_count if macs is None else macs
        fiber = p.fiber_km if fiber is None else fiber
    if (macs is None and swept != "mac_count") or (fiber is None and swept != "fiber_km"):
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

def cmd_analyze(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    preset_name, macs, fiber = _resolve_ring(res)
    ttrt = res.get("ring", "ttrt", default=8.0, cast=float)
    n_active = _active(res.get("ring", "active", cast=int), macs)
    frame_bytes = res.get("workload", "frame_bytes", cast=int)
    if args.dump_config:
        sys.stdout.write(res.dump())

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
    if args.out:
        _write_rows([row], args.out)
    return 0


# --------------------------------------------------------------- simulate

def _build_sim_config(res: Resolver, row: dict, any_ttrt: bool = False) -> RingConfig:
    """The simulator's ring for a row's MACs, fiber and TTRT; any_ttrt is
    the default of allow_any_ttrt."""
    return RingConfig.uniform(
        n_stations=row["mac_count"],
        fiber_km=row["fiber_km"],
        ttrt_ms=row["ttrt_ms"],
        token_time_us=res.get("ring", "token_time_us", default=0.88, cast=float),
        async_overflow=not res.get("ring", "no_overflow", default=False, cast=bool),
        allow_any_ttrt=res.get("ring", "allow_any_ttrt", default=any_ttrt, cast=bool),
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
    n_active = _active(res.get("ring", "active", cast=int), macs)
    duration = res.get("run", "duration_ms", default=DEFAULT_DURATION_MS, cast=float)
    seed = res.get("run", "seed", default=DEFAULT_SEED, cast=int)
    row = _base_row(preset=preset_name, mac_count=macs, fiber_km=fiber, n_active=n_active,
                    ttrt_ms=ttrt, duration_ms=duration, replication=0, seed=seed)
    config = _build_sim_config(res, row)
    load = _build_workload(res, macs, n_active)
    row["load_pct"] = res.resolved.get(("workload", "load_pct"))
    if args.dump_config:
        sys.stdout.write(res.dump())

    report = _simulate(config, load, duration, seed, n_active)
    _print_report(report)
    if args.out:
        _write_rows([_simulated_row(row, config, load, report)], args.out)
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


def _custom_sweep(res: Resolver, var: str | None, grid: str | None) -> presets.Figure:
    """The unnamed Figure a --var/--grid sweep describes."""
    if not var:
        raise CliError("give --figure or --var/--grid")
    if var not in SWEEP_VARS:
        raise CliError(f"unknown sweep variable {var!r}; choices: {', '.join(SWEEP_VARS)}")
    if not grid:
        raise CliError("--var needs --grid")
    mode = res.get("sweep", "mode", default="analytical")
    if mode not in ("analytical", "simulate", "both"):
        raise CliError(f"unknown mode {mode!r}")
    column, cast = SWEEP_VARS[var]
    return presets.Figure(
        description="",
        var=var,
        sweep_var=var,
        grid=_parse_grid(grid, cast),
        rings=(_resolve_ring(res, swept=column),),
        loads=(res.get("workload", "load_pct", cast=float),),
        mode=mode,
        ttrt_ms=res.get("ring", "ttrt", default=8.0, cast=float),
        n_active=res.get("ring", "active", cast=int),
        frame_bytes=res.get("workload", "frame_bytes", cast=int),
    )


def _sweep_rows(spec: presets.Figure, figure: str, res: Resolver) -> list[dict]:
    """Every row of a sweep: ring, then load, then grid point, each point
    giving its closed-form row and/or one simulated row per replication.
    Figure presets probe TTRTs outside the legal window on purpose, so they
    allow any TTRT by default."""
    column = SWEEP_VARS[spec.var][0]
    replications = res.get("sweep", "replications", default=1, cast=int)
    if replications < 1:
        raise CliError("--replications must be >= 1")
    simulate = spec.mode != "analytical"
    if simulate:
        seed = res.get("run", "seed", default=DEFAULT_SEED, cast=int)
        duration = res.get("run", "duration_ms", default=DEFAULT_DURATION_MS, cast=float)
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
                if not simulate:
                    continue
                config = _build_sim_config(res, point, any_ttrt=bool(figure))
                if load_pct is not None:
                    load = WicWorkload.for_utilization(load_pct / 100.0, point["mac_count"])
                else:
                    frame_bytes = point["frame_bytes"]
                    load = SaturationWorkload(
                        frame_bytes=DEFAULT_SAT_FRAME_BYTES if frame_bytes is None else frame_bytes,
                        stations=tuple(range(point["n_active"])),
                    )
                saturated = point["ttrt_ms"] <= _ring_latency_ms(point)
                for rep in range(replications):
                    row = dict(point, load_pct=load_pct, duration_ms=duration,
                               replication=rep, seed=seed + rep)
                    report = None if saturated else _simulate(
                        config, load, duration, seed + rep, point["n_active"])
                    rows.append(_simulated_row(row, config, load, report))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    res = Resolver(args, args.config)
    figure = res.get("sweep", "figure") or ""
    var = res.get("sweep", "var")
    grid = res.get("sweep", "grid")
    if figure:
        if var or grid:
            raise CliError("--figure takes no --var or --grid")
        if figure not in presets.FIGURES:
            raise CliError(f"unknown figure {figure!r}; choices: {', '.join(presets.FIGURES)}")
        spec = presets.FIGURES[figure]
    else:
        spec = _custom_sweep(res, var, grid)
    rows = _sweep_rows(spec, figure, res)
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
    except (CliError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
