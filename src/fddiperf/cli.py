"""Command-line front end.

Subcommands:

  analyze   closed-form efficiency / max access delay for one configuration
  simulate  one simulator run with a saturation or bursty workload
  sweep     CSV sweeps: a figure preset (a presets.FIGURES entry) or --var/--grid
  table1    recompute the golden reference table and verify every cell
  validate  check a requested TTRT against the standard's rules

Each option's flag, INI section, type, help, default and choices are
declared once, in OPTIONS, and COMMANDS lists the options each subcommand
takes. Each field of a simulated report is declared once too, in
_report_fields: simulate's stdout line and the CSV cells of a simulated
row. simulate and every sweep fill a simulated row's run inputs with one
function, _simulated_point, before --dump-config prints, and its metric
cells from _report_fields after the run. Values may come from an INI
config file (--config), whose keys must name an option in its own section;
explicit flags override file values. A command reads every option it uses
before it computes anything, and rejects a flag it was given but did not
use, or an --out path it cannot write; a TTRT, frame size or ring latency
outside the closed form's domain is refused by the `analytical` function
that uses it, in its words, and a simulated frame size in the same words.
--dump-config prints each key the command read, resolved, for provenance.
Every sweep runs through one engine, and its output echoes every input
including the seed, so any CSV row can be reproduced on its own.

Only the commands that simulate import simcore, workload and metrics, and
only those that write rows import csv.

Exit codes: 0 success, 1 validation failure / golden mismatch / saturated
configuration, 2 bad input, 141 (128 + SIGPIPE) when the reader of stdout
closes it early.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Callable
from operator import itemgetter

from . import analytical, presets
from .analytical import PhysicalRing, RingSaturatedError, record
from .presets import PRESETS, paper_round

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
    """A value as --dump-config prints it, and a row holds a boolean."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _write_rows(rows: list[dict], out_path: str | None, *, out=None) -> None:
    """The header and the rows as CSV: None as an empty cell, a float by its
    repr, and any other value by str, as csv writes them. To stdout, or to
    `out`, the file at out_path that Resolver.finish opened to append, which
    is emptied first if it holds anything (a pipe or a tty never does) and
    closed after."""
    import csv

    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(itemgetter(*CSV_COLUMNS), rows))

    if out_path:
        with out:
            if os.fstat(out.fileno()).st_size:
                out.truncate(0)
            emit(out)
    else:
        emit(sys.stdout)


@record("section type help", default=None, repeat=False, choices=None)
class Option:
    """The flag --key-with-dashes, and the INI key of the same name. A
    section of None marks a flag of the command line only, type bool an
    on/off flag, repeat a flag that may be given again, its values making a
    list, and choices the only values the option takes, from a flag or a
    config file."""


# sweep variable -> (the row column its grid values set, the option it replaces)
SWEEP_VARS: dict[str, tuple[str, str]] = {
    "ttrt": ("ttrt_ms", "ttrt"),
    "extent": ("fiber_km", "fiber_km"),
    "total_stations": ("mac_count", "macs"),
    "active_macs": ("n_active", "active"),
    "frame_size": ("frame_bytes", "frame_bytes"),
}

OPTIONS: dict[str, Option] = {
    "preset": Option("ring", str, "named ring", choices=tuple(PRESETS)),
    "macs": Option("ring", int, "total MACs on the ring"),
    "fiber_km": Option("ring", float, "total fiber length"),
    "ttrt": Option("ring", float, "target token rotation time (ms)", presets.FIGURE_TTRT_MS),
    "active": Option("ring", int, "number of active MACs"),
    "token_time_us": Option("ring", float, "per-hop token time", analytical.TOKEN_TIME_US),
    "no_overflow": Option("ring", bool, "start no frame the holding budget cannot fit", False),
    "allow_any_ttrt": Option("ring", bool, f"permit TTRT outside {analytical.T_MIN_MS:g}.."
                             f"{analytical.T_MAX_COUNTER_MS:.2f} ms", False),
    "ring_latency_ms": Option("ring", float, "use this latency directly"),
    "max_ring": Option(None, bool, "validate against the maximum-size ring", False),
    "sync_ms": Option(None, float, "synchronous allocation (summed)", repeat=True),
    "service_interval_ms": Option(None, float, "required service interval (tightest wins)",
                                  repeat=True),
    "t_max_ms": Option("ring", float, "station T_max (165..167.77216)", analytical.T_MAX_MS),
    "workload": Option("workload", str, "traffic", "saturation", choices=("saturation", "wic")),
    "frame_bytes": Option("workload", int, "frame size (validate: the largest) in bytes"),
    "load_pct": Option("workload", float, "wic target utilization, percent"),
    "interburst_ms": Option("workload", float, "wic mean burst gap"),
    "duration_ms": Option("run", float, "simulated time per run", analytical.DEFAULT_DURATION_MS),
    "seed": Option("run", int, "base RNG seed", 1),
    "figure": Option("sweep", str, "named recipe", choices=tuple(presets.FIGURES)),
    "var": Option("sweep", str, "the swept input", choices=tuple(SWEEP_VARS)),
    "grid": Option("sweep", str, "comma-separated, strictly increasing values"),
    "mode": Option("sweep", str, "rows to compute", "analytical",
                   choices=("analytical", "simulate", "both")),
    "replications": Option("sweep", int, "simulated repeats per point", 1),
    "config": Option(None, str, "INI config file; flags override its values"),
    "dump_config": Option(None, bool, "print the fully resolved configuration", False),
    "out": Option(None, str, "write CSV to this path"),
}
# Every subcommand takes these and may leave them unused; validate refuses --out.
COMMON = ("config", "dump_config", "out")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config_bool(raw: str) -> bool:
    """A config-file boolean, spelt as configparser itself accepts them."""
    import configparser  # only a --config file needs it: it slows every start
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
        self.out = None  # the --out file, once finish opens it
        self.out_made = False  # whether that made it (see main)
        if args.config:
            import configparser  # see _config_bool
            cp = configparser.ConfigParser()
            try:
                if not cp.read(args.config):
                    raise CliError(f"cannot read config file {args.config!r}")
                items = [(section, cp.items(section)) for section in cp.sections()]
            except configparser.Error as exc:
                first_line = str(exc).splitlines()[0]
                raise CliError(f"config file {args.config!r}: {first_line}") from None
            for section, pairs in items:
                for key, value in pairs:
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
        if opt.choices and value is not None and value not in opt.choices:
            raise CliError(f"unknown {key} {value!r}; choices: {', '.join(opt.choices)}")
        self.resolved[key] = value
        return value

    def finish(self) -> Callable[[str], None]:
        """Reject the flags given that the command did not read, open the
        --out file or refuse a path that cannot be opened, then print
        --dump-config: each key the command read and resolved to a value.
        Returns how to print a line of the command's report: after a dump,
        as a comment, so that the dump still reads back as a config file."""
        command = self.args.command
        unused = [_flag(key) for key in COMMANDS[command].options
                  if key not in self.resolved and getattr(self.args, key) is not None]
        if unused:
            raise CliError(f"{command} cannot use {', '.join(unused)} with these inputs")
        path = self.args.out
        if path:  # opened to append, which truncates nothing, before any work
            self.out_made = not os.path.lexists(path)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            except OSError as exc:
                raise CliError(f"cannot write {path!r}: {exc.strerror}") from None
            self.out = os.fdopen(fd, "a", newline="")
        if not self.args.dump_config:
            return print
        lost = [_flag(key) for key in self.resolved  # a dump would read back without them
                if OPTIONS[key].section is None and getattr(self.args, key) is not None]
        if lost:
            raise CliError(f"--dump-config cannot record {', '.join(lost)}: no config key holds it")
        sections: dict[str, list[str]] = {}
        for key, value in sorted(self.resolved.items()):
            if OPTIONS[key].section and value is not None:
                sections.setdefault(OPTIONS[key].section, []).append(f"{key} = {_fmt(value)}")
        lines = []
        for section, items in sorted(sections.items()):
            lines += [f"[{section}]", *items, ""]
        sys.stdout.write("\n".join(lines))
        return lambda line: print("# " + line)


def _resolve_ring(res: Resolver, swept: str = "") -> tuple[str, int | None, float | None]:
    """Returns (preset name or '', mac_count, fiber_km). The ring option a
    sweep varies, named in swept, is not read and may stay None."""
    preset_name = res.get("preset") or ""
    macs = None if swept == "macs" else res.get("macs")
    fiber = None if swept == "fiber_km" else res.get("fiber_km")
    if preset_name:
        p = PRESETS[preset_name]
        macs = p.mac_count if macs is None else macs
        fiber = p.fiber_km if fiber is None else fiber
    if (macs is None and swept != "macs") or (fiber is None and swept != "fiber_km"):
        raise CliError("give --preset, or both --macs and --fiber-km")
    return preset_name, macs, fiber


def _active(n_active: int | None, macs: int) -> int:
    """The active count (every MAC by default) checked against the ring, whose
    MAC count is checked first; zero MACs, the closed form's idealised
    zero-latency ring, bounds none."""
    if not 0 <= macs <= analytical.MAX_MAC_COUNT:
        PhysicalRing(0.0, macs)  # raises the record's own error
    if n_active is None and macs == 0:
        raise CliError("a ring of 0 MACs needs --active")
    n_active = macs if n_active is None else n_active
    if n_active < 1 or n_active > macs > 0:
        raise CliError(f"active count {n_active} outside [1, {macs}]")
    return n_active


def _simulable(macs: int) -> int:
    """The MAC count of a ring to simulate, within PhysicalRing's limit: the
    closed form's zero-latency ring of 0 MACs has no station to simulate."""
    if macs == 0:
        raise CliError("the simulator needs at least one MAC")
    return PhysicalRing(0.0, macs).mac_count


def _base_row(**kwargs) -> dict:
    return dict(dict.fromkeys(CSV_COLUMNS), **kwargs)


def _ring_latency_ms(fiber_km: float, mac_count: int) -> float:
    return analytical.ring_latency(PhysicalRing(fiber_km=fiber_km, mac_count=mac_count))


def _analytical_row(row: dict, d_ms: float) -> dict:
    """Fill the metric columns of a row from the closed-form model for its
    ring latency d_ms, active count, TTRT and frame size (the overflow model
    when a frame size is set); mark the row instead of failing when latency
    swallows the TTRT."""
    row["mode"] = "analytical"
    frame_bytes = row["frame_bytes"]
    frame_ms = None if frame_bytes is None else analytical.frame_time_ms(frame_bytes)
    try:
        eff, delay_ms, k = analytical.heavy_load(row["n_active"], row["ttrt_ms"], d_ms, frame_ms)
    except RingSaturatedError:
        row["error"] = SATURATED_MARKER
        return row
    row["efficiency"] = eff
    row["efficiency_pct_rounded"] = paper_round(eff * 100.0)
    row["max_access_delay_ms"] = delay_ms
    row["access_delay_s_rounded"] = paper_round(delay_ms / 1000.0)
    row["frames_per_opportunity"] = k
    return row


def _report_fields(report) -> list[tuple[str, Callable[[], str | None], dict]]:
    """Every output field of a MetricsReport, in the order simulate prints
    them: its label, what builds the text simulate prints after it (None: no
    line), called only when printed, and the CSV cells it fills. A statistic
    with no samples reads "no samples" and an infinite offered load
    "saturated", each as empty cells."""
    eff, load, bound = report.efficiency, report.offered_load_mbps, report.access_bound_ms
    r, a = report.response_time, report.access_delay
    response = (r.mean_ms, r.p95_ms, r.max_ms) if r else (None, None, None)
    access = (a.mean_ms, a.max_ms) if a else (None, None)
    return [
        ("throughput_mbps", lambda: repr(report.throughput_mbps),
         {"throughput_mbps": report.throughput_mbps}),
        ("efficiency", lambda: repr(eff),
         {"efficiency": eff, "efficiency_pct_rounded": paper_round(eff * 100.0)}),
        ("offered_load_mbps",
         lambda: None if load is None else "saturated" if load == math.inf else repr(load),
         {"offered_load_mbps": None if load == math.inf else load}),
        ("response_ms",
         lambda: f"mean={r.mean_ms!r} p95={r.p95_ms!r} max={r.max_ms!r} n={r.count}" if r
         else "no samples",
         dict(zip(("mean_response_ms", "p95_response_ms", "max_response_ms"), response))),
        ("access_ms",
         lambda: f"mean={a.mean_ms!r} max={a.max_ms!r} n={a.count}" if a else "no samples",
         dict(zip(("mean_access_ms", "max_access_ms"), access))),
        ("access_bound_ms", lambda: None if bound is None else
         f"{bound!r} ({'EXCEEDED' if report.access_bound_exceeded else 'ok'})", {}),
        ("max_rotation_ms", lambda: repr(report.max_rotation_ms),
         {"max_rotation_ms": report.max_rotation_ms}),
        ("trt_bound_ok", lambda: str(report.trt_bound_ok), {}),
        ("warmup_ms", lambda: f"{report.warmup_ms!r} (discarded {report.warmup_frames_discarded}"
         f" frames, {report.warmup_access_discarded} access episodes)", {}),
        ("measured_interval_ms", lambda: repr(report.measured_interval_ms), {}),
        ("completed_frames", lambda: str(report.completed_frames), {}),
        ("seed", lambda: str(report.seed), {}),
    ]


# ---------------------------------------------------------------- analyze

def cmd_analyze(res: Resolver) -> int:
    preset_name, macs, fiber = _resolve_ring(res)
    ttrt = res.get("ttrt")
    n_active = _active(res.get("active"), macs)
    frame_bytes = res.get("frame_bytes")
    if frame_bytes is not None:
        analytical.frame_time_ms(frame_bytes)
    row = _base_row(preset=preset_name, mac_count=macs, fiber_km=fiber, n_active=n_active,
                    ttrt_ms=ttrt, frame_bytes=frame_bytes)
    # every refusal comes before --dump-config prints
    d_ms = _ring_latency_ms(fiber, macs)
    saturated = None
    try:
        eff, delay_ms, _ = analytical.heavy_load(n_active, ttrt, d_ms)
    except RingSaturatedError as exc:
        saturated = exc
    else:
        row = _analytical_row(row, d_ms)
    say = res.finish()

    say(f"ring: {preset_name or 'custom'} ({macs} MACs, {fiber:g} km fiber)")
    say(f"ring_latency_ms: {d_ms!r} (rounds to {paper_round(d_ms):g})")
    say(f"n_active: {n_active}")
    say(f"ttrt_ms: {ttrt:g}")
    if saturated is not None:
        print(f"error: {SATURATED_MARKER}: {saturated}", file=sys.stderr)
        return 1
    say(f"efficiency: {eff!r} ({paper_round(eff * 100.0):.2f}%)")
    say(
        f"max_access_delay_ms: {delay_ms!r} "
        f"({paper_round(delay_ms / 1000.0):.2f} s)"
    )
    if frame_bytes is not None:
        say(f"overflow_frames_per_opportunity: {row['frames_per_opportunity']}")
        say(f"overflow_efficiency: {row['efficiency']!r}")
        say(f"overflow_max_access_delay_ms: {row['max_access_delay_ms']!r}")
    if res.args.out:
        _write_rows([row], res.args.out, out=res.out)
    return 0


# --------------------------------------------------------------- simulate

def _sim_settings(res: Resolver, any_ttrt: bool = False) -> tuple[float, int, Callable]:
    """The run length, the base seed, and how to build the RingConfig of a
    ring (MACs, fiber km, TTRT) with the settings shared by every run of a
    command. The builder refuses a TTRT outside the standard's window, after
    every check of the record, unless allow_any_ttrt (default any_ttrt), and
    one the simulator cannot hold in whole nanoseconds; the run length is
    refused where it is read, as the simulator would refuse it."""
    from . import simcore
    token_time_us = res.get("token_time_us")
    analytical.check_finite(token_time_us=token_time_us)
    # the simulator charges whole nanoseconds, while the CSV echoes the value
    if simcore._ns_from_us(token_time_us, "token_time_us") / simcore.NS_PER_US != token_time_us:
        raise CliError(f"--token-time-us {token_time_us!r} is not a whole number of "
                       "nanoseconds")
    uniform = functools.partial(simcore.RingConfig.uniform, token_time_us=token_time_us,
                                async_overflow=not res.get("no_overflow"))
    any_ttrt = res.get("allow_any_ttrt", default=any_ttrt)
    t_min, t_max = analytical.T_MIN_MS, analytical.T_MAX_COUNTER_MS

    def ring(macs: int, fiber_km: float, ttrt_ms: float):
        config = uniform(macs, fiber_km, ttrt_ms)
        if not (any_ttrt or t_min <= ttrt_ms <= t_max):
            raise CliError(f"ttrt_ms {ttrt_ms} outside [{t_min}, {t_max}]; "
                           "give --allow-any-ttrt to probe illegal values")
        simcore._ns_from_ms(ttrt_ms, "ttrt_ms")
        return config

    duration = res.get("duration_ms")
    simcore._duration_ns(duration)
    return duration, res.get("seed"), ring


def _load_pct(res: Resolver) -> float | None:
    """--load-pct, refused outside (0, 100) before --dump-config prints."""
    load_pct = res.get("load_pct")
    if load_pct is not None and not 0 < load_pct < 100:
        raise CliError(f"--load-pct must be in (0, 100), got {load_pct}")
    return load_pct


def _build_workload(row: dict, load_pct: float | None = None, interburst_ms: float | None = None):
    """The traffic of a simulated row: bursty (WIC) traffic on every station
    with the given mean burst gap or target utilization, else saturated
    stations (the row's active count) sending frames of the row's size."""
    from .workload import DEFAULT_LARGE_FRAME_BYTES, SaturationWorkload, WicWorkload
    if interburst_ms is not None:
        return WicWorkload(mean_interburst_ms=interburst_ms)
    if load_pct is not None:
        return WicWorkload.for_utilization(load_pct / 100.0, row["mac_count"])
    frame_bytes = row["frame_bytes"]
    n_active = row["n_active"]
    return SaturationWorkload(
        frame_bytes=DEFAULT_LARGE_FRAME_BYTES if frame_bytes is None else frame_bytes,
        stations=None if n_active == row["mac_count"] else tuple(range(n_active)),
    )


def _simulated_point(row: dict, sim, load_pct: float | None = None,
                     interburst_ms: float | None = None) -> tuple:
    """The RingConfig and workload that run a simulated row, built and checked
    with sim, the command's _sim_settings, and the row's run-input columns
    filled from them; returns (config, workload)."""
    from . import simcore
    duration, _, ring = sim
    config = ring(_simulable(row["mac_count"]), row["fiber_km"], row["ttrt_ms"])
    load = _build_workload(row, load_pct, interburst_ms)
    simcore.check_draw(load, config.n_stations, duration)
    simcore.check_captures(config, load, duration)
    row.update(mode="simulated", frame_bytes=getattr(load, "frame_bytes", None),
               interburst_ms=getattr(load, "mean_interburst_ms", None),
               token_time_us=config.token_time_us, async_overflow=_fmt(config.async_overflow))
    return config, load


def cmd_simulate(res: Resolver) -> int:
    from . import metrics, simcore, workload
    preset_name, macs, fiber = _resolve_ring(res)
    _simulable(macs)
    kind, interburst = res.get("workload"), None
    # bursty traffic loads every station, so only saturation reads --active
    n_active = _active(res.get("active") if kind == "saturation" else None, macs)
    sim = _sim_settings(res)
    duration, seed, _ = sim
    row = _base_row(preset=preset_name, mac_count=macs, fiber_km=fiber, n_active=n_active,
                    ttrt_ms=res.get("ttrt"), duration_ms=duration, replication=0, seed=seed)
    if kind == "saturation":
        row["frame_bytes"] = res.get("frame_bytes", default=workload.DEFAULT_LARGE_FRAME_BYTES)
    else:
        interburst = res.get("interburst_ms")
        row["load_pct"] = _load_pct(res) if interburst is None else None
        if row["load_pct"] is None and interburst is None:
            raise CliError("wic workload needs --load-pct or --interburst-ms")
    config, load = _simulated_point(row, sim, row["load_pct"], interburst)
    say = res.finish()

    report = metrics.summarize(simcore.run(config, load, duration_ms=duration, seed=seed))
    for label, show, cells in _report_fields(report):
        text = show()
        if text is not None:
            say(f"{label}: {text}")
        row.update(cells)
    if res.args.out:
        _write_rows([row], res.args.out, out=res.out)
    return 1 if report.access_bound_exceeded or not report.trt_bound_ok else 0


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
    grid = res.get("grid")
    if not grid:
        raise CliError("--var needs --grid")
    mode = res.get("mode")
    key = SWEEP_VARS[var][1]
    # bursty traffic loads every station with the fixed WIC frame mix, so it
    # cannot follow a grid of active counts or frame sizes
    bursty = mode != "analytical" and key not in ("active", "frame_bytes")
    load_pct = _load_pct(res) if bursty else None
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


def _reuse_or_run(held, config, load, duration_ms: float, seed: int) -> tuple:
    """The MetricsReport of one simulated sweep point, and what its replication
    holds for the next point: the (result, report) of its last run if TTRT
    provably never bound it, else None, and the simcore.Arrivals that run
    read. held is what an earlier point left, or None. When simcore.reuse_at
    cannot stand the held run in for this point, it is dropped before the
    simulator runs, so that no result outlives the next run unless TTRT
    provably never bound it; the arrivals are read again by a run of the
    same traffic and dropped before other traffic is drawn. A reused run
    keeps its report but for the fields of the TTRT."""
    from . import metrics, simcore
    kept, arrivals = held or (None, None)
    result = None if kept is None else simcore.reuse_at(kept[0], config, load)
    if result is not None:
        return metrics.reuse_at(kept[1], result), held
    held = kept = None
    key = (load, config.n_stations, seed, duration_ms)
    if arrivals is not None and arrivals.key != key:
        arrivals = None  # dropped before other traffic is drawn
    if arrivals is None:
        arrivals = simcore.Arrivals(*key)
    result = simcore.run(config, load, duration_ms=duration_ms, seed=seed, arrivals=arrivals)
    report = metrics.summarize(result)
    return report, ((result, report) if simcore.certified(result) else None, arrivals)


def _sweep_points(spec: presets.Figure, figure: str, sim, replications: int) -> list[tuple]:
    """Every row of a sweep in CSV order (ring, then load, then grid value; a
    point's closed-form row, then its simulated rows, one per replication,
    their run inputs filled by _simulated_point with sim, the command's
    _sim_settings), each with what runs it: (RingConfig, workload,
    replication), or None for a closed-form row or one marked
    saturated_by_latency. Every input is checked and nothing simulated, so a
    bad point is refused before --dump-config prints or any point runs."""
    column = SWEEP_VARS[spec.var][0]
    points: list[tuple] = []
    latency = functools.cache(_ring_latency_ms)  # once per ring of this sweep
    for preset_name, macs, fiber in spec.rings:
        for load_pct in spec.loads:
            template = _base_row(figure=figure, preset=preset_name, sweep_var=spec.sweep_var,
                                 mac_count=macs, fiber_km=fiber, n_active=spec.n_active,
                                 ttrt_ms=spec.ttrt_ms, frame_bytes=spec.frame_bytes)
            for value in spec.grid:
                point = template.copy()
                point["sweep_value"] = point[column] = value
                point["n_active"] = _active(point["n_active"], point["mac_count"])
                if spec.mode != "simulate":
                    d_ms = latency(point["fiber_km"], point["mac_count"])
                    points.append((_analytical_row(dict(point) if sim else point, d_ms), None))
                if not sim:
                    continue
                config, load = _simulated_point(point, sim, load_pct)
                if point["ttrt_ms"] <= latency(point["fiber_km"], point["mac_count"]):
                    point["error"] = SATURATED_MARKER
                duration, seed, _ = sim
                points += [(dict(point, load_pct=load_pct, duration_ms=duration, replication=rep,
                                 seed=seed + rep), None if point["error"] else (config, load, rep))
                           for rep in range(replications)]
    return points


def _sweep_rows(points: list[tuple]) -> list[dict]:
    """The rows of a sweep's _sweep_points, each one that runs filled with
    the _report_fields cells of its run. On a TTRT sweep a replication
    reuses its last run that TTRT never bound for every higher TTRT, instead
    of simulating it again, and every run of the same traffic reads its
    bursts from one draw."""
    held: dict[int, tuple] = {}  # replication -> what _reuse_or_run holds for it
    for row, run in points:
        if run is not None:
            config, load, rep = run
            # popped, so that a real run finds no result held for it
            report, held[rep] = _reuse_or_run(held.pop(rep, None), config, load,
                                              row["duration_ms"], row["seed"])
            for _, _, cells in _report_fields(report):
                row.update(cells)
    return [row for row, _ in points]


def cmd_sweep(res: Resolver) -> int:
    figure = res.get("figure") or ""
    spec = presets.FIGURES[figure] if figure else _custom_sweep(res)
    replications, sim = 1, None
    if spec.mode != "analytical":
        replications = res.get("replications")
        if replications < 1:
            raise CliError("--replications must be >= 1")
        # figure grids probe TTRTs outside the legal window on purpose
        sim = _sim_settings(res, any_ttrt=bool(figure))
    points = _sweep_points(spec, figure, sim, replications)
    res.finish()
    _write_rows(_sweep_rows(points), res.args.out, out=res.out)
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
    ], res.args.out, out=res.out)
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
    max_frame_ms = analytical.frame_time_ms(
        res.get("frame_bytes", default=analytical.MAX_FRAME_BYTES))
    t_max = res.get("t_max_ms")
    service = res.get("service_interval_ms")
    verdict = analytical.validate_ttrt(  # refuses its inputs before --dump-config prints
        ttrt,
        ring,
        sync_allocation_ms=sync_ms,
        max_frame_time_ms=max_frame_ms,
        service_interval_ms=min(service) if service else None,
        t_max_ms=t_max,
    )
    if res.args.out:  # a verdict is no CSV row
        raise CliError("validate cannot use --out: it writes no CSV")
    say = res.finish()

    say(f"requested_ttrt_ms: {verdict.requested_ttrt_ms:g}")
    say(f"ring_latency_ms: {verdict.ring_latency_ms!r}")
    say(f"sync_allocation_ms: {verdict.sync_allocation_ms:g}")
    say(f"min_legal_ttrt_ms: {verdict.min_legal_ttrt_ms!r} "
        f"(rounds to {paper_round(verdict.min_legal_ttrt_ms, 3):g})")
    if verdict.advisory_ttrt_ms is not None:
        say(f"advisory_ttrt_ms: {verdict.advisory_ttrt_ms:g} "
            f"(half the required service interval)")
    if verdict.ok:
        say("verdict: ok")
        return 0
    say(f"verdict: violates rules {', '.join(str(r) for r in verdict.violated_rules)}")
    for msg in verdict.messages:
        say(f"  {msg}")
    return 1


# ------------------------------------------------------------------ parser

@record("help run options", required=())
class Command:
    """A subcommand: its help, the function that runs it on a Resolver, the
    OPTIONS it takes besides COMMON, and the options it needs given, which
    have no default."""


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
def _build_parser(chosen: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, built from COMMANDS and OPTIONS on first use
    and reused by every later call to main() that names the same subcommand.
    It lists every subcommand, but gives options to the chosen one only. Every
    flag defaults to None, so the Resolver can tell a flag given from one left out."""
    parser = argparse.ArgumentParser(
        prog="fddiperf",
        description="Timed-token ring performance toolkit: closed-form models, "
        "a deterministic simulator, TTRT validation, and CSV sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name != chosen:
            continue
        for key in command.options + COMMON:
            opt = OPTIONS[key]
            if opt.type is bool:
                p.add_argument(_flag(key), action="store_true", default=None, help=opt.help)
                continue
            text = opt.help
            if opt.choices:
                text += ": " + " | ".join(opt.choices)
            if opt.default is not None and key not in command.required:
                text += f" (default {opt.default})"
            p.add_argument(_flag(key), type=opt.type, action="append" if opt.repeat else "store",
                           help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    res = None
    try:
        res = Resolver(args)
        code = COMMANDS[args.command].run(res)
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
    finally:
        # _write_rows closes the file; a command that wrote no CSV, refused
        # or failed, leaves no file it made
        if res is not None and res.out and not res.out.closed:
            res.out.close()
            if res.out_made:
                try:
                    os.remove(args.out)
                except FileNotFoundError:  # moved away meanwhile
                    pass


if __name__ == "__main__":
    sys.exit(main())
