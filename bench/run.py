"""fddiperf benchmark: one workload per invocation, run in-process through
fddiperf.cli.main from a single thread.

  python3 bench/run.py --workload fig3-bursty --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --workload fig3-bursty --seed 1 --quick --trace 1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs traced and untraced passes in turn and reports the per-layer metrics.
Every run starts with an untimed warm-up pass whose CSVs are checked
against computations made in bench/checks.py; every later pass must write
the same bytes. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. fddiperf is imported from the
src/ directory beside this one; without it the run fails with exit code 2.

The host is shared and its speed drifts, so every host time is scaled to
a reference speed by a fixed piece of pure-Python work timed just before
and just after each pass (host_speed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

from spans import PassTrace, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_SPAWNS = 15
QUICK_SETUP_SPAWNS = 3

# About what host_speed()'s fixed work takes on an idle core of the 2-CPU
# host the reference figures come from. Host times are reported at that speed.
REFERENCE_S = 0.022

_SETUP_CHILD = "import time, fddiperf.cli; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"


def host_speed() -> float:
    """REFERENCE_S over the time a fixed piece of pure-Python work (a small
    heap of tuples) takes now: how fast the shared host runs the
    interpreter at this moment, 1.0 on an idle core."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    for i in range(40_000):
        heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            heappop(heap)
    return REFERENCE_S / (time.perf_counter() - start)


def setup_seconds(spawns: int) -> float:
    """Median time from starting a fresh interpreter to fddiperf.cli being
    imported, the start-up every CLI call pays, at reference host speed.
    Both ends read the system-wide monotonic clock."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(spawns):
        speed = host_speed()
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append((int(done.stdout) - start) / 1e9 * speed)
    return statistics.median(times)


def run_command(main, argv: list[str]):
    """Exit code of one CLI call, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails this command; the run goes on
            return f"{type(exc).__name__}: {exc}"


class Workload:
    """A workload's commands, the bytes their first pass wrote, and the
    tally of commands attempted and failed."""

    def __init__(self, name: str, seed: int, quick: bool, outdir: Path):
        self.commands = WORKLOADS[name](seed, quick)
        self.outs = [outdir / f"{c.name}.csv" for c in self.commands]
        self.argvs = [[*c.argv, "--out", str(out)] for c, out in zip(self.commands, self.outs)]
        self.first_bytes: list[bytes | None] | None = None
        self.verdicts: list[list[str]] = []
        self.rows = self.sim_rows = 0
        self.sim_ms = 0.0
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, main) -> tuple[float, float]:
        """Host seconds for one pass over every command and the mean host
        speed just before and just after it; then the pass's checks."""
        for out in self.outs:
            out.unlink(missing_ok=True)
        gc.collect()
        speed_before = host_speed()
        codes = []
        start = time.perf_counter()
        for argv in self.argvs:
            codes.append(run_command(main, argv))
        wall = time.perf_counter() - start
        speed = (speed_before + host_speed()) / 2
        self._settle(codes)
        return wall, speed

    def _settle(self, codes) -> None:
        got = [out.read_bytes() if out.exists() else None for out in self.outs]
        if self.first_bytes is None:
            self.first_bytes = got
            self.verdicts = [self._first_check(cmd, data) for cmd, data in zip(self.commands, got)]
        for cmd, code, data, ref, verdict in zip(
            self.commands, codes, got, self.first_bytes, self.verdicts
        ):
            self.attempted += 1
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            elif data is None:
                problems.append("no CSV written")
            elif data != ref:
                problems.append("CSV bytes differ from the warm-up pass with the same seed")
            else:
                problems += verdict
            if problems:
                self.failed += 1
                self.errors += [f"{cmd.name}: {p}" for p in problems]

    def _first_check(self, cmd, data: bytes | None) -> list[str]:
        if data is None:
            return ["no CSV written"]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        self.rows += len(rows)
        simulated = [r for r in rows if r["mode"] == "simulated"]
        self.sim_rows += len(simulated)
        self.sim_ms += sum(float(r["duration_ms"]) for r in simulated)
        return cmd.check(rows)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g} n={len(values)}"


def measure_plain(wl: Workload, main, seconds: float, quick: bool, setup_s: float) -> dict:
    wl.run_pass(main)  # warm-up: checked, not timed
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or (not quick and time.perf_counter() < deadline):
        passes.append(wl.run_pass(main))
    scaled = [wall * speed for wall, speed in passes]
    wall = statistics.median(scaled)
    print(f"host s per pass: {quartiles([w for w, _ in passes])}")
    print(f"host speed: {quartiles([s for _, s in passes])}")
    print(f"wall_s per pass at reference speed: {quartiles(scaled)}")
    if wl.sim_ms:
        print(f"sim_ms_per_s: {wl.sim_ms / wall!r} ms/s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "rows_per_s": (wl.rows / wall, "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def measure_traced(wl: Workload, main, seconds: float, quick: bool, stem: str) -> dict:
    tracer = Tracer()
    traced_main = tracer.span("cli", main)

    def traced_pass(digests: bool) -> tuple[float, float, PassTrace]:
        trace = PassTrace(digests)
        with tracer.installed(trace):
            wall, speed = wl.run_pass(traced_main)
        wl.errors += trace.problems
        return wall, speed, trace

    _, _, first = traced_pass(digests=True)  # warm-up: checked and digested, not timed
    calls = first.layer_totals()[1]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"digests-{stem}.txt", "w") as fh:
        for label, digest in first.digests:
            fh.write(f"{digest} {label}\n")
            print(f"digest {digest} {label}")

    plain, traced, self_ns = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or (not quick and time.perf_counter() < deadline):
        wall, speed = wl.run_pass(main)
        plain.append(wall * speed)
        wall, speed, last = traced_pass(digests=False)
        traced.append(wall * speed)
        layer_ns, layer_calls = last.layer_totals()
        self_ns.append({layer: ns * speed for layer, ns in layer_ns.items()})
        if last.counts != first.counts or layer_calls != calls:
            wl.errors.append("deterministic counts differ between traced passes")
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        base = last.spans[0][1] if last.spans else 0
        for layer, start, end, parent in last.spans:
            fh.write(json.dumps({"name": layer, "start_ns": start - base,
                                 "end_ns": end - base, "parent": parent}) + "\n")
    print(f"untraced wall_s per pass at reference speed: {quartiles(plain)}")
    print(f"traced wall_s per pass at reference speed: {quartiles(traced)}")

    counts = first.counts
    self_s = {layer: statistics.median(ns.get(layer, 0) for ns in self_ns) / 1e9
              for layer in ("simcore", "workload", "metrics", "analytical", "csv", "cli")}
    visits, frames, bursts = counts["token_visits"], counts["frames"], calls["workload"]
    return {
        "simcore.runs": (calls["simcore"], "count"),
        "simcore.runs_per_row": (_ratio(calls["simcore"], wl.sim_rows), "ratio"),
        "simcore.self_s": (self_s["simcore"], "s"),
        "simcore.token_visits": (visits, "count"),
        "simcore.frames": (frames, "count"),
        "simcore.frames_per_visit": (_ratio(frames, visits), "ratio"),
        "simcore.ns_per_step": (_ratio(self_s["simcore"] * 1e9, visits + frames + bursts), "ns"),
        "workload.bursts": (bursts, "count"),
        "workload.self_s": (self_s["workload"], "s"),
        "workload.ns_per_burst": (_ratio(self_s["workload"] * 1e9, bursts), "ns"),
        "metrics.calls": (calls["metrics"], "count"),
        "metrics.samples": (counts["samples"], "count"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "metrics.ns_per_sample": (_ratio(self_s["metrics"] * 1e9, counts["samples"]), "ns"),
        "analytical.calls": (calls["analytical"], "count"),
        "analytical.self_s": (self_s["analytical"], "s"),
        "analytical.ns_per_call": (_ratio(self_s["analytical"] * 1e9, calls["analytical"]), "ns"),
        "csv.rows": (counts["rows"], "count"),
        "csv.bytes": (counts["bytes"], "bytes"),
        "csv.self_s": (self_s["csv"], "s"),
        "csv.ns_per_row": (_ratio(self_s["csv"] * 1e9, counts["rows"]), "ns"),
        "cli.commands": (calls["cli"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
        "sim_ms_per_s": (_ratio(wl.sim_ms, statistics.median(plain)), "ms/s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="short simulated runs and one timed pass")
    args = parser.parse_args()

    if not (SRC / "fddiperf" / "cli.py").is_file():
        print(f"error: no fddiperf sources at {SRC}", file=sys.stderr)
        return 2
    setup_s = 0.0 if args.trace else setup_seconds(
        QUICK_SETUP_SPAWNS if args.quick else SETUP_SPAWNS)
    sys.path.insert(0, str(SRC))
    from fddiperf import cli

    if Path(cli.__file__).resolve().parent != SRC / "fddiperf":
        print(f"error: fddiperf imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    outdir = OUT / f"csv-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, args.quick, outdir)
        if args.trace:
            stem = f"{args.workload}-seed{args.seed}"
            metrics = measure_traced(wl, cli.main, args.seconds, args.quick, stem)
        else:
            metrics = measure_plain(wl, cli.main, args.seconds, args.quick, setup_s)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for error in dict.fromkeys(wl.errors):
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(f"{args.workload} commands attempted = {wl.attempted}, failed = {wl.failed}")
    print(json.dumps({
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
