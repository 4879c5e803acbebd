"""Output checks for the benchmark, computed apart from the program.

The paper's closed forms are written out here a second time, from the
formulas rather than from fddiperf.analytical, so that a fault in the
package cannot vouch for itself:

  efficiency        n(T-D) / (nT + D)
  max access delay  (n-1)T + 2D
  with overflow     n.kF / (n(kF+D) + D),  (n-1)(kF+D) + 2D,
                    k = ceil((T-D)/F)

D is the ring latency: fiber x 5.085 us/km plus 1 us per MAC, plus the
0.88 us token time per hop wherever the simulator charges it.

Every check returns a list of problems; an empty list means the rows pass.
Rows are the dicts csv.DictReader yields, so every value is a string.
"""

from __future__ import annotations

import math

PROPAGATION_US_PER_KM = 5.085
STATION_DELAY_US = 1.0
LINE_RATE_MBPS = 100.0
SATURATED_MARKER = "saturated_by_latency"

# Measurement window: the program discards the first 10 % of every run.
WARMUP_FRACTION = 0.10

# The warehouse-inventory (WIC) burst mix: five frames a burst, 65 % of
# 100 bytes and 35 % of 512 bytes.
WIC_BURST_FRAMES = 5
WIC_SMALL_BYTES, WIC_LARGE_BYTES, WIC_SMALL_SHARE = 100, 512, 0.65
# Throughput may stray from the offered load by this many standard
# deviations of the compound-Poisson bit count in the window.
WIC_SIGMAS = 5.0

# Relative tolerance for recomputed closed-form values (float noise only).
REL_TOL = 1e-9

# The paper's published reference table: (max access delay in s,
# efficiency in %) per ring and TTRT, both rounded to two decimals.
PUBLISHED_TABLE1: dict[str, dict[float, tuple[float, float]]] = {
    "typical": {4.0: (0.08, 98.94), 8.0: (0.15, 99.47), 12.0: (0.23, 99.65),
                16.0: (0.30, 99.74), 20.0: (0.38, 99.79), 165.0: (3.14, 99.97)},
    "big": {4.0: (0.40, 71.87), 8.0: (0.79, 85.92), 12.0: (1.19, 90.61),
            16.0: (1.59, 92.95), 20.0: (1.98, 94.36), 165.0: (16.34, 99.32)},
    "largest": {4.0: (4.00, 49.55), 8.0: (8.00, 74.77), 12.0: (11.99, 83.18),
                16.0: (15.99, 87.38), 20.0: (19.98, 89.91), 165.0: (164.84, 98.78)},
}


def ring_latency_ms(fiber_km: float, macs: int, token_time_us: float = 0.0) -> float:
    return (fiber_km * PROPAGATION_US_PER_KM + macs * (STATION_DELAY_US + token_time_us)) / 1000.0


def frame_ms(frame_bytes: int) -> float:
    return frame_bytes * 8 / (LINE_RATE_MBPS * 1000.0)


def frame_counts(ttrt_ms: float, d_ms: float, f_ms: float) -> tuple[int, ...]:
    """Acceptable k = ceil((T-D)/F). A budget within float noise of a whole
    number of frames may round either way."""
    ratio = (ttrt_ms - d_ms) / f_ms
    near = round(ratio)
    if near >= 1 and abs(ratio - near) <= 1e-6 * near:
        return (near, near + 1)
    return (max(1, math.ceil(ratio)),)


def basic_model(n: int, t: float, d: float) -> tuple[float, float]:
    """(efficiency, max access delay in ms)."""
    return n * (t - d) / (n * t + d), (n - 1) * t + 2.0 * d


def overflow_model(n: int, t: float, d: float, f: float, k: int) -> tuple[float, float]:
    kf = k * f
    return n * kf / (n * (kf + d) + d), (n - 1) * (kf + d) + 2.0 * d


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _num(row: dict, key: str) -> float | None:
    raw = row.get(key, "")
    return float(raw) if raw != "" else None


def _label(row: dict) -> str:
    parts = (row.get("figure"), row.get("preset"), row.get("sweep_var"), row.get("sweep_value"))
    return "/".join(p for p in parts if p) + f" T={row.get('ttrt_ms')}"


def analytical_row_problems(row: dict) -> list[str]:
    """One closed-form row against its recomputation from the echoed inputs."""
    label = _label(row)
    n, t = int(row["n_active"]), float(row["ttrt_ms"])
    d = ring_latency_ms(float(row["fiber_km"]), int(row["mac_count"]))
    frame_bytes = int(row["frame_bytes"]) if row.get("frame_bytes") else None
    if t <= d:
        if row["error"] != SATURATED_MARKER or row["efficiency"] != "":
            return [f"{label}: T <= D = {d!r} ms but the row is not marked {SATURATED_MARKER}"]
        return []
    if row["error"]:
        return [f"{label}: unexpected error {row['error']!r} with T > D = {d!r} ms"]
    eff, delay = _num(row, "efficiency"), _num(row, "max_access_delay_ms")
    if eff is None or delay is None:
        return [f"{label}: efficiency or max access delay missing"]
    if frame_bytes:
        k_got = int(row["frames_per_opportunity"] or 0)
        ks = frame_counts(t, d, frame_ms(frame_bytes))
        if k_got not in ks:
            return [f"{label}: frames_per_opportunity {k_got}, expected {ks}"]
        want_eff, want_delay = overflow_model(n, t, d, frame_ms(frame_bytes), k_got)
    else:
        want_eff, want_delay = basic_model(n, t, d)
    problems = []
    if not _close(eff, want_eff):
        problems.append(f"{label}: efficiency {eff!r}, closed form {want_eff!r}")
    if not _close(delay, want_delay):
        problems.append(f"{label}: max access delay {delay!r} ms, closed form {want_delay!r}")
    if abs(float(row["efficiency_pct_rounded"]) - eff * 100.0) > 0.005 + 1e-9:
        problems.append(f"{label}: efficiency_pct_rounded does not round {eff * 100.0!r}")
    if abs(float(row["access_delay_s_rounded"]) - delay / 1000.0) > 0.005 + 1e-9:
        problems.append(f"{label}: access_delay_s_rounded does not round {delay / 1000.0!r}")
    return problems


def analytical_problems(rows: list[dict]) -> list[str]:
    if not rows:
        return ["no rows written"]
    problems = []
    for row in rows:
        if row["mode"] != "analytical":
            problems.append(f"{_label(row)}: mode {row['mode']!r}, expected analytical")
        else:
            problems += analytical_row_problems(row)
    return problems


def table1_problems(rows: list[dict]) -> list[str]:
    """table1 against the paper's published values, cell by cell."""
    problems = analytical_problems(rows)
    seen = set()
    for row in rows:
        key = (row["preset"], float(row["ttrt_ms"]))
        seen.add(key)
        published = PUBLISHED_TABLE1.get(key[0], {}).get(key[1])
        if published is None:
            problems.append(f"table1: unexpected row {key}")
            continue
        got = (float(row["access_delay_s_rounded"]), float(row["efficiency_pct_rounded"]))
        if got != published:
            problems.append(f"table1 {key}: (access s, efficiency %) {got}, published {published}")
    missing = {(p, t) for p, cells in PUBLISHED_TABLE1.items() for t in cells} - seen
    if missing:
        problems.append(f"table1: rows missing for {sorted(missing)}")
    return problems


def saturated_tolerance(row: dict) -> float:
    """Absolute efficiency tolerance for a saturated run of this length.

    In steady state one station holds the token for about kF per rotation
    of kF + D, so the busy share of a measured window W strays from the
    long-run share by at most one latency D for the phase at which the
    window opens, one more D for the first holding period (a full T at
    start-up), and one frame F at each window edge, because bits are
    credited when a frame completes: (2D + 2F) / W.
    """
    d = ring_latency_ms(float(row["fiber_km"]), int(row["mac_count"]), float(row["token_time_us"]))
    f = frame_ms(int(row["frame_bytes"]))
    window = float(row["duration_ms"]) * (1.0 - WARMUP_FRACTION)
    return (2.0 * d + 2.0 * f) / window


def saturated_expectation(row: dict) -> float:
    """Closed-form efficiency with overflow for a saturated row."""
    n, t = int(row["n_active"]), float(row["ttrt_ms"])
    d = ring_latency_ms(float(row["fiber_km"]), int(row["mac_count"]), float(row["token_time_us"]))
    f = frame_ms(int(row["frame_bytes"]))
    return overflow_model(n, t, d, f, frame_counts(t, d, f)[0])[0]


def saturated_problems(rows: list[dict]) -> list[str]:
    """Simulated saturated rows: efficiency against the overflow closed form
    (no higher than it without overflow), and every rotation below 2T."""
    if len(rows) != 1:
        return [f"{len(rows)} rows written, expected 1"]
    row = rows[0]
    label = f"simulate T={row['ttrt_ms']} overflow={row['async_overflow']}"
    if row["mode"] != "simulated" or row["error"]:
        return [f"{label}: mode {row['mode']!r}, error {row['error']!r}"]
    eff, tol = float(row["efficiency"]), saturated_tolerance(row)
    closed = saturated_expectation(row)
    problems = []
    if row["async_overflow"] == "true":
        if abs(eff - closed) > tol:
            problems.append(f"{label}: efficiency {eff!r}, closed form {closed!r} +- {tol!r}")
    elif eff > closed + tol:
        problems.append(f"{label}: efficiency {eff!r} above the overflow value {closed!r} + {tol!r}")
    if not _close(float(row["throughput_mbps"]), eff * LINE_RATE_MBPS):
        problems.append(f"{label}: throughput {row['throughput_mbps']} != efficiency x line rate")
    if not float(row["max_rotation_ms"]) < 2.0 * float(row["ttrt_ms"]):
        problems.append(f"{label}: max rotation {row['max_rotation_ms']} ms >= 2T")
    return problems


def wic_throughput_tolerance(row: dict) -> float:
    """Relative tolerance on throughput against offered load: WIC_SIGMAS
    standard deviations of the bits offered in the window, a compound
    Poisson sum with sd/mean = sqrt(E[X^2]) / (E[X] sqrt(N)) for burst
    size X and N expected bursts."""
    frame_mean = WIC_SMALL_SHARE * WIC_SMALL_BYTES + (1 - WIC_SMALL_SHARE) * WIC_LARGE_BYTES
    frame_var = WIC_SMALL_SHARE * (1 - WIC_SMALL_SHARE) * (WIC_LARGE_BYTES - WIC_SMALL_BYTES) ** 2
    burst_mean = WIC_BURST_FRAMES * frame_mean
    burst_second_moment = burst_mean ** 2 + WIC_BURST_FRAMES * frame_var
    window = float(row["duration_ms"]) * (1.0 - WARMUP_FRACTION)
    bursts = int(row["mac_count"]) / float(row["interburst_ms"]) * window
    return WIC_SIGMAS * math.sqrt(burst_second_moment) / burst_mean / math.sqrt(bursts)


def bursty_problems(rows: list[dict], seed: int, n_rows: int) -> list[str]:
    """Simulated WIC sweep rows: throughput carries the offered load, the
    response statistics are ordered, and access delay stays under
    (n-1)(T + F_max) + 2D."""
    if len(rows) != n_rows:
        return [f"{len(rows)} rows written, expected {n_rows}"]
    problems = []
    frame_mean = WIC_SMALL_SHARE * WIC_SMALL_BYTES + (1 - WIC_SMALL_SHARE) * WIC_LARGE_BYTES
    for row in rows:
        label = f"{row['figure']} load={row['load_pct']}% T={row['ttrt_ms']}"
        if row["mode"] != "simulated" or row["error"]:
            problems.append(f"{label}: mode {row['mode']!r}, error {row['error']!r}")
            continue
        if int(row["seed"]) != seed + int(row["replication"]):
            problems.append(f"{label}: seed {row['seed']}, expected {seed}")
        n, t = int(row["mac_count"]), float(row["ttrt_ms"])
        offered = float(row["load_pct"]) / 100.0 * LINE_RATE_MBPS
        if not _close(float(row["offered_load_mbps"]), offered):
            problems.append(f"{label}: offered load {row['offered_load_mbps']}, expected {offered!r}")
        gap = n * WIC_BURST_FRAMES * frame_mean * 8 / (offered * 1000.0)
        if not _close(float(row["interburst_ms"]), gap):
            problems.append(f"{label}: interburst {row['interburst_ms']} ms, expected {gap!r}")
        thr, tol = float(row["throughput_mbps"]), wic_throughput_tolerance(row)
        if abs(thr - offered) > tol * offered:
            problems.append(f"{label}: throughput {thr!r} Mbps, offered {offered!r} +- {tol:.2%}")
        mean, p95, peak = (float(row[k]) for k in ("mean_response_ms", "p95_response_ms", "max_response_ms"))
        if not mean <= p95 <= peak:
            problems.append(f"{label}: response mean {mean!r} <= p95 {p95!r} <= max {peak!r} fails")
        d = ring_latency_ms(float(row["fiber_km"]), n, float(row["token_time_us"]))
        bound = (n - 1) * (t + frame_ms(WIC_LARGE_BYTES)) + 2.0 * d
        if float(row["max_access_ms"]) > bound:
            problems.append(f"{label}: max access {row['max_access_ms']} ms above {bound!r}")
    return problems


def accounting_problems(result) -> list[str]:
    """A RunResult's time accounting must close exactly."""
    total = result.busy_ns + result.overhead_ns + result.idle_ns
    if total != result.duration_ns:
        return [f"busy + overhead + idle = {total} ns, duration {result.duration_ns} ns"]
    return []
