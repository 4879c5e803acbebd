"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

 1. Golden table: all 36 cells (3 rings x 6 TTRTs x 2 metrics) reproduce
    from the closed-form model with derived latencies after 2-dp rounding.
 2. Worked example: D(20 km, 16 MACs) rounds to 0.12 ms; efficiency
    (16, 5 ms, 0.12 ms) = 97.5% +/- 0.05 pp; max access delay 75.24 ms.
 3. Analytical identities: overflow == basic model at exact frame
    multiples (1e-12 relative); n=1 equals the single-station form; the
    large-n limit approaches 1 - D/T within 1e-4 on a 100-point grid.
 4. Simulator cross-validation: preset x TTRT {4,8,20} x active {1,5,20},
    saturated, token time 0 -> efficiency within 2% relative of the
    overflow model, no access sample above the analytical bound.
 5. Rotation bound: every rotation observed in the acceptance runs stays
    below 2 x TTRT; zero violations.
 6. Figure shapes: (a) efficiency monotone in TTRT with diminishing slope
    and the knee inside 6-10 ms for the largest ring; (b) access delay
    monotone, largest ring at 165 ms rounds to 164.84 s; (c) mean response
    flat (<5%) across TTRT at 28% and 58% load and spread (>10%) near
    saturation; (d) efficiency and access delay vary <5% across frame
    sizes 100-4500 B.
 7. Fairness: ten saturated stations share throughput within 1% relative.
 8. Determinism: repeated CLI runs with one seed emit byte-identical CSV.
 9. Validator: 2.134 ms floor on the maximum ring, 3 ms rejected by rule
    3, a 20 ms service interval yields a 10 ms advisory.

The simulated runs feed a module-level rotation ledger that criterion 5
audits, so this file is meant to run as a whole (plain pytest ordering).
"""

from __future__ import annotations

import math

from fddiperf import analytical, cli, metrics, presets, simcore
from fddiperf.analytical import (
    MAX_RING_LATENCY_MS,
    PhysicalRing,
    RingParameters,
    frame_time_ms,
)
from fddiperf.presets import PRESETS, paper_round
from fddiperf.simcore import NS_PER_MS, RingConfig
from fddiperf.workload import SaturationWorkload, WicWorkload

# (label, ttrt_ms, max_rotation_ms) per simulated acceptance run.
_ROTATION_LEDGER: list[tuple[str, float, float]] = []

CROSSVAL_TTRT_MS = (4.0, 8.0, 20.0)
CROSSVAL_ACTIVE = (1, 5, 20)
CROSSVAL_FRAME_BYTES = 512
CROSSVAL_DURATION_MS = 1500.0

FIG3_LOADS = (28, 58, 90)
FIG3_GRID_MS = presets.FIG3_TTRT_GRID_MS


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {num} ({name}): {state}{suffix}")


def _run_sim(label, config, load, duration_ms, seed):
    result = simcore.run(config, load, duration_ms=duration_ms, seed=seed)
    _ROTATION_LEDGER.append((label, config.ttrt_ms, result.max_rotation_ms))
    return result, metrics.summarize(result)


def test_criterion_1_golden_table():
    rows = presets.table1_rows()
    bad = [r for r in rows if not r.matches]
    ok = len(rows) == 18 and not bad
    _report(1, "golden table", ok, f"{36 - 2 * len(bad)}/36 cells match")
    assert ok, bad


def test_criterion_2_worked_example():
    d = analytical.ring_latency(PhysicalRing(20.0, 16))
    d_ok = paper_round(d) == 0.12
    eff = analytical.efficiency(RingParameters(16, 5.0, 0.12))
    eff_ok = abs(eff * 100.0 - 97.5) <= 0.05
    delay = analytical.max_access_delay(RingParameters(16, 5.0, 0.12))
    delay_ok = abs(delay - 75.24) <= 0.01
    ok = d_ok and eff_ok and delay_ok
    _report(
        2, "worked example", ok,
        f"D={d:.4f}ms eff={eff * 100:.3f}% delay={delay:.3f}ms",
    )
    assert ok


def test_criterion_3_analytical_identities():
    # overflow collapses to the basic model whenever k*F equals the budget
    worst = 0.0
    for k in (1, 3, 20, 100):
        for f in (0.008, 0.04096, 0.36):
            for d in (0.0403, 1.117, 2.017):
                for n in (1, 16, 1000):
                    t = d + k * f
                    ovf = analytical.overflow_model(RingParameters(n, t, d, f))
                    base = analytical.basic_model(RingParameters(n, t, d))
                    worst = max(
                        worst,
                        abs(ovf.efficiency - base.efficiency) / base.efficiency,
                        abs(ovf.max_access_delay_ms - base.max_access_delay_ms)
                        / base.max_access_delay_ms,
                    )
    collapse_ok = worst <= 1e-12

    # one station: (T - D) / (T + D)
    single_ok = all(
        math.isclose(analytical.efficiency(RingParameters(1, t, d)), (t - d) / (t + d),
                     rel_tol=1e-12)
        for t in (4.0, 8.0, 20.0, 165.0)
        for d in (0.0, 0.0403, 1.117, 2.017)
        if t > d
    )

    limit_worst = 0.0
    grid_points = 0
    for i in range(10):
        t = 1.0 + i * (164.0 / 9.0)
        for j in range(10):
            d = t * (j / 10.0) * 0.9
            e = analytical.efficiency(RingParameters(10**6, t, d))
            limit_worst = max(limit_worst, abs(e - (1.0 - d / t)))  # the limit 1 - D/T
            grid_points += 1
    limit_ok = grid_points == 100 and limit_worst < 1e-4

    ok = collapse_ok and single_ok and limit_ok
    _report(
        3, "analytical identities", ok,
        f"collapse<= {worst:.2e}, limit gap {limit_worst:.2e}",
    )
    assert ok


def test_criterion_4_simulator_cross_validation():
    failures = []
    worst = 0.0
    for preset_name in ("typical", "big", "largest"):
        p = PRESETS[preset_name]
        for ttrt in CROSSVAL_TTRT_MS:
            for n_active in CROSSVAL_ACTIVE:
                config = RingConfig.uniform(
                    p.mac_count, p.fiber_km, ttrt, token_time_us=0.0
                )
                load = SaturationWorkload(
                    frame_bytes=CROSSVAL_FRAME_BYTES,
                    stations=tuple(range(n_active)),
                )
                label = f"crossval:{preset_name}/{ttrt:g}ms/{n_active}"
                result, report = _run_sim(
                    label, config, load, CROSSVAL_DURATION_MS, seed=3
                )
                model = analytical.overflow_model(
                    RingParameters(
                        n_active, ttrt, config.walk_ns / NS_PER_MS,
                        frame_time_ms(CROSSVAL_FRAME_BYTES),
                    )
                )
                rel = abs(report.efficiency - model.efficiency) / model.efficiency
                worst = max(worst, rel)
                if rel > 0.02:
                    failures.append(f"{label}: efficiency off by {rel:.3%}")
                if report.access_bound_exceeded:
                    failures.append(f"{label}: access sample above the bound")
                if not result.trt_bound_enforced:
                    failures.append(f"{label}: rotation bound unexpectedly unenforced")
    ok = not failures
    _report(4, "simulator cross-validation", ok, f"27 runs, worst {worst:.3%}")
    assert ok, failures


def test_criterion_6_figure_shapes():
    problems = []

    # (a) efficiency monotone in TTRT, concave, knee inside 6-10 ms
    p = PRESETS["largest"]
    d = p.ring_latency_ms()
    grid = [t for t in presets.FIG_TTRT_GRID_MS if t > d]
    effs = [
        analytical.efficiency(RingParameters(p.mac_count, t, d)) for t in grid
    ]
    if not all(b > a for a, b in zip(effs, effs[1:])):
        problems.append("fig1: efficiency not monotone in TTRT")
    slopes = [
        (eb - ea) / (tb - ta)
        for (ta, ea), (tb, eb) in zip(zip(grid, effs), zip(grid[1:], effs[1:]))
    ]
    if not all(sb < sa + 1e-15 for sa, sb in zip(slopes, slopes[1:])):
        problems.append("fig1: slope not diminishing")

    def eff_at(t):
        return analytical.efficiency(RingParameters(p.mac_count, t, d))

    if not (eff_at(10.0) - eff_at(6.0) > eff_at(20.0) - eff_at(16.0)):
        problems.append("fig1: knee fell outside 6-10 ms")

    # (b) access delay monotone; largest/165 rounds to 164.84 s
    delays = [
        analytical.max_access_delay(RingParameters(p.mac_count, t, d)) for t in grid
    ]
    if not all(b > a for a, b in zip(delays, delays[1:])):
        problems.append("fig2: access delay not monotone")
    largest_165_s = analytical.max_access_delay(
        RingParameters(p.mac_count, 165.0, d)
    ) / 1000.0
    if paper_round(largest_165_s) != 164.84:
        problems.append(f"fig2: largest/165 rounds to {paper_round(largest_165_s)}")

    # (c) response time vs TTRT per load level
    spreads = {}
    for load_pct in FIG3_LOADS:
        wic = WicWorkload.for_utilization(load_pct / 100.0, presets.FIG3_STATIONS)
        means = []
        for ttrt in FIG3_GRID_MS:
            config = RingConfig.uniform(presets.FIG3_STATIONS, presets.FIG3_FIBER_KM, ttrt)
            _, report = _run_sim(
                f"fig3:{load_pct}%/{ttrt:g}ms", config, wic,
                simcore.DEFAULT_DURATION_MS, seed=5,
            )
            if report.access_bound_exceeded:
                problems.append(f"fig3 {load_pct}%/{ttrt}: access bound exceeded")
            means.append(report.response_time.mean_ms)
        spreads[load_pct] = max(means) / min(means)
    if spreads[28] >= 1.05:
        problems.append(f"fig3: 28% load spread {spreads[28]:.3f} >= 1.05")
    if spreads[58] >= 1.05:
        problems.append(f"fig3: 58% load spread {spreads[58]:.3f} >= 1.05")
    if spreads[90] <= 1.10:
        problems.append(f"fig3: 90% load spread {spreads[90]:.3f} <= 1.10")

    # (d) frame size barely moves either metric at fixed T, D, n
    effs_f = []
    delays_f = []
    for frame_bytes in presets.FRAME_SIZE_GRID_BYTES:
        res = analytical.overflow_model(
            RingParameters(
                p.mac_count, presets.FIGURE_TTRT_MS, d, frame_time_ms(frame_bytes)
            )
        )
        effs_f.append(res.efficiency)
        delays_f.append(res.max_access_delay_ms)
    if max(effs_f) / min(effs_f) >= 1.05:
        problems.append("fig8: efficiency varies >= 5% across frame sizes")
    if max(delays_f) / min(delays_f) >= 1.05:
        problems.append("fig9: access delay varies >= 5% across frame sizes")

    ok = not problems
    detail = (
        f"spreads 28%={spreads.get(28, 0):.3f} 58%={spreads.get(58, 0):.3f} "
        f"90%={spreads.get(90, 0):.3f}"
    )
    _report(6, "figure shapes", ok, detail)
    assert ok, problems


def test_criterion_7_fairness():
    config = RingConfig.uniform(10, 2.0, 4.0)
    load = SaturationWorkload(frame_bytes=4500)
    result, _ = _run_sim("fairness:10sat", config, load, 6000.0, seed=11)
    shares = metrics.station_throughput_mbps(result)
    mean = sum(shares) / len(shares)
    dev = max(abs(s - mean) / mean for s in shares)
    ok = dev <= 0.01
    _report(7, "saturated fairness", ok, f"max share deviation {dev:.3%}")
    assert ok, shares


def test_criterion_8_determinism(tmp_path):
    sim_args = [
        "simulate", "--preset", "big", "--ttrt", "8", "--workload", "wic",
        "--load-pct", "40", "--duration-ms", "300", "--seed", "21",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(sim_args + ["--out", str(a)]) == 0
    assert cli.main(sim_args + ["--out", str(b)]) == 0
    sim_identical = a.read_bytes() == b.read_bytes()

    sweep_args = [
        "sweep", "--var", "ttrt", "--grid", "4,8,20", "--preset", "typical",
        "--mode", "both", "--frame-bytes", "512", "--duration-ms", "250",
        "--seed", "9",
    ]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli.main(sweep_args + ["--out", str(c)]) == 0
    assert cli.main(sweep_args + ["--out", str(d)]) == 0
    sweep_identical = c.read_bytes() == d.read_bytes()

    ok = sim_identical and sweep_identical
    _report(8, "byte-identical reruns", ok)
    assert ok


def test_criterion_9_validator():
    floor = analytical.validate_ttrt(8.0, MAX_RING_LATENCY_MS)
    floor_ok = abs(floor.min_legal_ttrt_ms - 2.13388) < 1e-9
    floor_rounds = paper_round(floor.min_legal_ttrt_ms, 3) == 2.134

    reject = analytical.validate_ttrt(3.0, MAX_RING_LATENCY_MS)
    reject_ok = 3 in reject.violated_rules and not reject.ok

    advisory = analytical.validate_ttrt(
        8.0, MAX_RING_LATENCY_MS, service_interval_ms=20.0
    )
    advisory_ok = advisory.advisory_ttrt_ms == 10.0

    ok = floor_ok and floor_rounds and reject_ok and advisory_ok
    _report(
        9, "TTRT validator", ok,
        f"floor {floor.min_legal_ttrt_ms:.5f} ms, 3 ms rejected: {reject_ok}",
    )
    assert ok


def test_criterion_5_rotation_bound():
    # audited last: every simulated acceptance run above feeds the ledger
    if not _ROTATION_LEDGER:  # standalone invocation fallback
        config = RingConfig.uniform(20, 4.0, 8.0, token_time_us=0.0)
        _run_sim(
            "fallback", config, SaturationWorkload(frame_bytes=512), 1000.0,
            seed=1,
        )
    violations = [
        (label, ttrt, rot)
        for label, ttrt, rot in _ROTATION_LEDGER
        if rot >= 2.0 * ttrt
    ]
    ok = not violations
    _report(
        5, "rotation < 2 x TTRT", ok,
        f"{len(_ROTATION_LEDGER)} runs, 0 violations" if ok else f"{violations}",
    )
    assert ok, violations
