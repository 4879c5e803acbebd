"""Simulator tests built around hand-traceable configurations.

The single-saturated-station ring has an exactly periodic steady state
(usable and unusable tokens alternate), so cycle length, per-cycle
transmission and access-delay samples can all be checked against pencil
arithmetic. The remaining tests pin the protocol edges: idle rings are pure
repeaters, a token arriving after a long rotation is unusable, the
no-overflow discipline never exceeds the holding budget, runs are
deterministic, and the busy/overhead/idle accounting closes exactly. A
bursty run keeps under 16 bytes per sent frame, and peaks under 28 with its
summary, measured with tracemalloc.
"""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from fddiperf import metrics, simcore, workload
from fddiperf.analytical import (
    PROPAGATION_US_PER_KM, PhysicalRing, RingParameters, frame_time_ms, overflow_model,
    ring_latency)
from fddiperf.presets import FIG3_FIBER_KM, FIG3_STATIONS
from fddiperf.simcore import NS_PER_MS, RingConfig, run
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload


def _single_station_config(ttrt_ms=5.0):
    # one station, no fiber: ring latency is the 1 us station delay
    return RingConfig.uniform(1, 0.0, ttrt_ms, token_time_us=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        RingConfig(segment_delays_us=(), ttrt_ms=8.0)
    # the standard's 4..167.77 ms window is the CLI's: the record takes any TTRT above 0
    for ttrt_ms in (2.0, 200.0):
        assert RingConfig.uniform(4, 10.0, ttrt_ms).ttrt_ms == ttrt_ms
    with pytest.raises(ValueError, match="n_stations must be >= 1"):
        RingConfig.uniform(0, 10.0, 8.0)
    with pytest.raises(ValueError, match="fiber_km must be >= 0"):
        RingConfig.uniform(4, -1.0, 8.0)
    for ttrt_ms in (0.0, -2.0):
        with pytest.raises(ValueError, match="ttrt_ms must be > 0"):
            RingConfig.uniform(4, 10.0, ttrt_ms)
    for ttrt_ms in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ttrt_ms must be finite"):
            RingConfig.uniform(4, 10.0, ttrt_ms)


def test_uniform_split_is_exact():
    cfg = RingConfig.uniform(16, 20.0, 8.0)
    total_ns = sum(round(u * 1000) for u in cfg.segment_delays_us)
    assert total_ns == round(20.0 * 5.085 * 1000)
    # every hop: its propagation, the 1 us repeat delay and the 0.88 us token time
    assert cfg.walk_ns == total_ns + 16 * (1000 + 880)


def test_idle_ring_is_pure_repeater():
    # no workload: zero throughput, rotation = D + n * token_time, forever
    cfg = RingConfig.uniform(16, 20.0, 8.0, token_time_us=0.88)
    res = run(cfg, None, duration_ms=50.0, seed=1)
    d_ns = round(20.0 * 5.085 * 1000) + 16 * 1000
    expected = d_ns + 16 * 880
    assert res.completed_bits == 0
    assert res.max_rotation_ns == expected
    assert res.rotation_count == res.duration_ns // expected + 1
    assert res.busy_ns == 0
    assert res.idle_ns == res.duration_ns
    assert res.trt_violations == 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
       st.just(0.0) | st.floats(0.0, 5.0))
@example([0.8475] * 6, 0.0)
def test_ring_latency_is_the_simulated_rotation_on_uneven_hops(hops_us, token_time_us):
    # each hop is simulated in whole nanoseconds, so the walk time that bounds
    # rotations and access delays counts the rounded hops, not the floats:
    # with no token time it is the closed form's D, each hop rounded
    cfg = RingConfig(tuple(hops_us), 4.0, token_time_us=token_time_us)
    assert run(cfg, None, duration_ms=10.0).max_rotation_ns == cfg.walk_ns
    if token_time_us == 0.0:
        d_ms = ring_latency(PhysicalRing(sum(hops_us) / PROPAGATION_US_PER_KM, len(hops_us)))
        assert abs(cfg.walk_ns - d_ms * NS_PER_MS) <= len(hops_us) / 2
    saturated = run(cfg, SaturationWorkload(1, (0,)), duration_ms=40.0)
    assert not metrics.summarize(saturated).access_bound_exceeded


def test_access_bound_counts_token_time_in_simulated_nanoseconds():
    # a 0.0006 us token time is charged as 1 ns at each of the 1000 hops
    cfg = RingConfig.uniform(1000, 200.0, 8.0, token_time_us=0.0006)
    res = run(cfg, SaturationWorkload(1, (0,)), duration_ms=100.0)
    assert not metrics.summarize(res).access_bound_exceeded


def test_single_station_saturated_cycle():
    # T = 5 ms, D = 1 us, F = 100 B (8 us): k = ceil(4999/8) = 625,
    # so the steady cycle is kF + 2D = 5.002 ms with kF = 5 ms transmitted.
    cfg = _single_station_config()
    res = run(cfg, SaturationWorkload(frame_bytes=100, stations=(0,)), 100.0, seed=3)
    d_ns = 1000
    k = 625
    kf_ns = k * 8000
    cycle_ns = kf_ns + 2 * d_ns

    # every steady-state access sample is exactly 2D; the first (t=0) is 0
    delays = [cap - start for start, cap in res.access_samples]
    assert delays[0] == 0
    assert all(d == 2 * d_ns for d in delays[1:])
    # alternate tokens are unusable: two rotations per cycle, the longer
    # one is kF + D
    assert res.max_rotation_ns == kf_ns + d_ns
    assert res.rotation_count == 2 * (res.duration_ns // cycle_ns) + 1
    # measured efficiency matches the overflow model closely
    rep = metrics.summarize(res)
    model = overflow_model(
        RingParameters(1, 5.0, cfg.walk_ns / NS_PER_MS, frame_time_ms(100))
    )
    assert rep.efficiency == pytest.approx(model.efficiency, rel=1e-3)
    assert not rep.access_bound_exceeded


@pytest.mark.parametrize("script, pairs", [
    ({0: [(0.0, [4500])]}, [(0, 360000)]),
    # the burst at the first frame's completion goes out in the same holding
    ({0: [(0.0, [100]), (0.008, [100])]}, [(0, 8000), (8000, 16000)]),
])
def test_a_token_event_sees_every_burst_at_its_instant(script, pairs):
    # one station, no fiber: the token's first visit is at t = 0, the instant
    # of the first burst, so the station captures it at once
    cfg = RingConfig.uniform(1, 0.0, 4.0, token_time_us=0.0)
    res = run(cfg, ScriptedWorkload(script), duration_ms=1.0, warmup_fraction=0.0)
    assert res.access_samples == [(0, 0)]
    assert list(res.response_samples) == pairs


@pytest.mark.parametrize("duration_ms, frames, efficiency", [
    (0.8, 90, 1.0),
    (1.0, 113, 113 / 112.5),
])
def test_the_measured_window_holds_the_frames_completed_after_the_mark(duration_ms, frames,
                                                                        efficiency):
    # station 0 captures the token at t = 0 and holds it for the whole run,
    # a 100-byte frame completing every 8 us; the window is (mark, end]. At
    # 0.8 ms the mark, 80 us, is the 10th frame's completion, which falls
    # before the window, and the 720 us window holds 90 frames exactly. At
    # 1.0 ms bits are credited as a frame completes, so the frame sent from
    # 96 to 104 us counts whole, and 113 frames complete in the 900 us
    # window, which holds 112.5
    cfg = RingConfig.uniform(20, 4.0, 8.0)
    load = SaturationWorkload(100, stations=tuple(range(20)))
    res = run(cfg, load, duration_ms=duration_ms)
    assert res.access_samples == [(0, 0)]
    assert res.completed_bits - res.boundary.completed_bits == frames * 100 * 8
    assert metrics.summarize(res).efficiency == pytest.approx(efficiency, rel=1e-12)


def test_unusable_token_sends_nothing():
    # station 1's queue fills while station 0 holds the token for ~T, so the
    # token reaching station 1 shows TRT >= T and must pass straight through
    cfg = RingConfig.uniform(2, 0.0, 4.0, token_time_us=0.0)
    script = ScriptedWorkload(
        {
            0: [(0.0, [4500] * 20)],  # ~7.2 ms of backlog
            1: [(0.1, [100])],
        }
    )
    res = run(cfg, script, duration_ms=30.0, seed=0)
    # station 1 waited out station 0's opportunity plus the return hop:
    # its only access sample spans nearly the whole first holding period
    sample = next(
        (cap - start, start)
        for start, cap in res.access_samples
        if start == int(0.1 * NS_PER_MS)
    )
    assert sample[0] > 3 * NS_PER_MS
    assert res.trt_violations == 0


def test_budget_cut_is_counted_and_binds_the_ttrt():
    # one station with 7.2 ms of backlog at t=0: a 4 ms TTRT cuts its first
    # holding short, while at 8 ms one holding empties the queue
    script = ScriptedWorkload({0: [(0.0, [4500] * 20)]})
    cut = run(_single_station_config(4.0), script, duration_ms=30.0)
    assert cut.budget_cuts == 1
    assert not simcore.certified(cut)
    assert simcore.reuse_at(cut, _single_station_config(8.0), script) is None
    free = run(_single_station_config(8.0), script, duration_ms=30.0)
    assert free.budget_cuts == 0
    assert simcore.certified(free)
    wide = _single_station_config(20.0)
    assert simcore.reuse_at(free, wide, script) == run(wide, script, duration_ms=30.0)
    assert simcore.reuse_at(free, _single_station_config(4.0), script) is None
    # the run stands in only for its own workload
    other = ScriptedWorkload({0: [(0.0, [4500] * 19)]})
    assert simcore.reuse_at(free, wide, other) is None
    assert simcore.reuse_at(free, wide, None) is None


def test_rotation_the_run_end_leaves_open_counts_against_the_bound():
    # a 5 ms hop at a 2 ms TTRT: the token leaves station 0 at t=0 and is
    # still away when the run ends, so no rotation closes
    cfg = RingConfig((5000.0,), 2.0, token_time_us=0.0)
    for duration_ms, ok in ((3.5, True), (4.5, False)):
        res = run(cfg, None, duration_ms=duration_ms)
        assert res.max_rotation_ns == 0
        assert res.open_rotation_ns == duration_ms * NS_PER_MS
        assert metrics.summarize(res).trt_bound_ok is ok


def test_no_overflow_respects_budget_exactly():
    cfg = RingConfig.uniform(
        2, 0.0, 4.0, token_time_us=0.0, async_overflow=False
    )
    w = SaturationWorkload(frame_bytes=4500, stations=(0, 1))
    res = run(cfg, w, duration_ms=200.0, seed=1)
    # with overflow off, a holding never exceeds its budget, and the budget
    # never exceeds TTRT, so total busy time is capped by opportunities
    # times the largest whole-frame fill of one TTRT
    tht_max_ns = 4 * NS_PER_MS
    frame_ns = 4500 * 80
    k_fit = tht_max_ns // frame_ns
    assert res.access_samples
    assert res.busy_ns <= len(res.access_samples) * k_fit * frame_ns


def test_overflow_adds_at_most_one_frame():
    cfg = RingConfig.uniform(2, 0.0, 4.0, token_time_us=0.0)
    w = SaturationWorkload(frame_bytes=4500, stations=(0, 1))
    res = run(cfg, w, duration_ms=200.0, seed=1)
    frame_ns = 4500 * 80
    tht_max_ns = 4 * NS_PER_MS
    assert res.busy_ns <= len(res.access_samples) * (tht_max_ns + frame_ns)


def test_same_seed_same_samples():
    cfg = RingConfig.uniform(8, 10.0, 8.0)
    w = WicWorkload(mean_interburst_ms=2.0)
    a = run(cfg, w, duration_ms=300.0, seed=99)
    b = run(cfg, w, duration_ms=300.0, seed=99)
    assert a.response_samples == b.response_samples
    assert a.access_samples == b.access_samples
    assert a.completed_bits == b.completed_bits
    assert a.station_bits == b.station_bits
    c = run(cfg, w, duration_ms=300.0, seed=100)
    assert c.response_samples != a.response_samples


def test_time_accounting_closes_exactly():
    for seed in (1, 2):
        cfg = RingConfig.uniform(8, 10.0, 8.0)
        w = WicWorkload(mean_interburst_ms=2.0)
        res = run(cfg, w, duration_ms=250.0, seed=seed)
        assert res.busy_ns + res.idle_ns + res.overhead_ns == res.duration_ns
        # completed bits can never exceed the busy time's carrying capacity
        assert res.completed_bits <= res.busy_ns // 10


def test_saturated_run_is_never_idle():
    cfg = RingConfig.uniform(4, 5.0, 8.0)
    w = SaturationWorkload(frame_bytes=512, stations=(0,))
    res = run(cfg, w, duration_ms=100.0, seed=1)
    assert res.idle_ns == 0
    assert res.busy_ns + res.overhead_ns == res.duration_ns


def test_trt_bound_enforced_flag():
    w = SaturationWorkload(frame_bytes=4500, stations=(0,))
    cfg = RingConfig.uniform(4, 5.0, 8.0)
    assert run(cfg, w, 50.0, seed=1).trt_bound_enforced
    # TTRT below latency + frame: bound not guaranteed, only counted
    tiny = RingConfig.uniform(4, 5.0, 0.3, token_time_us=0.0)
    res = run(tiny, w, 50.0, seed=1)
    assert not res.trt_bound_enforced


def test_skip_chain_matches_full_ring():
    # a sparse saturated ring must behave identically whether idle stations
    # are simulated hop by hop or folded; fold is the default, so compare
    # against an equivalent dense ring with the same total latency
    ttrt = 8.0
    w = SaturationWorkload(frame_bytes=512, stations=(0, 3))
    sparse = RingConfig.uniform(8, 10.0, ttrt, token_time_us=0.0)
    res = run(sparse, w, duration_ms=500.0, seed=5)
    # same two active stations on a 2-station ring with identical latency
    seg_total_us = 10.0 * 5.085 + 6 * 1.0  # fold six idle station delays
    dense = RingConfig(
        segment_delays_us=(seg_total_us / 2 + 0.0, seg_total_us / 2),
        ttrt_ms=ttrt,
        token_time_us=0.0,
    )
    res2 = run(dense, SaturationWorkload(frame_bytes=512), duration_ms=500.0, seed=5)
    assert res.completed_bits == pytest.approx(res2.completed_bits, rel=2e-3)


def test_response_sample_hand_trace():
    # two stations, no fiber, token time zero: D = 2 us. A single 100-byte
    # frame lands at station 1 at t = 0.5 ms; response = access + 8 us.
    cfg = RingConfig.uniform(2, 0.0, 4.0, token_time_us=0.0)
    script = ScriptedWorkload({1: [(0.5, [100])]})
    res = run(cfg, script, duration_ms=4.0, seed=0)
    assert len(res.response_samples) == 1
    arrival, completion = res.response_samples[0]
    assert arrival == 500_000
    (start, capture), = res.access_samples
    assert start == arrival
    assert completion == capture + 8000
    # token arrivals at station 1 happen at odd microseconds: capture on
    # the first arrival after the frame landed
    assert capture == 501_000


def test_mid_burst_arrivals_can_ride_same_token():
    # frames arriving while the station holds the token join the tail of
    # the same opportunity when budget remains
    cfg = RingConfig.uniform(1, 0.0, 8.0, token_time_us=0.0)
    script = ScriptedWorkload(
        {0: [(0.0, [4500]), (0.1, [100])]}  # second burst lands mid-transmission
    )
    res = run(cfg, script, duration_ms=5.0, seed=0)
    assert len(res.response_samples) == 2
    (_, first_done), (a2, second_done) = res.response_samples
    assert a2 == 100_000
    assert second_done == first_done + 8000  # back to back, same holding


def test_zero_duration_rejected():
    cfg = _single_station_config()
    with pytest.raises(ValueError):
        run(cfg, None, duration_ms=0.0, seed=0)
    # a run shorter than one nanosecond is refused as such, not as "> 0"
    with pytest.raises(ValueError, match=r"^duration_ms must be at least 1e-06 \(one "
                       r"nanosecond\), got 9\.9e-07$"):
        run(cfg, None, duration_ms=9.9e-7, seed=0)
    assert run(cfg, None, duration_ms=1e-6, seed=0).duration_ns == 1
    with pytest.raises(ValueError):
        run(cfg, None, duration_ms=10.0, seed=0, warmup_fraction=1.0)


def test_trt_violations_counted_when_not_enforced():
    # TTRT far below one frame time: the overflow frame blows the rotation
    # past 2 x TTRT, but the setup is not rule-2 compliant, so the run
    # completes and the violations are counted instead of raised
    cfg = RingConfig.uniform(2, 0.0, 0.05, token_time_us=0.0)
    w = SaturationWorkload(frame_bytes=4500, stations=(0, 1))
    res = run(cfg, w, duration_ms=10.0, seed=1)
    assert not res.trt_bound_enforced
    assert res.trt_violations > 0


@pytest.mark.parametrize("change", [
    pytest.param(dict(workload=WicWorkload(0.5)), id="workload"),
    pytest.param(dict(n_stations=5), id="stations"),
    pytest.param(dict(seed=2), id="seed"),
    pytest.param(dict(duration_ms=20.0), id="duration"),
])
def test_arrivals_drawn_for_another_run_are_refused(change):
    cfg = RingConfig.uniform(4, 1.0, 8.0)
    drawn = dict(workload=WicWorkload(1.0), n_stations=4, seed=1, duration_ms=10.0)
    arrivals = simcore.Arrivals(**{**drawn, **change})
    with pytest.raises(ValueError, match="arrivals drawn for another"):
        run(cfg, WicWorkload(1.0), duration_ms=10.0, seed=1, arrivals=arrivals)


def _no_draw(self, now_ns):
    raise AssertionError("a burst was drawn")


def test_a_draw_over_the_frame_bound_is_refused_before_drawing(monkeypatch):
    # two stations at a 1 ms mean gap offer 100 WIC frames over 10 ms
    load = WicWorkload(1.0)
    monkeypatch.setattr(simcore, "MAX_DRAWN_FRAMES", 100)
    assert sum(map(len, simcore.Arrivals(load, 2, 1, 10.0).frame_at)) > 0
    monkeypatch.setattr(simcore, "MAX_DRAWN_FRAMES", 99)
    monkeypatch.setattr(workload.WicGenerator, "next_burst", _no_draw)
    with pytest.raises(ValueError, match=r"^a draw of about 100 frames \(19\.5 Mbps offered "
                       r"for 10\.0 ms\) exceeds the 99 frames a run may draw$"):
        simcore.Arrivals(load, 2, 1, 10.0)
    # a script's frames are its own, and a saturated ring draws none
    simcore.Arrivals(ScriptedWorkload({0: [(1.0, [100] * 200)]}), 2, 1, 10.0)
    simcore.Arrivals(SaturationWorkload(), 2, 1, 10.0)


def test_a_saturated_run_over_the_capture_bound_is_refused_before_running(monkeypatch):
    # one station, a 1 us walk, TTRT 5 ms and 100-byte frames: 625 frames a
    # capture, one capture per 5.002 ms cycle, so about 19.99 over 100 ms
    cfg = _single_station_config()
    load = SaturationWorkload(frame_bytes=100, stations=(0,))
    monkeypatch.setattr(simcore, "MAX_CAPTURES", 20)
    assert len(run(cfg, load, 100.0).access_samples) == 20
    monkeypatch.setattr(simcore, "MAX_CAPTURES", 19)
    with pytest.raises(ValueError, match=r"^a saturated run of about 20 token captures "
                       r"\(100\.0 ms at TTRT 5\.0 ms\) exceeds the 19 captures a run may make$"):
        run(cfg, load, 100.0)
    # a ring saturated by latency, one whose 5 us TTRT leaves no room for an
    # 8 us frame with overflow off, and bursty traffic make no captures by it
    simcore.check_captures(cfg._replace(ttrt_ms=0.001), load, 1e300)
    simcore.check_captures(cfg._replace(ttrt_ms=0.005, async_overflow=False), load, 1e300)
    simcore.check_captures(cfg, WicWorkload(1.0), 1e300)


def test_workload_binding_must_cover_ring():
    class BadWorkload:
        max_frame_bytes = 100

        def bind(self, n, seed):
            return [None] * (n + 1)

    cfg = RingConfig.uniform(2, 0.0, 8.0)
    with pytest.raises(ValueError):
        run(cfg, BadWorkload(), duration_ms=10.0, seed=0)


def _traced_lines(n_stations: int) -> tuple[int, int]:
    """The line events in simcore, workload and metrics while a saturated
    ring of n_stations at 0 km is simulated for 400 ms at TTRT 165 ms and
    summarized, and the number of captures."""
    config = RingConfig.uniform(n_stations, 0.0, 165.0)
    load = SaturationWorkload(frame_bytes=4500)
    files = {simcore.__file__, workload.__file__, metrics.__file__}

    def once():
        result = run(config, load, duration_ms=400.0, seed=1)
        metrics.summarize(result)
        return len(result.access_samples)

    once()  # untraced first, so that per-ring caches are warm for both sizes
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        captures = once()
    finally:
        sys.settrace(None)
    return lines, captures


def test_the_ring_last_laid_out_is_found_without_hashing_its_hops():
    # a run's summary reads the walk time of the ring the run just laid out,
    # and a config at another TTRT shares its hop tuple: neither lookup
    # reaches the layout cache, whose key hashes every hop
    cfg = RingConfig.uniform(1000, 200.0, 8.0)
    run(cfg, SaturationWorkload(frame_bytes=100), duration_ms=10.0)
    before = simcore._layout.cache_info()
    assert cfg._replace(ttrt_ms=20.0).walk_ns == cfg.walk_ns
    assert simcore._layout.cache_info() == before


def test_fixed_cost_of_a_run_does_not_grow_with_the_stations():
    # the same captures on 50 and on 1000 stations run the same Python
    # lines: the per-station work is done in whole-list operations
    if sys.gettrace() is not None:
        pytest.skip("a tracer is already active")
    small, large = _traced_lines(50), _traced_lines(1000)
    assert small[1] == large[1] > 0
    assert small[0] == large[0]


def test_bytes_a_bursty_draw_holds_per_frame():
    # fig3's 90 % draw, 9,266 bursts of five frames over 1000 ms, in typed
    # arrays: each frame's arrival and size, 10 bytes, and each burst's time,
    # stop and frame count, 16. Held as lists of boxed ints and built through
    # one tuple per burst, a frame cost 31.2 bytes and 45.5 at the build's peak.
    load = WicWorkload.for_utilization(0.9, FIG3_STATIONS)
    simcore.Arrivals(load, FIG3_STATIONS, 23, 1000.0)  # caches filled outside the count
    gc.collect()
    tracemalloc.start()
    try:
        arrivals = simcore.Arrivals(load, FIG3_STATIONS, 23, 1000.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frames = sum(map(len, arrivals.frame_bytes))
    assert frames > 40_000
    assert held / frames <= 16  # 13.6 when written
    assert peak / frames <= 32  # 27.0 when written


def test_bytes_a_bursty_run_keeps_per_sent_frame():
    # a bursty run keeps each sent frame's completion, 8 bytes, and reads its
    # arrival from the draw; the access episodes, about one per 6.7 frames at
    # 16 bytes each, make up most of the rest. Kept as (arrival, completion)
    # tuples and summarized through a list of delays, a frame cost 111.5 and
    # 155.6 bytes; with the episodes as tuples in a list and summarized
    # through a concatenated array of delays, 23.5 and 43.2.
    config = RingConfig.uniform(FIG3_STATIONS, FIG3_FIBER_KM, 8.0)
    load = WicWorkload.for_utilization(0.9, FIG3_STATIONS)
    arrivals = simcore.Arrivals(load, FIG3_STATIONS, 5, 300.0)
    run(config, load, 300.0, 5, arrivals=arrivals)  # caches filled outside the count
    gc.collect()  # which empties the free lists, so every object is counted
    tracemalloc.start()
    try:
        result = run(config, load, 300.0, 5, arrivals=arrivals)
        kept = tracemalloc.get_traced_memory()[0]
        metrics.summarize(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frames = result.completed_frames
    assert frames > 10_000
    assert kept / frames < 16  # 11.5 when written
    assert peak / frames < 28  # 18.2 when written
