"""Metric aggregation tests: warm-up filtering, absent-statistics handling,
nearest-rank percentiles, the throughput-equals-load property below
saturation, and the hand-computable single-frame response decomposition."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from array import array
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fddiperf import analytical, simcore
from fddiperf.analytical import RingParameters
from fddiperf.metrics import (
    SampleStats, _access_stats, _response_stats, access_delay_bound_ms, reuse_at,
    station_throughput_mbps, summarize)
from fddiperf.samples import AccessEpisodes, ResponseSamples
from fddiperf.simcore import NS_PER_MS, WARMUP_FRACTION, RingConfig, RunResult, RunSnapshot, run
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload


def _episodes(pairs) -> AccessEpisodes:
    """The view a run gives of these (start, capture) pairs."""
    return AccessEpisodes(array("q", chain.from_iterable(pairs)))


def _result_with_samples(duration_ms=100.0, responses=(), accesses=()):
    cfg = RingConfig.uniform(2, 0.0, 8.0)
    duration_ns = int(duration_ms * NS_PER_MS)
    mark = int(duration_ns * WARMUP_FRACTION)
    return RunResult(
        config=cfg,
        duration_ns=duration_ns,
        seed=0,
        completed_bits=0,
        completed_frames=0,
        station_bits=(0, 0),
        # one stop per (arrival, completion) pair
        response_samples=ResponseSamples(SimpleNamespace(frame_at=[[a] for a, _ in responses]),
                                         [[c - a] for a, c in responses]),
        access_samples=_episodes(accesses),
        rotation_count=1,
        max_rotation_ns=100,
        trt_violations=0,
        trt_bound_enforced=True,
        busy_ns=0,
        overhead_ns=duration_ns,
        idle_ns=0,
        boundary=RunSnapshot(mark, 0, 0, (0, 0)),
        sourced_stations=(),
        budget_cuts=0,
        open_rotation_ns=0,
        open_access_ns=0,
        workload=None,
    )


def _stats(delays: list[int], n_stops: int = 1, seed: int = 0) -> SampleStats | None:
    """_response_stats of the delays, split over n_stops stops in order. Each
    stop opens with up to two frames that arrived before the mark, with
    delays far above the rest."""
    rng = random.Random(seed)
    cuts = sorted(rng.randrange(len(delays) + 1) for _ in range(n_stops - 1))
    stops = []
    for lo, hi in zip([0, *cuts], [*cuts, len(delays)]):
        first = 0 if n_stops == 1 else rng.randrange(3)
        stops.append((array("q", [10**12] * first + delays[lo:hi]), first))
    return _response_stats(stops)


def test_stats_nearest_rank_percentile():
    delays = list(range(1, 101))  # 1..100 ns
    s = _stats(delays)
    assert s.count == 100
    assert s.p95_ms == 95 / NS_PER_MS
    assert s.max_ms == 100 / NS_PER_MS
    assert s.mean_ms == pytest.approx(50.5 / NS_PER_MS)
    one = _stats([7])
    assert one.p95_ms == 7 / NS_PER_MS


def _sorted_p95(delays: list[int]) -> int:
    return sorted(delays)[max(0, math.ceil(0.95 * len(delays)) - 1)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 3000), st.sampled_from([1, 2, 3, 10, 1000, 10**9]),
       st.sampled_from(["drawn", "ascending", "descending"]), st.integers(0, 2**32),
       st.integers(1, 40))
def test_p95_is_the_nearest_rank_of_the_sorted_samples(count, distinct, order, seed, n_stops):
    rng = random.Random(seed)
    delays = [rng.randrange(distinct) for _ in range(count)]  # few values: heavy ties
    if order != "drawn":
        delays.sort(reverse=order == "descending")
    s = _stats(delays, n_stops, seed)
    assert (s.count, s.max_ms) == (count, max(delays) / NS_PER_MS)
    assert s.mean_ms == sum(delays) / count / NS_PER_MS
    assert s.p95_ms == _sorted_p95(delays) / NS_PER_MS


@pytest.mark.parametrize("count", [1000, 3000, 45_000])
def test_p95_survives_a_sample_that_misses_the_tail(count):
    # only the sampled samples are large, so the threshold the sample gives
    # leaves too short a tail, and every sample must be sorted
    stride = max(1, count // 256)
    delays = [0] * count
    delays[::stride] = range(10**6, 10**6 + len(delays[::stride]))
    assert _stats(delays).p95_ms == _sorted_p95(delays) / NS_PER_MS


def test_empty_stats_are_absent_not_zero():
    assert _stats([]) is None
    assert _stats([], n_stops=3) is None
    rep = summarize(_result_with_samples())
    assert rep.response_time is None
    assert rep.access_delay is None
    assert rep.efficiency == 0.0
    assert rep.throughput_mbps == 0.0


def test_warmup_filters_by_episode_start():
    duration_ms = 100.0
    mark = int(duration_ms * NS_PER_MS * WARMUP_FRACTION)
    res = _result_with_samples(
        duration_ms,
        responses=[(mark - 5, mark + 100), (mark, mark + 50), (mark + 1, mark + 9)],
        accesses=[(mark - 1, mark + 2), (mark + 3, mark + 10)],
    )
    rep = summarize(res)
    assert rep.response_time.count == 2  # arrival at the boundary counts
    assert rep.warmup_frames_discarded == 1
    assert rep.access_delay.count == 1
    assert rep.warmup_access_discarded == 1


def test_bytes_the_access_stats_take_per_episode():
    # a 3 s WIC run at 90 % on the typical ring, 20,222 episodes: the two
    # columns are read through views of the run's flat array, and one bool
    # per episode is kept, 8.6 bytes an episode at the peak. Copied as
    # strided array slices, the columns cost 24.6.
    result = run(RingConfig.uniform(20, 4.0, 8.0), WicWorkload.for_utilization(0.9, 20),
                 duration_ms=3000.0, seed=5)
    episodes, mark = result.access_samples, result.boundary.at_ns
    _access_stats(episodes, mark)  # caches filled outside the count
    gc.collect()
    tracemalloc.start()
    try:
        stats = _access_stats(episodes, mark)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(episodes) > 20_000
    assert peak / len(episodes) <= 10
    waits = [capture - start for start, capture in episodes if start >= mark]
    assert stats == SampleStats(mean_ms=sum(waits) / len(waits) / NS_PER_MS,
                                max_ms=max(waits) / NS_PER_MS, count=len(waits))


def test_idle_run_reports_zero_efficiency():
    cfg = RingConfig.uniform(4, 2.0, 8.0)
    res = run(cfg, None, duration_ms=20.0, seed=0)
    assert res.workload is None
    rep = summarize(res)
    assert rep.efficiency == 0.0
    assert rep.response_time is None
    assert rep.completed_frames == 0
    assert rep.trt_bound_ok
    # with no traffic there is neither an offered load nor an access bound
    assert rep.offered_load_mbps is None
    assert rep.access_bound_ms is None


def test_single_frame_response_decomposition():
    # response = access delay + 8 us transmission for one 100-byte frame
    cfg = RingConfig.uniform(2, 0.0, 4.0, token_time_us=0.0)
    script = ScriptedWorkload({1: [(0.5, [100])]})
    res = run(cfg, script, duration_ms=4.0, seed=0)
    rep = summarize(res)
    assert rep.response_time.count == 1
    assert rep.access_delay.count == 1
    assert rep.response_time.mean_ms == pytest.approx(
        rep.access_delay.mean_ms + 0.008, abs=1e-12
    )
    # mean response can never undercut the shortest transmission
    assert rep.response_time.mean_ms >= 0.008


def test_throughput_equals_load_below_saturation():
    # at 58% of the line rate the ring keeps up: measured throughput tracks
    # the offered load within 2%
    n = 40
    w = WicWorkload.for_utilization(0.58, n)
    cfg = RingConfig.uniform(n, 8.0, 8.0)
    res = run(cfg, w, duration_ms=2000.0, seed=17)
    rep = summarize(res)
    assert rep.throughput_mbps == pytest.approx(rep.offered_load_mbps, rel=0.02)
    assert 0.0 <= rep.efficiency <= 1.0
    assert not rep.access_bound_exceeded


def test_saturated_efficiency_matches_reference_cell():
    # saturated typical ring at TTRT 8 ms with token time zero: efficiency
    # within 2% of the 99.47% reference value
    cfg = RingConfig.uniform(20, 4.0, 8.0, token_time_us=0.0)
    w = SaturationWorkload(frame_bytes=512)
    res = run(cfg, w, duration_ms=1500.0, seed=2)
    rep = summarize(res)
    assert rep.efficiency == pytest.approx(0.9947, rel=0.02)
    assert rep.offered_load_mbps == math.inf


def test_access_bound_reported_and_checked():
    cfg = RingConfig.uniform(4, 5.0, 8.0, token_time_us=0.0)
    w = SaturationWorkload(frame_bytes=512)
    res = run(cfg, w, duration_ms=500.0, seed=3)
    rep = summarize(res)
    assert rep.access_bound_ms is not None
    assert not rep.access_bound_exceeded
    assert rep.access_delay.max_ms <= rep.access_bound_ms + 1e-6
    # an idle run has none
    assert summarize(run(cfg, None, duration_ms=500.0, seed=3)).access_bound_ms is None


def test_access_bound_is_exceeded_one_nanosecond_past_its_slack():
    # the check reads the largest delay back from its report in whole
    # nanoseconds, in summarize and in reuse_at alike, whether a capture
    # closed that wait or the run's end left it open
    plain = _result_with_samples()._replace(
        workload=SaturationWorkload(frame_bytes=512), sourced_stations=(0, 1))
    mark = plain.boundary.at_ns
    bound_ms = access_delay_bound_ms(plain)
    limit_ns = int(round(bound_ms * NS_PER_MS)) + 1
    for over in (0, 1):
        closed = plain._replace(access_samples=_episodes([(mark, mark + limit_ns + over)]))
        opened = plain._replace(open_access_ns=limit_ns + over)  # no closed episode
        for res in (closed, opened):
            rep = summarize(res)
            assert rep.access_bound_ms == bound_ms
            assert rep.access_bound_exceeded is bool(over)
            assert reuse_at(rep, res) == rep


_SUBSET_LOADS = {
    "saturated": (SaturationWorkload(frame_bytes=1000, stations=(2, 5, 7)), (2, 5, 7), math.inf),
    "wic": (WicWorkload.for_utilization(0.3, 10, stations=(0, 1, 2, 3)), (0, 1, 2, 3),
            4 * WicWorkload.for_utilization(0.3, 10).offered_load_mbps()),
    "scripted": (ScriptedWorkload({1: [(0.5, [100, 300])], 6: [(1.0, [200])]}), (1, 6), None),
}


@pytest.mark.parametrize("name", _SUBSET_LOADS)
def test_summary_takes_its_bound_and_offered_load_from_the_run(name):
    # the bound counts the stations the run sourced and its workload's
    # largest frame; the offered load is the workload's over the ring
    load, stations, offered = _SUBSET_LOADS[name]
    result = run(RingConfig.uniform(10, 2.0, 8.0), load, duration_ms=50.0, seed=5)
    assert result.workload == load
    assert result.sourced_stations == stations
    rep = summarize(result)
    cfg = result.config
    bound_ms = analytical.overflow_model(RingParameters(
        n_active=len(stations), ttrt_ms=8.0,
        ring_latency_ms=cfg.walk_ns / NS_PER_MS,
        frame_time_ms=analytical.frame_time_ms(load.max_frame_bytes))).max_access_delay_ms
    assert rep.access_bound_ms == bound_ms
    assert rep.offered_load_mbps == offered


def test_a_scripted_frame_past_the_standard_has_a_bound():
    # a script may hold frames of up to 65535 bytes, past the 4500 that
    # analytical.frame_time_ms takes; the bound reads the frame's time in ns
    load = ScriptedWorkload({1: [(0.5, [5000, 100])], 2: [(1.0, [65535])]})
    result = run(RingConfig.uniform(4, 1.0, 8.0), load, duration_ms=10.0)
    bound_ms = analytical.overflow_model(RingParameters(
        2, 8.0, result.config.walk_ns / NS_PER_MS, 65535 * 80 / NS_PER_MS)).max_access_delay_ms
    assert summarize(result).access_bound_ms == bound_ms


@pytest.mark.parametrize("overflow", [True, False])
def test_no_bound_when_no_token_can_start_the_largest_frame(overflow):
    # a 1 us walk leaves 9 us of a 10 us TTRT, short of a 500-byte (40 us)
    # frame: with overflow every other token is usable, a wait of 2 walks;
    # without it no token can start the frame, and no wait bound holds
    cfg = RingConfig.uniform(1, 0.0, 0.01, token_time_us=0.0, async_overflow=overflow)
    result = run(cfg, SaturationWorkload(500, (0,)), duration_ms=1.0)
    report = summarize(result)
    assert report.access_bound_ms == (0.002 if overflow else None)
    assert (result.open_access_ns == result.duration_ns) is not overflow
    assert not report.access_bound_exceeded


def test_station_throughput_shares():
    cfg = RingConfig.uniform(4, 2.0, 8.0, token_time_us=0.0)
    w = SaturationWorkload(frame_bytes=512, stations=(0, 1))
    res = run(cfg, w, duration_ms=500.0, seed=4)
    shares = station_throughput_mbps(res)
    assert shares[2] == 0.0
    assert shares[3] == 0.0
    active = shares[:2]
    assert sum(active) == pytest.approx(summarize(res).throughput_mbps, rel=1e-9)
    assert active[0] == pytest.approx(active[1], rel=0.02)


# (window bits, mark): about nine stations in ten send nothing in the window,
# and half of those nothing before it either
_STATION_BITS = st.tuples(st.integers(0, 9).flatmap(
    lambda d: st.integers(0, 2**40) if d == 0 else st.just(0)), st.just(0) | st.integers(0, 2**40))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(_STATION_BITS, min_size=1, max_size=200), st.integers(1, 10**4))
def test_station_throughput_is_the_per_station_quotient(bits, duration_ms):
    result = _result_with_samples(float(duration_ms))
    b = result.boundary
    marks = tuple(m for _, m in bits)
    result = result._replace(station_bits=tuple(w + m for w, m in bits),
                             boundary=b._replace(station_bits=marks))
    interval_ns = result.duration_ns - b.at_ns
    expected = tuple((total - mark) / interval_ns * 1000.0
                     for total, mark in zip(result.station_bits, marks))
    got = station_throughput_mbps(result)
    assert type(got) is tuple
    assert got == expected
    assert repr(got) == repr(expected)


def test_sample_stats_is_plain_data():
    s = SampleStats(mean_ms=1.0, max_ms=2.0, count=3, p95_ms=1.5)
    assert s.p95_ms == 1.5
    assert simcore.WARMUP_FRACTION == 0.10
    assert simcore is not None
