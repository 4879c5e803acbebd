"""Workload generator tests: closed-form load arithmetic, the empirical
distribution of a long stream of draws, determinism, and the scripted
source used for hand traces."""

from __future__ import annotations

import math

import pytest

from fddiperf.workload import (
    SaturationWorkload,
    ScriptedWorkload,
    WicWorkload,
)

NS_PER_MS = 1_000_000


def test_mean_frame_size():
    w = WicWorkload(mean_interburst_ms=8.0)
    # 0.65 * 100 + 0.35 * 512 = 244.2 bytes
    assert w.mean_frame_bytes() == pytest.approx(244.2, abs=1e-9)


def test_offered_load_at_measured_gap():
    # 5 frames * 244.2 B * 8 b/B / 8 ms = 1221 bit/ms = 1.221 Mbps
    w = WicWorkload(mean_interburst_ms=8.0)
    assert w.offered_load_mbps() == pytest.approx(1.221, abs=1e-9)
    # forty such stations sit near half the line rate
    assert 48.8 <= w.total_offered_load_mbps(40) <= 50.0


def test_offered_load_limits():
    w = WicWorkload(mean_interburst_ms=1e9)
    assert w.offered_load_mbps() == pytest.approx(0.0, abs=1e-6)
    # degenerate mix: single size, burst of one
    w = WicWorkload(
        mean_interburst_ms=2.0, burst_size=1,
        small_frame_bytes=300, small_fraction=1.0,
    )
    assert w.offered_load_mbps() == pytest.approx(300 * 8 / 2.0 / 1000.0)


def test_load_scaling_is_exact():
    w1 = WicWorkload(mean_interburst_ms=8.0)
    w2 = WicWorkload(mean_interburst_ms=4.0)
    assert w2.offered_load_mbps() == 2.0 * w1.offered_load_mbps()


def test_for_utilization_round_trip():
    for util in (0.28, 0.58, 0.90):
        for n in (10, 40):
            w = WicWorkload.for_utilization(util, n)
            assert w.total_offered_load_mbps(n) == pytest.approx(util * 100.0, rel=1e-12)


def test_empirical_distribution():
    # 1e5 draws: the mean gap and the small-frame share both land within 1%
    w = WicWorkload(mean_interburst_ms=8.0)
    gen = w.bind(1, seed=42)[0]
    now = 0
    small = total = 0
    draws = 100_000
    for _ in range(draws):
        now, sizes = gen.next_burst(now)
        small += sum(1 for s in sizes if s == w.small_frame_bytes)
        total += len(sizes)
    mean_gap_ms = now / draws / NS_PER_MS
    assert mean_gap_ms == pytest.approx(8.0, rel=0.01)
    assert small / total == pytest.approx(0.65, rel=0.01)
    # long-run arrival rate matches the closed form
    bits = total / draws * w.mean_frame_bytes() * 8  # expected shape only
    empirical_mbps = (small * w.small_frame_bytes + (total - small) * w.large_frame_bytes) * 8 / (
        now / NS_PER_MS
    ) / 1000.0
    assert empirical_mbps == pytest.approx(w.offered_load_mbps(), rel=0.01)
    assert bits > 0


def test_generator_determinism():
    w = WicWorkload(mean_interburst_ms=3.0)

    def stream(seed):
        gen = w.bind(4, seed)[2]
        out = []
        now = 0
        for _ in range(500):
            now, sizes = gen.next_burst(now)
            out.append((now, tuple(sizes)))
        return out

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_stations_are_independent_streams():
    w = WicWorkload(mean_interburst_ms=3.0)
    feeds = w.bind(3, seed=1)
    bursts = [feed.next_burst(0) for feed in feeds]
    assert len({b[0] for b in bursts}) > 1


def test_bind_respects_station_subset():
    w = WicWorkload(mean_interburst_ms=3.0, stations=(1, 3))
    feeds = w.bind(5, seed=0)
    assert [f is not None for f in feeds] == [False, True, False, True, False]
    with pytest.raises(ValueError):
        WicWorkload(mean_interburst_ms=3.0, stations=(9,)).bind(5, seed=0)


def test_wic_validation():
    with pytest.raises(ValueError):
        WicWorkload(mean_interburst_ms=0.0)
    with pytest.raises(ValueError):
        WicWorkload(mean_interburst_ms=1.0, small_fraction=1.5)
    with pytest.raises(ValueError):
        WicWorkload(mean_interburst_ms=1.0, large_frame_bytes=5000)
    with pytest.raises(ValueError):
        WicWorkload(mean_interburst_ms=1.0, burst_size=0)


def test_saturation_workload():
    w = SaturationWorkload(frame_bytes=512, stations=(0, 2))
    feeds = w.bind(3, seed=0)
    assert feeds[0] is not None
    assert feeds[1] is None
    assert w.offered_load_mbps() == math.inf
    assert w.max_frame_bytes == 512
    with pytest.raises(ValueError):
        SaturationWorkload(frame_bytes=9000)


def test_scripted_workload_replays_in_order():
    w = ScriptedWorkload({1: [(2.0, [100, 512]), (1.0, [4500])]})
    assert w.max_frame_bytes == 4500
    gen = w.bind(2, seed=0)[1]
    first = gen.next_burst(0)
    second = gen.next_burst(first[0])
    assert first == (1 * NS_PER_MS, [4500])
    assert second == (2 * NS_PER_MS, [100, 512])
    assert gen.next_burst(second[0]) is None
