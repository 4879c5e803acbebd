"""Workload generator tests: closed-form load arithmetic, the empirical
distribution of a long stream of draws, determinism, and the scripted
source used for hand traces."""

from __future__ import annotations

import math
import random
import re

import pytest

from fddiperf.workload import (
    DEFAULT_BURST_SIZE,
    DEFAULT_LARGE_FRAME_BYTES,
    DEFAULT_SMALL_FRACTION,
    DEFAULT_SMALL_FRAME_BYTES,
    WIC_MEAN_FRAME_BYTES,
    SaturationWorkload,
    ScriptedWorkload,
    WicWorkload,
)

NS_PER_MS = 1_000_000


def test_mean_frame_size():
    # 0.65 * 100 + 0.35 * 512 = 244.2 bytes
    assert WIC_MEAN_FRAME_BYTES == pytest.approx(244.2, abs=1e-9)


def test_offered_load_at_measured_gap():
    # 5 frames * 244.2 B * 8 b/B / 8 ms = 1221 bit/ms = 1.221 Mbps
    w = WicWorkload(mean_interburst_ms=8.0)
    assert w.offered_load_mbps() == pytest.approx(1.221, abs=1e-9)
    # forty such stations sit near half the line rate
    assert 48.8 <= w.total_offered_load_mbps(40) <= 50.0


def test_offered_load_limits():
    w = WicWorkload(mean_interburst_ms=1e9)
    assert w.offered_load_mbps() == pytest.approx(0.0, abs=1e-6)


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
        small += sum(1 for s in sizes if s == DEFAULT_SMALL_FRAME_BYTES)
        total += len(sizes)
    mean_gap_ms = now / draws / NS_PER_MS
    assert mean_gap_ms == pytest.approx(8.0, rel=0.01)
    assert small / total == pytest.approx(0.65, rel=0.01)
    # long-run arrival rate matches the closed form
    bits = total / draws * WIC_MEAN_FRAME_BYTES * 8  # expected shape only
    empirical_mbps = (
        small * DEFAULT_SMALL_FRAME_BYTES + (total - small) * DEFAULT_LARGE_FRAME_BYTES
    ) * 8 / (now / NS_PER_MS) / 1000.0
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
    # a gap under one nanosecond rounds to none, and no draw would pass the run's end
    with pytest.raises(ValueError, match=r"^mean_interburst_ms must be at least 1e-06 \(one "
                       r"nanosecond\), got 1e-300$"):
        WicWorkload(mean_interburst_ms=1e-300)
    assert WicWorkload(mean_interburst_ms=1e-6).mean_interburst_ms == 1e-6
    with pytest.raises(ValueError, match=r"utilization must be in \(0, 1\), got 1.0"):
        WicWorkload.for_utilization(1.0, 4)
    with pytest.raises(ValueError, match="n_stations must be >= 1, got 0"):
        WicWorkload.for_utilization(0.5, 0)


@pytest.mark.parametrize("make", [
    lambda stations: SaturationWorkload(512, stations=stations),
    lambda stations: WicWorkload(5.0, stations=stations),
    lambda stations: WicWorkload.for_utilization(0.4, 10, stations=stations),
], ids=["saturation", "wic", "wic-for-utilization"])
def test_an_empty_station_set_is_refused(make):
    # None binds every station; a set must name at least one
    with pytest.raises(ValueError, match="at least one station") as refused:
        make(())
    assert len(str(refused.value).splitlines()) == 1
    assert make(None).bind(3, seed=0).count(None) == 0
    assert make((1,)).bind(3, seed=0).count(None) == 2


def test_saturation_workload():
    w = SaturationWorkload(frame_bytes=512, stations=(0, 2))
    feeds = w.bind(3, seed=0)
    assert feeds[0] is not None
    assert feeds[1] is None
    assert w.total_offered_load_mbps(3) == math.inf
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


@pytest.mark.parametrize("script,message", [
    ({0: [(-0.001, [100])]}, "burst times must be finite and at least 0 ms, got -0.001"),
    ({0: [(math.nan, [100])]}, "burst times must be finite and at least 0 ms, got nan"),
    ({0: [(math.inf, [100])]}, "burst times must be finite and at least 0 ms, got inf"),
    ({0: [(1.0, [100, 65536])]}, "frame sizes must be whole bytes from 0 to 65535, got 65536"),
    ({0: [(1.0, [-1])]}, "frame sizes must be whole bytes from 0 to 65535, got -1"),
    ({0: [(1.0, [100.0])]}, "frame sizes must be whole bytes from 0 to 65535, got 100.0"),
])
def test_scripted_workload_holds_what_a_draw_can(script, message):
    # a draw keeps each time as an unsigned count of ns and each frame size
    # in 16 bits; what they cannot hold is refused when the script is built
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScriptedWorkload(script)
    assert ScriptedWorkload({0: [(0.0, [0, 65535])]}).max_frame_bytes == 65535


# At a mean gap of 3e12 ms one ulp of a gap is over 100 ns, so a gap that is
# off by one rounding step shows in the whole-nanosecond burst times.
@pytest.mark.parametrize("seed,mean_ms", [(0, 8.0), (7, 0.9), (23, 0.00071), (301, 1234.5),
                                          (5, 3.0e12)])
def test_bursts_are_the_draws_of_expovariate(seed, mean_ms):
    # the burst stream as drawn with random.expovariate and a comprehension:
    # the inline gap formula must give the same floats from the same draws
    rng = random.Random(f"{seed}/3")
    gen = WicWorkload(mean_interburst_ms=mean_ms).bind(4, seed)[3]
    now = 0
    for _ in range(2000):
        gap_ms = rng.expovariate(1.0 / mean_ms)
        sizes = [
            DEFAULT_SMALL_FRAME_BYTES if rng.random() < DEFAULT_SMALL_FRACTION
            else DEFAULT_LARGE_FRAME_BYTES
            for _ in range(DEFAULT_BURST_SIZE)
        ]
        expected = (now + int(round(gap_ms * NS_PER_MS)), sizes)
        assert gen.next_burst(now) == expected
        now = expected[0]
