"""Property tests of the simulator on random rings: 0-200 km of fiber split
into even or uneven hops, TTRT 4-165 ms, overflow on and off, token time 0
or the standard 0.88 us, with saturated station subsets on 1-1000 stations
or bursty WIC traffic on 1-30. Every run must account for its time
exactly, credit every bit to a sourced station, keep each rotation below
2 x TTRT (the timed-token bound of Sevcik & Johnson, 1987), and keep every
access delay below the closed-form bound. A saturated ring with overflow
must also match the overflow model within (2D + 2F) / W: one latency D at
each edge of the measured window W and one frame F credited at each edge.
On saturated and bursty rings alike, windows shorter than one frame among
them, a window's efficiency stays at most 1 + F / W, F the workload's
largest frame: only the frame in flight at the mark counts bits sent before
it.

A saturated run must also be the run of a pass-by-pass reference walk, on
rings whose TTRT reaches below the ring latency, both over tens of
rotations and over runs short enough that lap 0, in which every stop last
saw the token at t = 0, meets the warm-up mark or the end, in every field
the walk keeps, its warm-up boundary among them: the frames completed at or
before the mark. The walk also gives the frozen digest of every saturated
and idle case of `test_simcore_digests.py`. The run-length
lap-clock keys of a saturated ring must answer as a plain list of keys does
under random fills and single sets, from lap 0 on.

Runs that read one draw of arrivals across a grid of TTRTs must each
equal the run that draws its own. The TTRT-binding certificate is checked
the same way: whenever `simcore.reuse_at` stands a bursty run at T1 in for
a higher T2, the run at T2 must equal it in every field, its report with
the fields of the TTRT recomputed must equal the rerun's, and a saturated
run is never certified.

A bursty run's response samples, on random WIC rings and on scripted bursts
on a 1 us grid (many empty or tied), must come in strictly increasing
completion order, one per completed frame, each stop's the prefix of its
frames in the draw that its bits give; and the report's response
statistics must be those of the pairs they give, with the warm-up mark on a
burst's instant. A run's access episodes, on random WIC and saturated rings
with the warm-up mark on a capture, must read as the list of (start,
capture) pairs they stand for, and the report's access statistics must be
those of that list.

A bursty run must also be the run of an event-by-event reference simulator,
which shares no code with `simcore.run`, in every field its digest covers:
on scripted rings on a 1 us grid with many zero gaps and empty bursts, and
on small WIC rings, overflow on and off, with the warm-up mark on the
instant of a token event or a burst, whose events are all counted before
the boundary. The reference also gives the frozen
digest of every scripted case of `test_simcore_digests.py`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import accumulate, chain, count
from operator import add, le, lt

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddiperf import metrics
from fddiperf.analytical import (
    MAX_FRAME_BYTES,
    MAX_MAC_COUNT,
    PROPAGATION_US_PER_KM,
    STATION_DELAY_US,
    TOKEN_TIME_US,
    T_MIN_MS,
    RingParameters,
    RingSaturatedError,
    frame_time_ms,
    overflow_model,
)
from fddiperf.metrics import SampleStats, summarize
from fddiperf.samples import AccessEpisodes
from fddiperf.simcore import (
    NS_PER_BYTE, NS_PER_MS, NS_PER_US, WARMUP_FRACTION, Arrivals, RingConfig, RunSnapshot,
    _LapClocks, certified, reuse_at, run)
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload
from test_simcore_digests import CORPUS, DIGEST_FIELDS, DIGESTS, digest, digest_fields

RANDOM_RINGS = settings(derandomize=True, deadline=None, max_examples=75)
SAMPLED_RUNS = settings(derandomize=True, deadline=None, max_examples=40)


LEGAL_TTRT_MS = st.floats(T_MIN_MS, 165.0)
# down to 1/64 ms on a log scale, far below the latency of a large ring
ANY_TTRT_MS = LEGAL_TTRT_MS | st.floats(-6.0, 2.0).map(lambda x: 2.0 ** x)


@st.composite
def rings(draw, min_sourced: int, max_stations: int, ttrt=LEGAL_TTRT_MS):
    """A ring and the sorted stations that carry traffic on it. The fiber is
    split evenly, or unevenly by a short pattern of hop weights repeated
    round the ring, so that large rings stay cheap to draw."""
    n = draw(st.integers(1, max_stations))
    fiber_km = draw(st.floats(0.0, 200.0))
    ttrt_ms = draw(ttrt)
    mac = dict(token_time_us=draw(st.sampled_from([0.0, TOKEN_TIME_US])),
               async_overflow=draw(st.booleans()))
    weights = draw(st.none() | st.lists(st.integers(0, 100), min_size=1, max_size=8))
    if weights is None:
        config = RingConfig.uniform(n, fiber_km, ttrt_ms, **mac)
    else:
        hops = [weights[i % len(weights)] for i in range(n)]
        scale = fiber_km * PROPAGATION_US_PER_KM / sum(hops) if any(hops) else 0.0
        config = RingConfig(tuple(h * scale for h in hops), ttrt_ms, **mac)
    stations = draw(st.sets(st.integers(0, n - 1), min_size=min_sourced))
    return config, tuple(sorted(stations))


def _check_run(result, stations):
    assert result.busy_ns + result.idle_ns + result.overhead_ns == result.duration_ns
    assert sum(result.station_bits) == result.completed_bits
    assert all(bits == 0 for i, bits in enumerate(result.station_bits) if i not in stations)
    if result.trt_bound_enforced:
        assert result.max_rotation_ns < 2 * result.config.ttrt_ms * NS_PER_MS
    report = summarize(result)
    assert not report.access_bound_exceeded
    return report


def _stops(config, stations):
    """The stops the token visits (station 0 alone on an idle ring), the
    first one's arrival from t = 0, the token's travel time from each stop
    to the next, one idle rotation and the TTRT, in the whole nanoseconds
    `simcore.run` charges."""
    fixed = round(STATION_DELAY_US * NS_PER_US) + round(config.token_time_us * NS_PER_US)
    hop = [fixed + round(d * NS_PER_US) for d in config.segment_delays_us]
    start = [0, *accumulate(hop)]
    stops = list(stations) or [0]
    at = [start[i] for i in stops]
    leap = [b - a for a, b in zip(at, at[1:] + [at[0] + start[-1]])]
    return stops, at[0], leap, start[-1], round(config.ttrt_ms * NS_PER_MS)


def _walk(config, frame_bytes, stations, duration_ns, warmup_fraction=WARMUP_FRACTION):
    """A saturated ring's run, one token pass per loop iteration, as
    `simcore.run` walked it before it took a stretch of unusable passes in
    closed form. Without stations the ring is idle and the token passes
    station 0 only. The boundary counts, of each holding, the frames that
    complete at or before the warm-up mark and its busy time up to it. A
    stop waits for the token from its last release (from t = 0 before its
    first), and not while it holds."""
    stops, first, leap, _, ttrt = _stops(config, stations)
    frame_ns = frame_bytes * NS_PER_BYTE
    mark = int(duration_ns * warmup_fraction)
    last = [0] * len(stops)
    want = [0] * len(stops)
    bits = [0] * config.n_stations
    marked = [0] * config.n_stations  # bits completed by the mark
    marked_busy = 0
    out = dict(rotation_count=0, max_rotation_ns=0, trt_violations=0, access_samples=[],
               completed_frames=0, busy_ns=0)
    t, k = first, 0
    while t <= duration_ns:
        trt = t - last[k]
        last[k] = t
        out["rotation_count"] += 1
        out["max_rotation_ns"] = max(out["max_rotation_ns"], trt)
        out["trt_violations"] += trt >= 2 * ttrt
        tht = ttrt - trt
        if stations and tht > 0 and (config.async_overflow or frame_ns <= tht):
            out["access_samples"].append((want[k], t))
            frames = -(-tht // frame_ns) if config.async_overflow else tht // frame_ns
            end = t + frames * frame_ns
            if end > duration_ns:  # still holding when the run ends
                frames, end = (duration_ns - t) // frame_ns, duration_ns
            bits[stops[k]] += frames * frame_bytes * 8
            out["completed_frames"] += frames
            out["busy_ns"] += end - t
            if t <= mark:
                marked[stops[k]] += min(frames, (mark - t) // frame_ns) * frame_bytes * 8
                marked_busy += min(end, mark) - t
            want[k] = t = end
        t += leap[k]
        k = (k + 1) % len(stops)
    out["station_bits"] = tuple(bits)
    out["boundary"] = RunSnapshot(mark, sum(marked), marked_busy, tuple(marked))
    out["open_rotation_ns"] = duration_ns - min(last)
    out["open_access_ns"] = duration_ns - min(want) if stations else 0
    rest = duration_ns - out["busy_ns"]
    out["overhead_ns"], out["idle_ns"] = (rest, 0) if stations else (0, rest)
    return out


def _walked(config, workload, duration_ms, seed=0, warmup_fraction=WARMUP_FRACTION):
    """The fields of `run_digest`, by name, of a saturated or idle ring's run
    (workload None), from `_walk`."""
    duration_ns = round(duration_ms * NS_PER_MS)
    bound = workload.bind(config.n_stations, seed) if workload is not None else []
    stations = [i for i, frame_bytes in enumerate(bound) if frame_bytes]
    frame_bytes = workload.frame_bytes if workload is not None else 0
    stops, _, _, period, ttrt = _stops(config, stations)
    walk = _walk(config, frame_bytes, stations, duration_ns, warmup_fraction)
    token_ns = round(config.token_time_us * NS_PER_US)
    enforced = ttrt >= period + token_ns + frame_bytes * NS_PER_BYTE
    fields = dict(
        walk, duration_ns=duration_ns, seed=seed, completed_bits=sum(walk["station_bits"]),
        response_samples=[], trt_bound_enforced=enforced, boundary=tuple(walk["boundary"]),
        sourced_stations=tuple(stops))
    return {name: fields[name] for name in DIGEST_FIELDS}


def _reference(config, workload, duration_ms, seed=0, warmup_fraction=WARMUP_FRACTION):
    """A bursty ring's run, event by event: one heap of token arrivals, frame
    completions and bursts, taken by time and, at one instant, bursts first,
    so a token event sees every burst at or before it. The token is at one
    stop per event, with no stretches and no lap clocks; each source's next
    burst is drawn as its last one comes; the ring's busy, overhead and idle
    time is added up segment by segment between events. The warm-up
    snapshot is taken after the events at the mark. Returns the fields of
    `run_digest`, by name."""
    duration_ns = round(duration_ms * NS_PER_MS)
    mark = int(duration_ns * warmup_fraction)
    feeds = workload.bind(config.n_stations, seed)
    stations = [i for i, feed in enumerate(feeds) if feed is not None]
    stops, first, leap, period, ttrt = _stops(config, stations)
    nst = len(stops)
    overflow = config.async_overflow

    events, order = [], count()

    def schedule(t, kind, k, sizes=()):
        if t <= duration_ns:  # by time, and at one instant bursts first
            heappush(events, (t, kind != "burst", next(order), kind, k, sizes))

    def burst_after(k, now):
        burst = feeds[stops[k]].next_burst(now)
        if burst is not None:
            schedule(burst[0], "burst", k, burst[1])

    for k in range(nst):
        burst_after(k, 0)
    schedule(first, "visit", 0)

    queue = [deque() for _ in stops]  # (arrival, bytes), the frame in flight first
    want = [None] * nst
    last = [0] * nst  # every stop last saw the token at t = 0
    bits = [0] * config.n_stations
    time = dict(busy_ns=0, overhead_ns=0, idle_ns=0)
    out = dict(response_samples=[], access_samples=[], rotation_count=0, max_rotation_ns=0,
               trt_violations=0)
    holding, hold_end, boundary, now = None, 0, None, 0

    def ring_state():
        return "busy_ns" if holding is not None else "overhead_ns" if any(queue) else "idle_ns"

    def snapshot():
        busy = time["busy_ns"] + (mark - now if holding is not None else 0)
        return mark, sum(bits), busy, tuple(bits)

    while events:
        t, _, _, kind, k, sizes = heappop(events)
        if boundary is None and t > mark:
            boundary = snapshot()
        time[ring_state()] += t - now
        now = t
        q = queue[k]
        if kind == "burst":
            if sizes and not q:
                want[k] = t
            q.extend((t, size) for size in sizes)
            burst_after(k, t)
        elif kind == "visit":
            trt = t - last[k]
            last[k] = t
            out["rotation_count"] += 1
            out["max_rotation_ns"] = max(out["max_rotation_ns"], trt)
            out["trt_violations"] += trt >= 2 * ttrt
            tht = ttrt - trt
            if q and tht > 0 and (overflow or q[0][1] * NS_PER_BYTE <= tht):
                out["access_samples"].append((want[k], t))
                holding, hold_end = k, t + tht
                schedule(t + q[0][1] * NS_PER_BYTE, "done", k)
            else:
                schedule(t + leap[k], "visit", (k + 1) % nst)
        else:  # the frame in flight completes
            arrival, size = q.popleft()
            out["response_samples"].append((arrival, t))
            bits[stops[k]] += size * 8
            if q and (t < hold_end if overflow else t + q[0][1] * NS_PER_BYTE <= hold_end):
                schedule(t + q[0][1] * NS_PER_BYTE, "done", k)
            else:
                holding = None
                want[k] = t if q else None
                schedule(t + leap[k], "visit", (k + 1) % nst)
    if boundary is None:
        boundary = snapshot()
    time[ring_state()] += duration_ns - now

    token_ns = round(config.token_time_us * NS_PER_US)
    enforced = ttrt >= period + token_ns + workload.max_frame_bytes * NS_PER_BYTE
    fields = dict(
        duration_ns=duration_ns, seed=seed, completed_bits=sum(bits),
        completed_frames=len(out["response_samples"]), station_bits=tuple(bits), **out,
        trt_bound_enforced=enforced, **time, boundary=boundary, sourced_stations=tuple(stations))
    return {name: fields[name] for name in DIGEST_FIELDS}


def _event_instants(fields, duration_ns):
    """Instants of a run's token events and bursts before its end: its
    captures, its frames' arrivals and completions."""
    return sorted({t for pair in fields["access_samples"] + fields["response_samples"]
                   for t in pair if 0 <= t < duration_ns}) or [0]


@RANDOM_RINGS
@given(rings(min_sourced=0, max_stations=MAX_MAC_COUNT, ttrt=ANY_TTRT_MS),
       st.integers(1, MAX_FRAME_BYTES), st.integers(10, 40))
# The warm-up mark splits a lap of unusable passes before its wrap, so the
# next usable stop lies past the wrap but ahead of the token's index.
@example((RingConfig.uniform(10, 55.0, 5.0, token_time_us=0.0, async_overflow=False),
          tuple(range(10))), 3225, 20)
# The largest ring at TTRT 8 ms, every station sourced and a scattered subset:
# after each holding one stretch passes a whole lap across the wrap.
@example((RingConfig.uniform(1000, 200.0, 8.0), tuple(range(1000))), 100, 10)
@example((RingConfig.uniform(1000, 200.0, 8.0), tuple(range(3, 1000, 7))), 100, 10)
def test_saturated_random_rings(ring, frame_bytes, rotations):
    config, stations = ring
    load = SaturationWorkload(frame_bytes, stations) if stations else None  # None: idle
    d_ms = config.walk_ns / NS_PER_MS
    # below the ring latency, run for as many idle rotations instead
    result = run(config, load, duration_ms=rotations * max(config.ttrt_ms, d_ms), seed=0)
    walk = _walk(config, frame_bytes, stations, result.duration_ns)
    assert {name: getattr(result, name) for name in walk} == walk
    report = _check_run(result, stations)
    assert not certified(result)
    assert reuse_at(result, config._replace(ttrt_ms=config.ttrt_ms + 1.0), load) is None
    if not (config.async_overflow and stations):
        return
    f_ms = frame_time_ms(frame_bytes)
    try:
        model = overflow_model(RingParameters(len(stations), config.ttrt_ms, d_ms, f_ms))
    except RingSaturatedError:
        return
    tolerance = (2 * d_ms + 2 * f_ms) / report.measured_interval_ms
    assert abs(report.efficiency - model.efficiency) <= tolerance


@RANDOM_RINGS
@given(rings(min_sourced=0, max_stations=MAX_MAC_COUNT, ttrt=ANY_TTRT_MS),
       st.integers(1, MAX_FRAME_BYTES), st.floats(0.02, 4.0), st.booleans())
# The largest ring at TTRT 8 ms: the run ends half an idle rotation after
# station 0's holding, inside lap 0, and the mark falls in that holding.
@example((RingConfig.uniform(1000, 200.0, 8.0), tuple(range(1000))), 100, 0.5, True)
# Stops 1 us apart at TTRT 2 us: station 0 holds 2 us, and in lap 0 the
# token reaches station 2 exactly at 2 x TTRT, a counted violation.
@example((RingConfig.uniform(10, 0.0, 0.002, token_time_us=0.0),
          tuple(range(10))), 1, 1.0, True)
def test_saturated_short_runs(ring, frame_bytes, rotations, after_holding):
    # from a fiftieth of an idle rotation to four, counted from t = 0 or
    # from about the end of the first stop's holding of up to one TTRT
    config, stations = ring
    load = SaturationWorkload(frame_bytes, stations) if stations else None  # None: idle
    d_ms = config.walk_ns / NS_PER_MS
    duration_ms = rotations * d_ms + (config.ttrt_ms if after_holding else 0.0)
    result = run(config, load, duration_ms=duration_ms, seed=0)
    walk = _walk(config, frame_bytes, stations, result.duration_ns)
    assert {name: getattr(result, name) for name in walk} == walk
    _check_run(result, stations)


@RANDOM_RINGS
@given(st.lists(st.integers(1, 50), max_size=11),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12), st.integers(0, 50)),
                max_size=40))
def test_lap_clock_runs_match_a_plain_list(gaps, steps):
    # stops at strictly ascending offsets; each step sets the keys of stops
    # lo to hi - 1 (one stop: a single set) to a lap clock that never falls,
    # from a stop that lap 0 has reached, as a run's stretches and captures do
    offset = [0, *accumulate(gaps)]
    n = len(offset)
    plain = [-o for o in offset]
    runs = _LapClocks(offset)
    c = 0
    for lo, size, rise in steps:
        lo = min(lo, runs.reached, n - 1)
        hi = min(lo + size, n)
        c += rise
        if size == 1:
            runs[lo] = c
        else:
            runs.fill(lo, hi, c)
        plain[lo:hi] = [c] * (hi - lo)
        assert [runs[j] for j in range(n)] == plain
        assert runs.earliest() == min(map(add, plain, offset))
        # first_above on every longest range of keys past lap 0 that do not fall
        for a in range(runs.reached):
            b = a + 1
            while b < runs.reached and plain[b - 1] <= plain[b]:
                b += 1
            for x in {v + d for v in plain[a:b] for d in (-1, 0)}:
                assert runs.first_above(x, a, b) == bisect_right(plain, x, a, b)


@RANDOM_RINGS
@given(rings(min_sourced=1, max_stations=30), st.floats(0.05, 0.95), st.floats(5.0, 40.0),
       st.integers(0, 99))
def test_bursty_random_rings(ring, utilization, duration_ms, seed):
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    result = run(config, load, duration_ms=duration_ms, seed=seed)
    _check_run(result, stations)


@RANDOM_RINGS
@given(rings(min_sourced=1, max_stations=MAX_MAC_COUNT),
       st.none() | st.integers(1, MAX_FRAME_BYTES), st.floats(0.05, 0.99),
       st.floats(0.01, 6.0), st.floats(0.0, 0.999), st.integers(0, 99))
# `simulate --preset typical --ttrt 8 --duration-ms 5`: efficiency 1.00124
# over a 4.5 ms window, within 1 + 0.04096 / 4.5 for its 512-byte frames
@example((RingConfig.uniform(20, 4.0, 8.0), tuple(range(20))), 512, 0.5, 0.625, WARMUP_FRACTION,
         1)
def test_window_efficiency_is_at_most_one_frame_over_the_line_rate(ring, frame_bytes, utilization,
                                                                   ttrts, warmup, seed):
    # A frame's bits count at its completion, and one token means one frame
    # in flight: only the frame in flight at the mark can count bits sent
    # before it. So a window of W ns holds less than W + F ns of sending, F
    # the workload's largest frame, on saturated (frame_bytes) and bursty
    # (None) rings, over runs of up to six TTRTs, windows shorter than one
    # frame among them.
    config, stations = ring
    load = (WicWorkload.for_utilization(utilization, len(stations), stations=stations)
            if frame_bytes is None else SaturationWorkload(frame_bytes, stations))
    result = run(config, load, ttrts * config.ttrt_ms, seed, warmup)
    window_ns = result.duration_ns - result.boundary.at_ns
    frame_ns = load.max_frame_bytes * NS_PER_BYTE
    sent_ns = (result.completed_bits - result.boundary.completed_bits) * NS_PER_BYTE // 8
    assert sent_ns < window_ns + frame_ns
    assert summarize(result).efficiency <= 1 + frame_ns / window_ns


@RANDOM_RINGS
@given(rings(min_sourced=1, max_stations=30), st.floats(0.05, 0.99), st.floats(5.0, 20.0),
       st.integers(0, 99),
       st.lists(st.floats(-4.0, 5.3).map(lambda x: 2.0 ** x), min_size=2, max_size=5))
def test_runs_on_shared_arrivals_are_the_runs_that_draw_their_own(ring, utilization,
                                                                  duration_ms, seed, ttrts_ms):
    # one draw read by a run at each TTRT of a grid, from 1/16 to about 40 ms,
    # in the grid's order: no run changes what the next one reads, and each
    # equals the run that draws its own in every field
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    shared = Arrivals(load, config.n_stations, seed, duration_ms)
    for ttrt_ms in ttrts_ms:
        at = config._replace(ttrt_ms=ttrt_ms)
        own = run(at, load, duration_ms=duration_ms, seed=seed)
        assert run(at, load, duration_ms=duration_ms, seed=seed, arrivals=shared) == own


def _one_station(hop_us: float, overflow: bool):
    return RingConfig((hop_us,), T_MIN_MS, token_time_us=0.0, async_overflow=overflow), (0,)


@RANDOM_RINGS
@given(rings(min_sourced=1, max_stations=30), st.floats(0.05, 0.99), st.floats(5.0, 20.0),
       st.integers(0, 99), st.floats(-4.0, 5.3).map(lambda x: 2.0 ** x),
       st.floats(1.0, 4.0, exclude_min=True))
# Runs that each condition of the certificate alone rules out: a holding cut
# short while every rotation stays below T1, with overflow on and off, and a
# token too late to use with overflow on.
@example(_one_station(91.53, True), 0.5, 5.0, 2, 0.5, 2.0)
@example(_one_station(91.53, False), 0.5, 5.0, 0, 1.0, 2.0)
@example(_one_station(127.125, True), 0.5, 5.0, 0, 0.125, 2.0)
def test_certified_run_is_the_run_at_every_higher_ttrt(ring, utilization, duration_ms, seed,
                                                       t1_ms, factor):
    # T1 from 1/16 to about 40 ms on a log scale, so that about half the runs
    # are certified and the rest are bound by cut holdings or late tokens
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    low = config._replace(ttrt_ms=t1_ms)
    high = low._replace(ttrt_ms=t1_ms * factor)
    result = run(low, load, duration_ms=duration_ms, seed=seed)
    reused = reuse_at(result, high, load)
    assert (reused is not None) == certified(result)
    if reused is not None:
        rerun = run(high, load, duration_ms=duration_ms, seed=seed)
        assert rerun == reused
        # so does the report, once the fields of the TTRT are recomputed
        assert metrics.reuse_at(summarize(result), reused) == summarize(rerun)


def _warmup_at(mark_ns: int, duration_ns: int) -> float:
    """The warm-up fraction whose mark falls on mark_ns."""
    fraction = mark_ns / duration_ns
    while int(duration_ns * fraction) < mark_ns:
        fraction = math.nextafter(fraction, 1.0)
    assert int(duration_ns * fraction) == mark_ns
    return fraction


def _check_samples(result, arrivals) -> None:
    """A run's response samples against its draw and its bits, and the
    response statistics of its report against the pairs the samples give."""
    pairs = list(result.response_samples)
    assert len(result.response_samples) == len(pairs) == result.completed_frames
    completions = [c for _, c in pairs]
    assert all(map(lt, completions, completions[1:]))
    # each stop sent the prefix of its frames in the draw that its bits give
    sent = []
    for station, at, sizes in zip(arrivals.stops, arrivals.frame_at, arrivals.frame_bytes):
        count = list(accumulate(sizes, initial=0)).index(result.station_bits[station] / 8)
        sent += at[:count]
    assert sorted(sent) == sorted(a for a, _ in pairs)

    mark = result.boundary.at_ns
    delays = [c - a for a, c in pairs if a >= mark]
    expected = SampleStats(
        mean_ms=sum(delays) / len(delays) / NS_PER_MS, max_ms=max(delays) / NS_PER_MS,
        count=len(delays), p95_ms=sorted(delays)[math.ceil(0.95 * len(delays)) - 1] / NS_PER_MS,
    ) if delays else None
    report = summarize(result)
    assert report.response_time == expected
    assert report.warmup_frames_discarded == len(pairs) - len(delays)


@SAMPLED_RUNS
@given(rings(min_sourced=1, max_stations=30), st.floats(0.05, 0.99), st.floats(5.0, 20.0),
       st.integers(0, 99), st.integers(0, 2**16))
def test_response_samples_on_random_wic_rings(ring, utilization, duration_ms, seed, pick):
    # the warm-up mark on the instant of a burst the draw holds
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    arrivals = Arrivals(load, config.n_stations, seed, duration_ms)
    duration_ns = round(duration_ms * NS_PER_MS)
    instants = [t for t in arrivals.times if t < duration_ns] or [0]
    warmup = _warmup_at(instants[pick % len(instants)], duration_ns)
    result = run(config, load, duration_ms, seed, warmup, arrivals=arrivals)
    _check_samples(result, arrivals)


def _check_episodes(result) -> None:
    """A run's access episodes against the list of (start, capture) pairs
    they stand for, and the access statistics of its report against that
    list's waits from the warm-up mark on."""
    view = result.access_samples
    pairs = list(view)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs)
    assert len(view) == len(pairs)
    assert view == pairs and pairs == view
    assert view == AccessEpisodes(array("q", chain.from_iterable(pairs)))
    assert view != pairs + [(0, 0)]
    assert repr(view) == repr(pairs)
    assert [view[i] for i in range(-len(pairs), len(pairs))] == pairs + pairs
    assert view[1::2] == pairs[1::2]
    captures = [c for _, c in pairs]
    assert all(map(le, captures, captures[1:]))  # in the order of their captures
    assert all(start <= capture for start, capture in pairs)

    mark = result.boundary.at_ns
    waits = [capture - start for start, capture in pairs if start >= mark]
    expected = SampleStats(
        mean_ms=sum(waits) / len(waits) / NS_PER_MS, max_ms=max(waits) / NS_PER_MS,
        count=len(waits)) if waits else None
    report = summarize(result)
    assert report.access_delay == expected
    assert report.warmup_access_discarded == len(pairs) - len(waits)


@SAMPLED_RUNS
@given(rings(min_sourced=1, max_stations=30), st.booleans(), st.floats(0.05, 0.99),
       st.integers(1, MAX_FRAME_BYTES), st.integers(0, 99), st.integers(0, 2**16))
def test_access_episodes_on_random_rings(ring, bursty, utilization, frame_bytes, seed, pick):
    # the warm-up mark on the instant of a capture, so an episode opens there
    config, stations = ring
    if bursty:
        load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
        duration_ms = 10.0
    else:
        load = SaturationWorkload(frame_bytes, stations)
        duration_ms = 20 * config.ttrt_ms  # about one capture per TTRT
    duration_ns = round(duration_ms * NS_PER_MS)
    first = run(config, load, duration_ms, seed, 0.0)
    captures = [c for _, c in first.access_samples if c < duration_ns] or [0]
    warmup = _warmup_at(captures[pick % len(captures)], duration_ns)
    _check_episodes(run(config, load, duration_ms, seed, warmup))


@st.composite
def grid_scripts(draw):
    """1-4 stations with bursts on a 1 us grid, a quarter of the gaps zero and
    many bursts empty, on a ring whose hops take 1 us."""
    n = draw(st.integers(1, 4))
    bursts = st.tuples(st.sampled_from((0, 0, 1, 2, 3, 8, 16, 50)),
                       st.sampled_from(([], [25], [100], [100, 100], [512])))
    script = {}
    for station in range(n):
        pairs = draw(st.lists(bursts, max_size=40))
        instants = accumulate(gap for gap, _ in pairs)
        script[station] = [(us / 1000, frames) for us, (_, frames) in zip(instants, pairs)]
    config = RingConfig.uniform(n, 0.0, draw(st.sampled_from([0.02, 0.05, 4.0])),
                                token_time_us=0.0, async_overflow=draw(st.booleans()))
    return config, ScriptedWorkload(script)


@SAMPLED_RUNS
@given(grid_scripts(), st.integers(0, 2**16))
def test_response_samples_of_scripted_ties(scripted, pick):
    config, load = scripted
    duration_ms = 0.5
    arrivals = Arrivals(load, config.n_stations, 0, duration_ms)
    instants = arrivals.times or [0]
    warmup = _warmup_at(instants[pick % len(instants)], round(duration_ms * NS_PER_MS))
    _check_samples(run(config, load, duration_ms, 0, warmup, arrivals=arrivals), arrivals)


def _check_reference(config, load, duration_ms, seed, pick):
    """run against the reference, with the warm-up mark on the instant that
    `pick` chooses among those of the run's token events and bursts."""
    duration_ns = round(duration_ms * NS_PER_MS)
    instants = _event_instants(_reference(config, load, duration_ms, seed, 0.0), duration_ns)
    warmup = _warmup_at(instants[pick % len(instants)], duration_ns)
    expected = _reference(config, load, duration_ms, seed, warmup)
    assert digest_fields(run(config, load, duration_ms, seed, warmup)) == expected


@RANDOM_RINGS
@given(grid_scripts(), st.integers(0, 2**16))
# one station: a burst on the token's first visit, and one at the instant
# the frame before it completes
@example((RingConfig.uniform(1, 0.0, 4.0, token_time_us=0.0),
          ScriptedWorkload({0: [(0.0, [100]), (0.008, [100])]})), 1)
def test_reference_simulator_is_run_on_scripted_ties(scripted, pick):
    config, load = scripted
    _check_reference(config, load, 0.5, 0, pick)


@SAMPLED_RUNS
@given(rings(min_sourced=1, max_stations=6, ttrt=ANY_TTRT_MS), st.floats(0.05, 0.95),
       st.floats(1.0, 4.0), st.integers(0, 99), st.integers(0, 2**16))
def test_reference_simulator_is_run_on_wic_rings(ring, utilization, duration_ms, seed, pick):
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    _check_reference(config, load, duration_ms, seed, pick)


@pytest.mark.parametrize("name", sorted(name for name in CORPUS if "script" in name))
def test_reference_simulator_gives_the_scripted_digests(name):
    case = CORPUS[name]
    assert digest(_reference(*case.args, **case.keywords)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(
    name for name, case in CORPUS.items()
    if not isinstance(case.args[1], (WicWorkload, ScriptedWorkload))))
def test_walk_gives_the_saturated_and_idle_digests(name):
    case = CORPUS[name]
    assert digest(_walked(*case.args, **case.keywords)) == DIGESTS[name]
