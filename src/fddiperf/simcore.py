"""Discrete-event simulator of the timed-token ring MAC.

A single token circulates a fixed ring of stations. On each token arrival a
station updates its rotation clock (time since the token last arrived),
computes its holding budget as TTRT minus that rotation time, transmits
queued frames back to back while the budget lasts, and forwards the token.
With asynchronous overflow enabled (the default) the frame in progress when
the budget expires is completed; with it disabled, a frame is started only
if it fits in the remaining budget.

Time is integer nanoseconds throughout, so runs are bit-for-bit
reproducible across platforms and the busy/overhead/idle time accounting
closes exactly. At 100 Mbps one byte is exactly 80 ns on the wire.

The model is event driven: token visits, frame completions and burst
arrivals, taken in time order; at one instant the bursts come first, so
the token event at t sees every burst at or before t. The loop computes
that order without putting any event on a queue. A run's bursts are drawn
ahead of it, up to its end, in time order (`Arrivals`), and the token's
next event is compared against the earliest burst not yet taken in. A
source's stream depends only on the seed and its station, so the runs of
one workload, ring size, seed and run length, at every TTRT, can read one
draw:

- Stations without a traffic source never transmit, so the token leaps
  from one sourced station to the next in a single step.
- Each stop's rotation clock is kept as a lap-clock key: its last arrival
  less its offset P[k] in an idle rotation. Along passes that hold nothing
  the lap clock c = t - P[k] is constant; it grows by the holding time at
  a capture and by the idle period at each wrap, and a pass sets the stop's
  key to c. So once lap 0 has visited every stop, the keys are
  non-decreasing in ring order from the token, and across a stretch of
  passes with no capture the rotations never grow (the cycle argument of
  Sevcik & Johnson, 1987). In lap 0 every stop last saw the token at
  t = 0, so a stop's rotation is its arrival time and grows along the lap:
  on a saturated ring a stop that cannot use the token leaves every later
  stop of the lap unable to use it.
- A stretch of passes with no capture is one closed-form step on a
  saturated ring and on an idle bursty ring. Bisection over the keys finds
  the next usable stop (none on an idle ring, nor in lap 0 once one stop
  could not use the token), and bisection over the offsets the first pass
  at or after the next burst, the warm-up mark or the end. After lap 0 the
  stretch's first rotation is its largest and the rotations of 2 x TTRT or
  more are a prefix of it; in lap 0, which ends a stretch at its wrap, the
  last is the largest and they are a suffix. Each capture and the passes
  of a busy bursty ring go through an inline loop, a few integer updates
  per pass. A saturated ring keeps its keys as runs of stops that share
  one key, so a stretch, a read and the run's end cost O(runs); a bursty
  ring's busy passes read and set one key each, in a plain list. A ring's
  layout (its hops, idle-rotation offsets and walk time) is worked out once
  per ring and cached, the rest of the set-up in whole-list operations,
  so a run's Python work grows with its captures, not with its stations.
- A holding period is one step. A ring is saturated or bursty as a whole.
  On a saturated ring every sourced station is always backlogged and sends
  ceil(THT / F) frames with overflow, floor(THT / F) without; on a bursty
  ring a stop's queue is a window onto its frames in the arrivals, and its
  queued frames are sent in a plain loop over it. As in FDDI, the token is
  released right behind the last frame, so the frames of a holding fill
  it: it sent 8 bits per NS_PER_BYTE of its length.
- Bursts are brought in, in time order, just before the first token event
  at or after them, so every station decision sees the queues the
  event-by-event order would show it: the token event at t sees every
  burst at or before t.
- The measured window is (mark, end]: the warm-up snapshot and the run's
  end are the ring's counters at an instant after its events there.
- Outside a holding the ring is in overhead while a frame waits (always,
  on a saturated ring) and idle otherwise, so a burst into an idle ring
  ends an idle segment and a capture always ends an overhead segment. The
  run keeps only per-stop bits: its totals of bits and frames are worked
  out from them, or from the response samples, at the end.
- Per sent frame a bursty run keeps one fact, its response time, 8 bytes
  in its stop's array, which has a slot for each of the stop's drawn
  frames until the run's end drops those never sent: a stop sends its
  frames in the order they arrived, so the frame's arrival is read from
  the draw; an access episode is two ints in one array. `RunResult.response_samples` and `access_samples` are
  views that pair them; a saturated run keeps no frame times.
- The draw and the samples are typed arrays, built from lists once: times
  in ns as unsigned 64-bit ints, frame sizes in two bytes, about 14 bytes
  per drawn WIC frame in all. The bursts are put in time order by sorting
  one int key per burst, time x stops + stop, decoded by C-level maps.

`check_draw` and `check_captures` refuse a run too large to simulate: a
bursty draw of too many frames, or a saturated run of too many captures.

A RunResult carries the workload it simulated. A bursty run that the TTRT
never bound (no holding cut short, every token usable) is also the run of
that workload at any higher TTRT; `reuse_at` hands it out for one without
simulating again.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, is_not, mod, mul, neg, sub
from types import SimpleNamespace

from .analytical import (
    DEFAULT_DURATION_MS,
    NS_PER_MS,
    NS_PER_US,
    PROPAGATION_US_PER_KM,
    STATION_DELAY_US,
    TOKEN_TIME_US,
    RingSaturatedError,
    check_finite,
    frame_time_ms,
    heavy_load,
    record,
)
from .samples import AccessEpisodes, ResponseSamples
from .workload import WIC_MEAN_FRAME_BYTES, SaturationWorkload

NS_PER_BYTE = 80  # 8 bits at 100 Mbps

# The typecode of the arrays of instants and times in ns, none below 0: an
# unsigned 64-bit long, which array converts from an int at C speed, where
# the platform has one; else "q", which it converts through argument parsing.
NS = "L" if array("L").itemsize == 8 else "q"

# The most frames a run's bursts may hold, drawn ahead of it: at about 14
# bytes each and a peak of 27 while drawn, some 0.27 GB. fig3's 90 % load
# draws about 46,000 over 1000 ms.
MAX_DRAWN_FRAMES = 10_000_000

# The most token captures a saturated run may be expected to make: at 4-9 us
# each, a minute or so of simulation and 160 MB of access episodes.
MAX_CAPTURES = 10_000_000

# The share of each run discarded as warm-up.
WARMUP_FRACTION = 0.10


class InvariantViolation(RuntimeError):
    """A protocol invariant (token conservation, rotation bound, exact time
    accounting) failed during a run."""


@record("segment_delays_us ttrt_ms", token_time_us=TOKEN_TIME_US, async_overflow=True)
class RingConfig:
    """Ring layout and MAC parameters.

    segment_delays_us is a tuple: entry i is the propagation delay in us of
    the hop leaving station i (the last entry wraps back to station 0), so
    the ring has one station per entry. Every station adds the standard
    repeat delay STATION_DELAY_US. token_time_us is charged at every hop;
    set it to 0 to compare against the closed-form model, which ignores
    token transmission time. Any finite TTRT above 0 is simulated, in the
    standard's T_min..T_max window or not: the window is the CLI's to check.
    """

    def _check(self) -> None:
        segs = self.segment_delays_us
        if not isinstance(segs, tuple):  # the ring's layout is cached by them
            raise TypeError(f"segment_delays_us must be a tuple, got {type(segs).__name__}")
        # a hop that is NaN or infinite makes their sum so: one pass checks all
        check_finite(ttrt_ms=self.ttrt_ms, token_time_us=self.token_time_us,
                     segment_delays_us=sum(segs))
        if not segs:
            raise ValueError("a ring needs at least one station")
        if min(segs) < 0:
            raise ValueError("segment delays must be >= 0")
        if self.token_time_us < 0:
            raise ValueError("token_time_us must be >= 0")
        if self.ttrt_ms <= 0:
            raise ValueError(f"ttrt_ms must be > 0, got {self.ttrt_ms}")

    @classmethod
    def uniform(
        cls,
        n_stations: int,
        fiber_km: float,
        ttrt_ms: float,
        *,
        token_time_us: float = TOKEN_TIME_US,
        async_overflow: bool = True,
    ) -> "RingConfig":
        """Evenly spaced stations on the given fiber length.

        The split is done in whole nanoseconds with the remainder spread
        over the first segments, so the total propagation delay is exact.
        """
        if n_stations < 1:
            raise ValueError("n_stations must be >= 1")
        check_finite(fiber_km=fiber_km)
        if fiber_km < 0:
            raise ValueError("fiber_km must be >= 0")
        total_ns = _whole_ns(fiber_km * PROPAGATION_US_PER_KM * NS_PER_US, "fiber_km", fiber_km)
        base, extra = divmod(total_ns, n_stations)
        seg_us = ((base + 1) / NS_PER_US,) * extra + (base / NS_PER_US,) * (n_stations - extra)
        return cls(seg_us, ttrt_ms, token_time_us, async_overflow)

    @property
    def n_stations(self) -> int:
        return len(self.segment_delays_us)

    @property
    def walk_ns(self) -> int:
        """The walk time: one idle rotation in the whole ns `run` simulates,
        each hop its propagation, the repeat delay and the token time. With
        token_time_us 0 it is `analytical.ring_latency`'s D, each hop rounded
        to a whole ns."""
        return _ring_layout(self)[2]


@record("at_ns completed_bits busy_ns station_bits")
class RunSnapshot:
    """The ring's cumulative counters at instant at_ns, after its events
    there: at the warm-up mark, the start of the measured window (at_ns, end]."""


class RunResult(SimpleNamespace):
    """Raw samples and exact time accounting from one run.

    completed bits are attributed to the completion instant, and
    completed_bits is the sum of station_bits, here and in the boundary
    snapshot; busy/overhead/idle nanoseconds partition the simulated time
    exactly. response_samples is a read-only view of the (arrival,
    completion) pairs of the frames sent, in completion order, that keeps
    8 bytes per frame (`ResponseSamples`). access_samples is a read-only view
    of the (episode start, token capture) pairs, in capture order, that keeps
    16 bytes per episode (`AccessEpisodes`); one episode opens per
    empty-to-nonempty queue transition or token release with work left, and
    closes at the next usable capture.

    Unlike the package's other records it is a mutable namespace, built
    from keywords, that can be held by weak reference: the tests hold runs
    that way to show that a sweep keeps none it no longer needs.
    """

    config: RingConfig
    duration_ns: int
    seed: int
    completed_bits: int
    completed_frames: int
    station_bits: tuple[int, ...]
    response_samples: ResponseSamples
    access_samples: AccessEpisodes
    rotation_count: int
    max_rotation_ns: int
    trt_violations: int
    trt_bound_enforced: bool
    busy_ns: int
    overhead_ns: int
    idle_ns: int
    boundary: RunSnapshot
    sourced_stations: tuple[int, ...]
    # holdings that released the token with frames still queued
    budget_cuts: int
    # the longest rotation the run's end left open: the run's length past
    # the stop that has waited longest for the token
    open_rotation_ns: int
    # the longest access wait the run's end left open: the run's length past
    # the earliest episode start of a stop that waits and does not hold
    open_access_ns: int
    # the traffic simulated, None on an idle ring
    workload: object

    def _replace(self, **changes) -> "RunResult":
        return RunResult(**{**vars(self), **changes})

    @property
    def max_rotation_ms(self) -> float:
        return self.max_rotation_ns / NS_PER_MS


def _whole_ns(ns: float, name: str, value: float) -> int:
    try:
        return int(round(ns))
    except OverflowError:  # the input `name`, given as value, makes ns infinite
        raise ValueError(f"{name} {value!r} overflows whole nanoseconds") from None


def _ns_from_us(us: float, name: str = "us") -> int:
    return _whole_ns(us * NS_PER_US, name, us)


def _ns_from_ms(ms: float, name: str = "ms") -> int:
    return _whole_ns(ms * NS_PER_MS, name, ms)


@lru_cache(maxsize=8)  # a sweep simulates one ring at a time
def _layout(segment_delays_us: tuple[float, ...], token_time_us: float) -> tuple:
    """A ring's hops (repeat delay and token time in) and stations' offsets in
    an idle rotation, in the whole nanoseconds `run` simulates and as tuples
    no run can change; then that rotation, the walk time."""
    hop_ns = map(round, map(mul, segment_delays_us, repeat(NS_PER_US)))
    repeat_ns = _ns_from_us(STATION_DELAY_US) + _ns_from_us(token_time_us, "token_time_us")
    hops = tuple(map(add, hop_ns, repeat(repeat_ns)))
    *offsets, period = accumulate(hops, initial=0)
    return hops, tuple(offsets), period


_last_layout: list = [None, None, None]  # the ring last looked up: hops, token time, layout


def _ring_layout(config: RingConfig) -> tuple:
    """`_layout` of the config's ring. The ring last looked up is known by
    its hop tuple's identity, which its configs at other TTRTs share, so a
    second look (a run's summary after the run) hashes none of its hops."""
    segs, token_time_us = config.segment_delays_us, config.token_time_us
    last = _last_layout
    if last[0] is not segs or last[1] != token_time_us:
        last[:] = segs, token_time_us, _layout(segs, token_time_us)
    return last[2]


def _rotation_error(trt: int, station: int, ttrt_ns: int) -> InvariantViolation:
    return InvariantViolation(
        f"rotation of {trt} ns at station {station} reached twice the "
        f"TTRT ({ttrt_ns} ns) despite a rule-2-compliant setup"
    )


def _snapshot(x: int, bits: list[int], busy_ns: int, holding: int, hold_start: int,
              frame_start: int, frame_ns: int, stops: list[int], n: int) -> RunSnapshot:
    """The ring's counters at instant x, after its events at x: `bits` per
    stop and `busy_ns` of the released holdings, plus the frames that stop
    `holding` (-1: none) completed by x since hold_start: one per frame_ns if
    saturated, else (frame_ns 0) those before its frame since frame_start."""
    bits = list(bits)
    if holding >= 0:
        sent = (x - hold_start) // frame_ns * frame_ns if frame_ns else frame_start - hold_start
        bits[holding] += sent * 8 // NS_PER_BYTE
        busy_ns += x - hold_start
    by_station = bits if len(stops) == n else map(dict(zip(stops, bits)).get, range(n), repeat(0))
    return RunSnapshot(x, sum(bits), busy_ns, tuple(by_station))


class _LapClocks:
    """A saturated ring's lap-clock keys as runs: keys[r] is the key of stops
    starts[r] to starts[r + 1] - 1. The stops from `reached` on, which lap 0
    has not passed, keep their key of -offset[j] without a run."""

    __slots__ = ("offset", "starts", "keys", "reached")

    def __init__(self, offset: list[int]):
        self.offset, self.starts, self.keys, self.reached = offset, [], [], 0

    def __getitem__(self, j: int) -> int:
        if j >= self.reached:
            return -self.offset[j]
        return self.keys[bisect_right(self.starts, j) - 1]

    def __setitem__(self, j: int, c: int) -> None:
        self.fill(j, j + 1, c)

    def fill(self, lo: int, hi: int, c: int) -> None:
        """Set the keys of stops lo to hi - 1 to c; lo is at most `reached`."""
        if lo >= hi:
            return
        starts, keys = self.starts, self.keys
        a = bisect_left(starts, lo)
        b = bisect_left(starts, hi)
        if hi >= self.reached:
            self.reached = hi
        elif b == len(starts) or starts[b] != hi:
            starts.insert(b, hi)  # stop hi keeps the key of the run it was in
            keys.insert(b, keys[b - 1])
        starts[a:b] = (lo,)
        keys[a:b] = (c,)

    def first_above(self, x: int, lo: int, hi: int) -> int:
        """bisect_right(key, x, lo, hi) over keys that do not decrease from
        stop lo to stop hi - 1, all of them past lap 0."""
        starts = self.starts
        b = bisect_left(starts, hi)  # the runs from the one holding lo to b - 1 cover them
        r = bisect_right(self.keys, x, bisect_right(starts, lo) - 1, b)
        return hi if r == b else max(starts[r], lo)

    def earliest(self) -> int:
        """The least key + offset: the earliest of the stops' last arrivals."""
        if self.reached < len(self.offset):
            return 0  # a stop lap 0 has not reached last saw the token at t = 0
        return min(map(add, self.keys, map(self.offset.__getitem__, self.starts)))


def _leading_passes(above, nst: int, k: int, c: int, period: int, bound: int, cap: int) -> int:
    """How many of the first `cap` passes from stop k at lap clock c, with
    no capture, measure a rotation of at least `bound`; above(x, lo, hi) is
    bisect_right(key, x, lo, hi) over the nst stops' keys. The keys after
    lap 0 ascend from stop k to the last stop and from stop 0 to stop k - 1,
    so the rotations never grow along the passes and those passes lead them:
    the stops from k on at clock c, the stops before k one period later,
    then every stop once per period with a rotation of exactly one period."""
    i = above(c - bound, k, nst)
    if i < nst:
        return min(i - k, cap)
    i = above(c + period - bound, 0, k)
    if i < k or period < bound:
        return min(nst - k + i, cap)
    return cap


def _trt_enforced(config: RingConfig, workload) -> bool:
    """Whether the TTRT covers the ring's walk time, one more token time and
    one maximum-size frame of the workload, so that every rotation must stay
    below 2 x TTRT."""
    max_frame_ns = (workload.max_frame_bytes if workload is not None else 0) * NS_PER_BYTE
    return (_ns_from_ms(config.ttrt_ms)
            >= config.walk_ns + _ns_from_us(config.token_time_us) + max_frame_ns)


def _starved(config: RingConfig, frame_bytes: int) -> bool:
    """Whether no token after lap 0 can start a frame of frame_bytes: with
    overflow off, when the walk time leaves less than its frame time of the
    TTRT."""
    return not config.async_overflow and (
        config.walk_ns + frame_bytes * NS_PER_BYTE > _ns_from_ms(config.ttrt_ms))


def certified(result: RunResult) -> bool:
    """Whether the TTRT never bound the run: see reuse_at."""
    workload = result.workload
    if workload is None or isinstance(workload, SaturationWorkload):
        return False
    if result.budget_cuts:
        return False
    t1 = _ns_from_ms(result.config.ttrt_ms)
    if result.config.async_overflow:
        return result.max_rotation_ns < t1
    return result.max_rotation_ns + workload.max_frame_bytes * NS_PER_BYTE <= t1


def reuse_at(result: RunResult, config: RingConfig, workload) -> RunResult | None:
    """The run of `workload` on `config` without simulating it, when the TTRT
    provably cannot change it; else None. `result` must be a run of the same
    seed and run length; None when `workload` is not the run's own, or
    `config` is other than its config with only ttrt_ms changed, to a value
    no lower than before.

    The run at T1 = result's TTRT is certified when its ring is bursty, no
    holding released the token with frames still queued (budget_cuts == 0),
    and every token arrival was usable: every rotation stayed below T1 with
    overflow on, or left room for one maximum-size frame with it off (so
    none reached 2 x T1). Then the run at T2 >= T1 follows the
    same events (the cycle arguments of Sevcik & Johnson, 1987), by
    induction over them:

    - the token holding time at each arrival grows by T2 - T1, so a usable
      token stays usable;
    - a holding that ended with its queue empty still does, and one that
      went on to its next frame still can, so no holding is cut;
    - the rotation times are therefore the same, and none reaches 2 x T2.

    Only config and trt_bound_enforced differ. The samples are shared with
    `result`, not copied.
    """
    old = result.config
    if config.ttrt_ms < old.ttrt_ms or config != old._replace(ttrt_ms=config.ttrt_ms):
        return None
    if workload != result.workload or not certified(result):
        return None
    return result._replace(config=config, trt_bound_enforced=_trt_enforced(config, workload))


def _duration_ns(duration_ms: float) -> int:
    check_finite(duration_ms=duration_ms)
    duration_ns = _ns_from_ms(duration_ms, "duration_ms")
    if duration_ms < 1e-6:  # one nanosecond, the floor of a WIC gap too
        raise ValueError(f"duration_ms must be at least 1e-06 (one nanosecond), got {duration_ms}")
    return duration_ns


def check_draw(workload, n_stations: int, duration_ms: float) -> None:
    """Refuse bursty traffic whose draw up to the run's end would hold more
    than MAX_DRAWN_FRAMES frames; a saturated ring draws none, and a script
    offers no load to judge it by."""
    offered = workload.total_offered_load_mbps(n_stations)
    if offered is not None and not isinstance(workload, SaturationWorkload):
        frames = offered * 1000.0 * duration_ms / (8 * WIC_MEAN_FRAME_BYTES)
        if frames > MAX_DRAWN_FRAMES:
            raise ValueError(f"a draw of about {frames:.3g} frames ({offered:.3g} Mbps "
                             f"offered for {duration_ms} ms) exceeds the "
                             f"{MAX_DRAWN_FRAMES} frames a run may draw")


def check_captures(config: RingConfig, workload, duration_ms: float) -> None:
    """The saturated twin of check_draw: refuse a saturated ring expected to
    capture the token more than MAX_CAPTURES times up to the run's end, each
    capture one step of `run`. The expectation is the overflow model's on the
    ring's walk time, as the access bound takes it: efficiency x duration /
    (k x F). A ring saturated by latency, or starved of usable tokens with
    overflow off, makes no captures after lap 0."""
    if not isinstance(workload, SaturationWorkload) or _starved(config, workload.frame_bytes):
        return
    f_ms = frame_time_ms(workload.frame_bytes)
    stations = workload.stations
    n_active = config.n_stations if stations is None else len(set(stations))
    try:  # the overflow model's kernel, on inputs RingConfig has checked
        efficiency, _, k = heavy_load(n_active, config.ttrt_ms, config.walk_ns / NS_PER_MS, f_ms)
    except RingSaturatedError:
        return
    captures = efficiency * duration_ms / (k * f_ms)
    if captures > MAX_CAPTURES:
        raise ValueError(f"a saturated run of about {captures:.3g} token captures "
                         f"({duration_ms} ms at TTRT {config.ttrt_ms} ms) exceeds the "
                         f"{MAX_CAPTURES} captures a run may make")


class Arrivals:
    """The traffic of every run of `key` = (workload, n_stations, seed,
    duration_ms), at any TTRT, drawn up to the run's end; no run changes it.

    The token stops only at `stops`, the sourced stations in ring order
    (station 0 on a ring without any), and per-stop lists are indexed by a
    stop's position k in it. A saturated ring's stops always have a frame of
    `sat` bytes. On a bursty ring (`sat` 0) burst b comes at times[b] to
    stop burst_stop[b] with burst_frames[b] frames, in time order; a burst
    of no frames changes nothing and is not kept. Stop k's frames arrive at
    frame_at[k], a burst's frames at its time, and have frame_bytes[k]
    bytes. All are typed arrays: 8 bytes per time and 2 per frame size."""

    __slots__ = ("key", "stops", "sat", "times", "burst_stop", "burst_frames", "frame_at",
                 "frame_bytes", "__weakref__")

    def __init__(self, workload, n_stations: int, seed: int = 0,
                 duration_ms: float = DEFAULT_DURATION_MS):
        n = n_stations
        duration_ns = _duration_ns(duration_ms)
        self.key = (workload, n_stations, seed, duration_ms)
        sources = list(workload.bind(n, seed)) if workload is not None else [None] * n
        if len(sources) != n:
            raise ValueError(f"workload bound {len(sources)} stations, ring has {n}")
        # all() passes a ring that sources every station without comparing with None
        stops = (range(n) if all(sources)
                 else list(compress(range(n), map(is_not, sources, repeat(None)))))
        self.sat = workload.frame_bytes if stops and isinstance(workload, SaturationWorkload) else 0
        feeds = [] if self.sat else list(map(sources.__getitem__, stops))
        self.stops = stops or [0]
        if feeds:
            check_draw(workload, n, duration_ms)
        stop_times, counts = [], []  # each stop's burst times and frames per burst
        self.frame_bytes = []
        for k, feed in enumerate(feeds):
            times, frames, sizes_k = [], [], []
            next_burst = feed.next_burst
            burst = next_burst(0)
            while burst is not None:
                at, sizes = burst
                if at > duration_ns:
                    break
                if sizes:
                    times.append(at)
                    frames.append(len(sizes))
                    sizes_k += sizes
                burst = next_burst(at)
            stop_times.append(array(NS, times))
            counts.append(frames)
            self.frame_bytes.append(array("H", sizes_k))
        # a burst's key is time * nst + stop, one for a stop's bursts at one
        # time; made after the draw, their ints, freed below, pin no memory
        # that it keeps
        nst, keys = len(feeds), []
        for k, times in enumerate(stop_times):
            keys += map(add, map(mul, times, repeat(nst)), repeat(k))
        keys.sort()
        self.times = array(NS, map(floordiv, keys, repeat(nst)))
        self.burst_stop = array("I", map(mod, keys, repeat(nst)))
        del keys  # before the frames' arrivals, the largest column, are spread
        self.burst_frames = _burst_frames(counts, self.burst_stop)
        self.frame_at = list(map(_each_frame, stop_times, counts))


def _each_frame(times: array, frames: list[int]) -> array:
    """The arrival of each frame of bursts at `times` of `frames` frames: a
    burst's time once per frame. Bursts of one size, as WIC's are, are
    spread by slice assignment at C speed: through `repeat` alone, fig3's
    draws took 15-22 % longer."""
    size = frames[0] if frames else 0
    if frames.count(size) < len(frames):
        return array(NS, chain.from_iterable(map(repeat, times, frames)))
    at = array(NS, [0]) * (size * len(times))
    for i in range(size):
        at[i::size] = times
    return at


def _burst_frames(counts: list[list[int]], stops: array) -> array:
    """The frames of each burst of the stops in `stops`, each stop's bursts
    in order, from each stop's `counts`; bursts of one size, as WIC's are,
    at C speed: through `next` alone, fig3's draws read up to 18 % slower."""
    sizes = set(chain.from_iterable(counts))
    if len(sizes) == 1:
        return array("I", sizes) * len(stops)
    return array("I", map(next, map(list(map(iter, counts)).__getitem__, stops)))


def run(
    config: RingConfig,
    workload=None,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    warmup_fraction: float = WARMUP_FRACTION,
    *,
    arrivals: Arrivals | None = None,
) -> RunResult:
    """Simulate from t=0 (token injected at station 0, all rotation clocks
    zeroed) to t=duration. Deterministic given (config, workload, seed).

    The rotation-time bound (every rotation < 2 x TTRT) is enforced as a
    hard error whenever the configured TTRT covers the ring's walk time, one
    more token time and one maximum-size frame of the attached workload;
    outside that regime violations are only counted.

    `arrivals`, the Arrivals of (workload, n_stations, seed, duration_ms),
    are drawn for the run when not given.
    """
    n = config.n_stations
    ttrt_ns = _ns_from_ms(config.ttrt_ms, "ttrt_ms")
    two_ttrt = 2 * ttrt_ns
    duration_ns = _duration_ns(duration_ms)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    overflow = config.async_overflow
    hops, pre, period = _ring_layout(config)

    if arrivals is None:
        arrivals = Arrivals(workload, n, seed, duration_ms)
    elif arrivals.key != (workload, n, seed, duration_ms):
        raise ValueError("arrivals drawn for another workload, ring size, seed or run length")
    # per-stop state is indexed by position k in `stops`
    stops, sat = arrivals.stops, arrivals.sat
    if sat:
        check_captures(config, workload, duration_ms)
    times, burst_stop, burst_frames = arrivals.times, arrivals.burst_stop, arrivals.burst_frames
    frame_at, frame_bytes = arrivals.frame_at, arrivals.frame_bytes
    nst = len(stops)
    # offset[k]: stop k's offset from stop 0 in an idle rotation; leap[k]:
    # the token's travel time from stop k to the next
    if nst == n:
        offset, leap = pre, hops
    else:
        offset = list(map(sub, map(pre.__getitem__, stops), repeat(pre[stops[0]])))
        leap = list(map(sub, [*offset[1:], period], offset))

    trt_enforced = _trt_enforced(config, workload)
    frame_ns = sat * NS_PER_BYTE  # a saturated stop's frame time
    # a saturated stop can use the token while its rotation is below gap
    gap = ttrt_ns if overflow else ttrt_ns - frame_ns + 1

    mark_ns = int(duration_ns * warmup_fraction)
    if mark_ns >= duration_ns:
        raise ValueError("warm-up must end before the run does")
    boundary = None

    # Bursts from `arrivals` are taken in from times[b] = next_at on, and
    # next_at is end_ns once all are: no burst is past the end.
    end_ns = duration_ns + 1
    b = 0
    n_bursts = len(times)
    next_at = times[0] if n_bursts else end_ns

    # Rotation clocks as lap-clock keys: key[k] is stop k's last arrival
    # less offset[k]; before lap 0 every stop last saw the token at t = 0.
    if sat:
        key = _LapClocks(offset)
        fill, above = key.fill, key.first_above
    else:
        key = list(map(neg, offset))
        above = partial(bisect_right, key)

        def fill(lo: int, hi: int, c: int) -> None:
            key[lo:hi] = [c] * (hi - lo)
    # Stop k's queue is its queued[k] frames from head[k] on in frame_at[k]
    # and frame_bytes[k], the one in flight while it holds the token among
    # them. A saturated stop always has one: the token reads its size from sat.
    head = [0] * nst
    queued = [1 if sat else 0] * nst
    # stop k's open access episode began at want_since[k]; where none is open it
    # holds duration_ns, so the run's end finds the oldest by a plain min.
    # Saturated stops want the token from t=0.
    want_since = [0 if sat else duration_ns] * nst
    nonempty = 0

    bits = [0] * nst
    # stop k's frame h has its response time at done[k][h], cut at the run's
    # end to the frames sent (see ResponseSamples)
    done = [array(NS, [0]) * len(f) for f in frame_bytes]
    episodes = array("q")  # see AccessEpisodes
    rotation_count = 0
    max_rotation = 0
    trt_violations = 0
    budget_cuts = 0

    busy_total = 0
    idle_total = 0
    overhead_total = 0
    holding = -1
    hold_start = 0
    hold_end = 0  # where the holding budget runs out
    seg_start = 0  # where the ring's idle or overhead segment began

    # The token's next event is a visit to stop k at t or, while stop k
    # holds, the completion of its frame(s) at t; that frame started at
    # frame_start.
    k = 0
    t = pre[stops[0]]
    frame_start = 0
    limit = 0  # first instant at which the slow path below must run

    while True:
        if t >= limit:
            # the token event at t sees every burst at or before t
            while next_at <= t and b < n_bursts:
                kb = burst_stop[b]
                if not queued[kb]:
                    if holding < 0 and not nonempty:  # the ring's idle segment ends
                        idle_total += next_at - seg_start
                        seg_start = next_at
                    nonempty += 1
                    want_since[kb] = next_at  # a holder's queue holds its frame in flight
                queued[kb] += burst_frames[b]
                b += 1
                next_at = times[b] if b < n_bursts else end_ns
            if boundary is None and t > mark_ns:  # the events at the mark are all in
                boundary = _snapshot(mark_ns, bits, busy_total, holding, hold_start,
                                     frame_start, frame_ns, stops, n)
            if t > duration_ns:
                break
            limit = next_at
            if boundary is None and mark_ns < limit:
                limit = mark_ns + 1

        if holding < 0:
            c = t - offset[k]
            if sat or not nonempty:
                # A stretch of passes with no capture, in closed form: it ends
                # before the first usable pass (none on an idle ring), at the
                # first pass at or after the limit, or with lap 0.
                laps, rest = divmod(limit - c, period)
                n_pass = laps * nst + bisect_left(offset, rest) - k
                lap0 = rotation_count < nst
                if lap0:
                    # every stop from k on still has its key -offset[j], so its
                    # rotation is its arrival c + offset[j]: they ascend, and
                    # if stop k cannot use the token, no later stop of the lap can
                    n_pass = 0 if sat and t < gap else min(n_pass, nst - k)
                elif sat:
                    n_pass = _leading_passes(above, nst, k, c, period, gap, n_pass)
                if n_pass:
                    last = k + n_pass - 1 if lap0 else k
                    trt = c - key[last]  # the stretch's largest rotation
                    if trt > max_rotation:
                        max_rotation = trt
                    if trt >= two_ttrt:
                        # rotations of 2 x TTRT or more end lap 0 and lead a later stretch
                        v = bisect_left(offset, two_ttrt - c, k, last) if lap0 else k
                        if trt_enforced:
                            raise _rotation_error(c - key[v], stops[v], ttrt_ns)
                        trt_violations += (last + 1 - v if lap0 else _leading_passes(
                            above, nst, k, c, period, two_ttrt, n_pass))
                    rotation_count += n_pass
                    # the token stops at i after `laps` wraps; each stop
                    # passed keeps the lap clock of its last pass
                    laps, i = divmod(k + n_pass, nst)
                    if laps:
                        c += laps * period
                        fill(0, i, c)
                        fill(max(i, k) if laps == 1 else i, nst, c - period)
                    else:
                        fill(k, i, c)
                    k = i
                    t = c + offset[k]
                    if t >= limit or lap0:
                        continue  # past lap 0, the next stretch starts at the wrap
            while True:
                trt = c - key[k]
                key[k] = c
                rotation_count += 1
                if trt > max_rotation:
                    max_rotation = trt
                if trt >= two_ttrt:
                    trt_violations += 1
                    if trt_enforced:
                        raise _rotation_error(trt, stops[k], ttrt_ns)
                if queued[k]:
                    tht = ttrt_ns - trt
                    if tht > 0 and (
                            overflow or (sat or frame_bytes[k][head[k]]) * NS_PER_BYTE <= tht):
                        episodes.append(want_since[k])
                        episodes.append(t)
                        want_since[k] = duration_ns
                        overhead_total += t - seg_start
                        holding = k
                        hold_start = t
                        hold_end = t + tht
                        if sat:
                            t += (-(-tht // frame_ns) if overflow else tht // frame_ns) * frame_ns
                        else:
                            frame_start = t
                            t += frame_bytes[k][head[k]] * NS_PER_BYTE
                        break
                t += leap[k]
                k += 1
                if k == nst:
                    k = 0
                    c += period
                if t >= limit:
                    break
            continue

        # stop k holds the token; its frame(s) complete at t
        if not sat:
            q_at, q_bytes, delays = frame_at[k], frame_bytes[k], done[k]
            h = head[k]  # the frame at h completes at t
            end = h + queued[k]
            while True:
                delays[h] = t - q_at[h]
                h += 1
                more = h != end and (
                    t < hold_end if overflow else t + q_bytes[h] * NS_PER_BYTE <= hold_end)
                if not more:
                    break
                frame_start = t
                t += q_bytes[h] * NS_PER_BYTE
                if t >= limit:
                    break
            head[k], queued[k] = h, end - h
            if more:
                continue  # a frame is in flight past the limit
            if h != end:
                budget_cuts += 1
            else:
                nonempty -= 1
        # the holding sent its frames back to back: 8 bits per NS_PER_BYTE
        bits[k] += (t - hold_start) * 8 // NS_PER_BYTE
        busy_total += t - hold_start
        holding = -1
        if queued[k]:
            want_since[k] = t
        seg_start = t
        t += leap[k]
        k += 1
        if k == nst:
            k = 0

    end = _snapshot(duration_ns, bits, busy_total, holding, hold_start, frame_start, frame_ns,
                    stops, n)
    if holding < 0:  # the run ends in an overhead or idle segment
        if sat or nonempty:
            overhead_total += duration_ns - seg_start
        else:
            idle_total += duration_ns - seg_start

    if sat:
        # every released holding leaves a saturated station backlogged
        budget_cuts = len(episodes) // 2 - (holding >= 0)
    if end.busy_ns + idle_total + overhead_total != duration_ns:
        raise InvariantViolation(
            f"time accounting leaked: busy {end.busy_ns} + idle {idle_total} + "
            f"overhead {overhead_total} != duration {duration_ns}"
        )

    for delays, sent in zip(done, head):
        del delays[sent:]
    response_samples = ResponseSamples(arrivals, done)
    return RunResult(
        config=config,
        duration_ns=duration_ns,
        seed=seed,
        completed_bits=end.completed_bits,
        completed_frames=end.completed_bits // (sat * 8) if sat else len(response_samples),
        station_bits=end.station_bits,
        response_samples=response_samples,
        access_samples=AccessEpisodes(episodes),
        rotation_count=rotation_count,
        max_rotation_ns=max_rotation,
        trt_violations=trt_violations,
        trt_bound_enforced=trt_enforced,
        busy_ns=end.busy_ns,
        overhead_ns=overhead_total,
        idle_ns=idle_total,
        boundary=boundary,
        sourced_stations=tuple(stops),
        budget_cuts=budget_cuts,
        open_rotation_ns=duration_ns - (key.earliest() if sat else min(map(add, key, offset))),
        open_access_ns=duration_ns - min(want_since),
        workload=workload,
    )
