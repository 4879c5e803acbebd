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
arrivals, taken in the order of (time, order of scheduling). The loop
computes that order without putting token visits or frame completions on
a queue. Only pending bursts, one per traffic source, sit in a heap, and
the token's next event is compared against the earliest of them:

- Stations without a traffic source never transmit, so the token leaps
  from one sourced station to the next in a single step.
- A visit to a station with nothing to send is a few integer updates in
  an inline loop. While the whole ring is idle the token moves forward by
  whole rotations in one step: every pass then measures a rotation of
  exactly the ring's idle period, so the counters and each station's
  rotation clock follow in closed form up to the next burst.
- A holding period is one step. A ring is saturated or bursty as a whole.
  On a saturated ring every sourced station is always backlogged and sends
  ceil(THT / F) frames with overflow, floor(THT / F) without; on a bursty
  ring queued frames are sent in a plain loop over the queue. As in FDDI,
  the token is released right behind the last frame.
- Bursts are brought in, in time order, just before the first token event
  at or after them, so every station decision sees the queues the
  event-by-event order would show it. A burst landing at the same
  nanosecond as a token event goes first exactly when its own scheduling
  preceded that event's: the burst was drawn earlier than the token's
  previous event, or at the same instant and ahead of it. That ordering
  is kept per station, which reproduces the event-by-event tie order in
  full.
- The warm-up snapshot is taken arithmetically when the first event at or
  after the mark is reached; events exactly at the mark stay outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from heapq import heappush, heappop

from .analytical import (
    PROPAGATION_US_PER_KM,
    STATION_DELAY_US,
    T_MAX_COUNTER_MS,
    T_MIN_MS,
    TOKEN_TIME_US,
    check_finite,
)
from .workload import SaturationWorkload

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_BYTE = 80  # 8 bits at 100 Mbps

# Default run length, and the share of each run discarded as warm-up.
DEFAULT_DURATION_MS = 1000.0
WARMUP_FRACTION = 0.10

# Scheduling instants before t = 0: the token is injected ahead of every
# source's first burst.
_INJECTED = -2
_FIRST_DRAW = -1


class InvariantViolation(RuntimeError):
    """A protocol invariant (token conservation, rotation bound, exact time
    accounting) failed during a run."""


@dataclass(frozen=True)
class RingConfig:
    """Ring layout and MAC parameters.

    segment_delays_us[i] is the propagation delay of the hop leaving
    station i (the last entry wraps back to station 0), so the ring has one
    station per entry. Every station adds the standard repeat delay
    STATION_DELAY_US. token_time_us is charged at every hop; set it to 0 to
    compare against the closed-form model, which ignores token transmission
    time. allow_any_ttrt bypasses the T_min/T_max legality check for sweeps
    that probe the region near the ring latency.
    """

    segment_delays_us: tuple[float, ...]
    ttrt_ms: float
    token_time_us: float = TOKEN_TIME_US
    async_overflow: bool = True
    allow_any_ttrt: bool = False

    def __post_init__(self) -> None:
        check_finite(ttrt_ms=self.ttrt_ms, token_time_us=self.token_time_us)
        for d in self.segment_delays_us:
            check_finite(segment_delay_us=d)
        if not self.segment_delays_us:
            raise ValueError("a ring needs at least one station")
        if any(d < 0 for d in self.segment_delays_us):
            raise ValueError("segment delays must be >= 0")
        if self.token_time_us < 0:
            raise ValueError("token_time_us must be >= 0")
        if self.ttrt_ms <= 0:
            raise ValueError(f"ttrt_ms must be > 0, got {self.ttrt_ms}")
        if not self.allow_any_ttrt and not T_MIN_MS <= self.ttrt_ms <= T_MAX_COUNTER_MS:
            raise ValueError(
                f"ttrt_ms {self.ttrt_ms} outside [{T_MIN_MS}, {T_MAX_COUNTER_MS}]; "
                "set allow_any_ttrt=True to probe illegal values"
            )

    @classmethod
    def uniform(
        cls,
        n_stations: int,
        fiber_km: float,
        ttrt_ms: float,
        *,
        token_time_us: float = TOKEN_TIME_US,
        async_overflow: bool = True,
        allow_any_ttrt: bool = False,
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
        total_ns = int(round(fiber_km * PROPAGATION_US_PER_KM * NS_PER_US))
        base, extra = divmod(total_ns, n_stations)
        seg_us = tuple(
            (base + (1 if i < extra else 0)) / NS_PER_US for i in range(n_stations)
        )
        return cls(
            segment_delays_us=seg_us,
            ttrt_ms=ttrt_ms,
            token_time_us=token_time_us,
            async_overflow=async_overflow,
            allow_any_ttrt=allow_any_ttrt,
        )

    @property
    def n_stations(self) -> int:
        return len(self.segment_delays_us)

    @property
    def ring_latency_ms(self) -> float:
        """Propagation plus summed repeat delays (token time excluded)."""
        us = sum(self.segment_delays_us) + self.n_stations * STATION_DELAY_US
        return us / 1000.0


@dataclass(frozen=True)
class RunSnapshot:
    """Cumulative counters at the measurement boundary."""

    at_ns: int
    completed_bits: int
    busy_ns: int
    station_bits: tuple[int, ...]


@dataclass
class RunResult:
    """Raw samples and exact time accounting from one run.

    completed bits are attributed to the completion instant; busy/overhead/
    idle nanoseconds partition the simulated time exactly. Access-delay
    samples are (episode start, token capture) pairs; one episode opens per
    empty-to-nonempty queue transition or token release with work left, and
    closes at the next usable capture.
    """

    config: RingConfig
    duration_ns: int
    seed: int
    completed_bits: int
    completed_frames: int
    station_bits: tuple[int, ...]
    response_samples: list[tuple[int, int]]
    access_samples: list[tuple[int, int]]
    rotation_count: int
    max_rotation_ns: int
    trt_violations: int
    trt_bound_enforced: bool
    busy_ns: int
    overhead_ns: int
    idle_ns: int
    boundary: RunSnapshot
    sourced_stations: tuple[int, ...] = field(default=())

    @property
    def max_rotation_ms(self) -> float:
        return self.max_rotation_ns / NS_PER_MS


def _ns_from_us(us: float) -> int:
    return int(round(us * NS_PER_US))


def _ns_from_ms(ms: float) -> int:
    return int(round(ms * NS_PER_MS))


def _rotation_error(trt: int, station: int, ttrt_ns: int) -> InvariantViolation:
    return InvariantViolation(
        f"rotation of {trt} ns at station {station} reached twice the "
        f"TTRT ({ttrt_ns} ns) despite a rule-2-compliant setup"
    )


def _by_station(bits: list[int], stops: list[int], n: int) -> tuple[int, ...]:
    out = [0] * n
    for k, st in enumerate(stops):
        out[st] = bits[k]
    return tuple(out)


def run(
    config: RingConfig,
    workload=None,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    warmup_fraction: float = WARMUP_FRACTION,
) -> RunResult:
    """Simulate from t=0 (token injected at station 0, all rotation clocks
    zeroed) to t=duration. Deterministic given (config, workload, seed).

    The rotation-time bound (every rotation < 2 x TTRT) is enforced as a
    hard error whenever the configured TTRT covers the effective ring
    latency plus one maximum-size frame of the attached workload; outside
    that regime violations are only counted.
    """
    n = config.n_stations
    sd_ns = _ns_from_us(STATION_DELAY_US)
    tt_ns = _ns_from_us(config.token_time_us)
    seg_ns = [_ns_from_us(u) for u in config.segment_delays_us]
    ttrt_ns = _ns_from_ms(config.ttrt_ms)
    two_ttrt = 2 * ttrt_ns
    check_finite(duration_ms=duration_ms)
    duration_ns = _ns_from_ms(duration_ms)
    if duration_ns <= 0:
        raise ValueError(f"duration_ms must be > 0, got {duration_ms}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    overflow = config.async_overflow
    d_ns = sum(seg_ns) + n * sd_ns
    hop_ns = [sd_ns + tt_ns + s for s in seg_ns]
    period = sum(hop_ns)  # one idle rotation

    sources = list(workload.bind(n, seed)) if workload is not None else [None] * n
    if len(sources) != n:
        raise ValueError(f"workload bound {len(sources)} stations, ring has {n}")
    # The token only stops at sourced stations (station 0 on a ring without
    # any); per-stop state is indexed by position k in `stops`. A saturated
    # ring's stops always have a frame of sat bytes; a bursty ring's have feeds.
    stops = [i for i in range(n) if sources[i] is not None]
    sat = workload.frame_bytes if stops and isinstance(workload, SaturationWorkload) else 0
    feeds = [] if sat else [sources[st] for st in stops]
    stops = stops or [0]
    nst = len(stops)
    leap = [sum(hop_ns[a:b]) for a, b in zip(stops, stops[1:])]
    leap.append(sum(hop_ns[stops[-1]:]) + sum(hop_ns[:stops[0]]))
    if min(leap) <= 0:
        raise ValueError("the token must take time to travel between sourced stations")

    max_frame_ns = (workload.max_frame_bytes if workload is not None else 0) * NS_PER_BYTE
    trt_enforced = ttrt_ns >= d_ns + n * tt_ns + tt_ns + max_frame_ns

    mark_ns = int(duration_ns * warmup_fraction)
    if mark_ns >= duration_ns:
        raise ValueError("warm-up must end before the run does")
    boundary: RunSnapshot | None = None
    if mark_ns == 0:
        boundary = RunSnapshot(0, 0, 0, tuple(0 for _ in range(n)))

    # Pending bursts (time, stop, frame sizes), at most one per source;
    # drawn[k] is when stop k's pending burst was scheduled.
    pending: list[tuple[int, int, list[int]]] = []
    drawn = [_FIRST_DRAW] * nst
    for k, feed in enumerate(feeds):
        first = feed.next_burst(0)
        if first is not None:
            heappush(pending, (first[0], k, first[1]))
    # ahead[k]: stop k's last burst went ahead of a token event at its instant.
    ahead = [False] * nst

    last_arrival = [0] * nst
    queues: list[deque] = [deque() for _ in range(nst)]
    want_since = [0 if sat else -1] * nst  # saturated stops want the token from t=0
    nonempty = 0

    completed_bits = 0
    completed_frames = 0
    bits = [0] * nst
    response_samples: list[tuple[int, int]] = []
    access_samples: list[tuple[int, int]] = []
    rotation_count = 0
    max_rotation = 0
    trt_violations = 0

    busy_total = 0
    idle_total = 0
    overhead_total = 0
    holding = -1
    hold_start = 0
    hold_tht = 0
    sat_frames = 0
    cur_arrival = 0
    cur_size = 0
    seg_start = 0
    seg_idle = not sat

    # The token's next event is a visit to stop k at t or, while stop k
    # holds, the completion of its frame(s) at t. A burst due at t is ordered
    # against it by the token's previous event: the pass of stop k - 1 at
    # t - leap[k - 1], or parent_t, which is the injection or the release
    # before the visit at after_t, or the capture or previous completion.
    k = 0
    t = sum(hop_ns[:stops[0]])
    parent_t = _INJECTED
    after_t = t
    end_ns = duration_ns + 1
    limit = 0  # first instant at which the slow path below must run

    while True:
        if t >= limit:
            if holding < 0:
                parent = parent_t if t == after_t else t - leap[k - 1]
            else:
                parent = parent_t
            upto = min(t, duration_ns)
            held = None
            while pending and pending[0][0] <= upto:
                at, kb, sizes = heappop(pending)
                d = drawn[kb]
                first = at == t and (d < parent or (d == parent and ahead[kb]))
                ahead[kb] = first
                if at == t and kb == k and not first:
                    held = (at, kb, sizes)  # the token event at t goes first
                    continue
                q = queues[kb]
                if sizes:
                    if not q:
                        nonempty += 1
                        if holding != kb and want_since[kb] < 0:
                            want_since[kb] = at
                        if holding < 0 and seg_idle:
                            idle_total += at - seg_start
                            seg_start = at
                            seg_idle = False
                    for size in sizes:
                        q.append((at, size))
                nb = feeds[kb].next_burst(at)
                if nb is not None:
                    heappush(pending, (nb[0], kb, nb[1]))
                    drawn[kb] = at
            if held is not None:
                heappush(pending, held)
            if boundary is None and t >= mark_ns:
                snap_bits = completed_bits
                snap_busy = busy_total
                snap_station = list(bits)
                if holding >= 0:
                    snap_busy += mark_ns - hold_start
                    if sat:
                        sent = (mark_ns - hold_start - 1) // (sat * NS_PER_BYTE)
                        snap_bits += sent * sat * 8
                        snap_station[k] += sent * sat * 8
                boundary = RunSnapshot(
                    mark_ns, snap_bits, snap_busy, _by_station(snap_station, stops, n))
            if t > duration_ns:
                break
            limit = pending[0][0] if pending and pending[0][0] < end_ns else end_ns
            if boundary is None and mark_ns < limit:
                limit = mark_ns

        if holding < 0:
            if not sat and not nonempty and t + period <= limit:
                # Idle ring: every stop is passed once per period until the
                # limit, so its counters and rotation clock follow in closed
                # form; the token resumes at the first pass at or after it.
                tk = t
                kk = k
                t = limit + period
                repeats = 0
                for _ in range(nst):
                    passes = (limit - 1 - tk) // period + 1
                    trt = tk - last_arrival[kk]
                    if trt > max_rotation:
                        max_rotation = trt
                    if trt >= two_ttrt:
                        trt_violations += 1
                        if trt_enforced:
                            raise _rotation_error(trt, stops[kk], ttrt_ns)
                    last_arrival[kk] = tk + (passes - 1) * period
                    repeats += passes - 1
                    if tk + passes * period < t:
                        t = tk + passes * period
                        k = kk
                    tk += leap[kk]
                    kk += 1
                    if kk == nst:
                        kk = 0
                rotation_count += nst + repeats
                if repeats:
                    # an enforced bound implies period < TTRT, so these
                    # rotations can only be counted, never raised
                    if period > max_rotation:
                        max_rotation = period
                    if period >= two_ttrt:
                        trt_violations += repeats
                continue
            while True:
                trt = t - last_arrival[k]
                last_arrival[k] = t
                rotation_count += 1
                if trt > max_rotation:
                    max_rotation = trt
                if trt >= two_ttrt:
                    trt_violations += 1
                    if trt_enforced:
                        raise _rotation_error(trt, stops[k], ttrt_ns)
                q = queues[k]
                if sat or q:
                    tht = ttrt_ns - trt
                    if tht > 0 and (overflow or (sat or q[0][1]) * NS_PER_BYTE <= tht):
                        ws = want_since[k]
                        access_samples.append((ws if ws >= 0 else t, t))
                        want_since[k] = -1
                        if seg_idle:
                            idle_total += t - seg_start
                        else:
                            overhead_total += t - seg_start
                        holding = k
                        hold_start = t
                        hold_tht = tht
                        if sat:
                            frame_ns = sat * NS_PER_BYTE
                            sat_frames = -(-tht // frame_ns) if overflow else tht // frame_ns
                            t += sat_frames * frame_ns
                        else:
                            cur_arrival, cur_size = q.popleft()
                            if not q:
                                nonempty -= 1
                            parent_t = t
                            t += cur_size * NS_PER_BYTE
                        break
                t += leap[k]
                k += 1
                if k == nst:
                    k = 0
                if t >= limit:
                    break
            continue

        # stop k holds the token; its frame(s) complete at t
        q = queues[k]
        if sat:
            sent_bits = sat_frames * sat * 8
            completed_bits += sent_bits
            bits[k] += sent_bits
            completed_frames += sat_frames
        else:
            while True:
                completed_bits += cur_size * 8
                bits[k] += cur_size * 8
                completed_frames += 1
                response_samples.append((cur_arrival, t))
                more = q and (
                    t - hold_start < hold_tht if overflow
                    else t - hold_start + q[0][1] * NS_PER_BYTE <= hold_tht
                )
                if not more:
                    break
                cur_arrival, cur_size = q.popleft()
                if not q:
                    nonempty -= 1
                parent_t = t
                t += cur_size * NS_PER_BYTE
                if t >= limit:
                    break
            if more:
                continue  # a frame is in flight past the limit
        busy_total += t - hold_start
        holding = -1
        if sat or q:
            want_since[k] = t
        seg_start = t
        seg_idle = not nonempty and not sat
        parent_t = t
        t += leap[k]
        after_t = t
        k += 1
        if k == nst:
            k = 0

    if holding >= 0:
        if sat:
            sent = (duration_ns - hold_start) // (sat * NS_PER_BYTE)
            completed_bits += sent * sat * 8
            bits[holding] += sent * sat * 8
            completed_frames += sent
        busy_total += duration_ns - hold_start
    else:
        dt = duration_ns - seg_start
        if seg_idle:
            idle_total += dt
        else:
            overhead_total += dt

    if busy_total + idle_total + overhead_total != duration_ns:
        raise InvariantViolation(
            f"time accounting leaked: busy {busy_total} + idle {idle_total} + "
            f"overhead {overhead_total} != duration {duration_ns}"
        )

    return RunResult(
        config=config,
        duration_ns=duration_ns,
        seed=seed,
        completed_bits=completed_bits,
        completed_frames=completed_frames,
        station_bits=_by_station(bits, stops, n),
        response_samples=response_samples,
        access_samples=access_samples,
        rotation_count=rotation_count,
        max_rotation_ns=max_rotation,
        trt_violations=trt_violations,
        trt_bound_enforced=trt_enforced,
        busy_ns=busy_total,
        overhead_ns=overhead_total,
        idle_ns=idle_total,
        boundary=boundary,
        sourced_stations=tuple(stops),
    )
