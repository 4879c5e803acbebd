"""Aggregation of raw simulator samples into the reported metrics.

Three metrics matter: throughput/efficiency (bits completed per second of
measured interval over the 100 Mbps line rate), response time (frame
arrival to end of its transmission), and access delay (wanting the token
to capturing a usable one). The first 10% of simulated time is treated as
warm-up: it absorbs the zeroed rotation clocks and empty queues at t=0.
Frames count toward response statistics if they arrive at or after the
warm-up mark, and access episodes if they open at or after it; a frame's
bits are credited at its completion, and count toward throughput if it
completes in (mark, end]. A run carries its workload, so its offered load
and the access-delay bound of its sourced stations
(`access_delay_bound_ms(result)`, the overflow model on the ring's walk
time `RingConfig.walk_ns`) are worked out from the run alone; the bound
counts the access wait the run's end left open too. Per-station throughput
is no report field: `station_throughput_mbps(result)` gives it.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice
from operator import sub

from . import analytical
from .analytical import LINE_RATE_MBPS, RingParameters, record
from .samples import AccessEpisodes
from .simcore import NS_PER_MS, RunResult, _ns_from_ms, _starved

_BOUND_SLACK_NS = 1  # integer-nanosecond comparisons need no real slack


@record("mean_ms max_ms count", p95_ms=None)
class SampleStats:
    """Exact statistics over retained samples; percentile by nearest rank."""


def _response_stats(stops: list[tuple]) -> SampleStats | None:
    """Statistics of the delays from index first on of each (delays, first)
    in stops, worked out stop by stop with no list of every delay: the
    count, and the sum at C level. The p95 is by nearest rank, the rank-th
    largest delay: only the delays at or above a threshold a little below
    it, read from a strided sample, are sorted, one comprehension per stop;
    when they are fewer than rank, all are. The threshold is a delay, so the
    sorted tail ends with the largest."""
    count = sum(len(delays) - first for delays, first in stops)
    if not count:
        return None
    total = sum(sum(islice(delays, first, None)) for delays, first in stops)
    rank = count - max(0, math.ceil(0.95 * count) - 1)
    # every step-th delay of them all, counted across the stops in order
    step, sample, skip = max(1, count // 256), [], 0
    for delays, first in stops:
        lo = first + skip
        sample += delays[lo::step]
        skip = (lo - len(delays)) % step
    sample.sort()
    threshold = sample[len(sample) * 7 // 8]
    tail = []
    for delays, first in stops:
        tail += [d for d in islice(delays, first, None) if d >= threshold]
    if len(tail) < rank:
        tail = list(chain.from_iterable(islice(delays, first, None) for delays, first in stops))
    tail.sort()
    return SampleStats(mean_ms=total / count / NS_PER_MS, max_ms=tail[-1] / NS_PER_MS,
                       count=count, p95_ms=tail[-rank] / NS_PER_MS)


def _access_stats(episodes: AccessEpisodes, mark_ns: int) -> SampleStats | None:
    """Statistics of the waits of the episodes that opened at or after
    mark_ns, from the episodes' two columns at C level, with no list of
    waits; no p95."""
    starts, captures = episodes.starts, episodes.captures
    kept = list(map(mark_ns.__le__, starts))
    count = sum(kept)
    if not count:
        return None
    total = sum(compress(captures, kept)) - sum(compress(starts, kept))
    peak = max(compress(map(sub, captures, starts), kept))
    return SampleStats(mean_ms=total / count / NS_PER_MS, max_ms=peak / NS_PER_MS, count=count)


@record("throughput_mbps efficiency response_time access_delay offered_load_mbps "
        "measured_interval_ms warmup_ms warmup_frames_discarded warmup_access_discarded "
        "completed_frames max_rotation_ms trt_bound_ok",
        access_bound_ms=None, access_bound_exceeded=False, seed=0)
class MetricsReport:
    """Per-run summary. The statistics, response_time and access_delay, are
    SampleStats, or None (absent) when no samples were retained, never a
    misleading zero. access_bound_exceeded counts open waits too."""


def access_delay_bound_ms(result: RunResult) -> float | None:
    """Worst-case access delay of the run's sourced stations sending its
    workload's largest frame, from the overflow model with the ring's walk
    time (`RingConfig.walk_ns`) standing in for the ring latency. None on an
    idle run, and when the walk time already swallows the TTRT or, with
    overflow off, leaves no room for that frame: then no token after lap 0
    can start it, and its station may wait to the run's end."""
    cfg = result.config
    n_active = len(result.sourced_stations)
    max_frame_bytes = result.workload.max_frame_bytes if result.workload is not None else 0
    if max_frame_bytes <= 0 or n_active < 1 or _starved(cfg, max_frame_bytes):
        return None
    try:
        res = analytical.overflow_model(
            RingParameters(
                n_active=n_active,
                ttrt_ms=cfg.ttrt_ms,
                ring_latency_ms=cfg.walk_ns / NS_PER_MS,
                frame_time_ms=analytical.frame_time_ms(max_frame_bytes),
            )
        )
    except analytical.RingSaturatedError:
        return None
    return res.max_access_delay_ms


def station_throughput_mbps(result: RunResult) -> tuple[float, ...]:
    """Each station's throughput over the measured window, one entry per
    station: 0.0 at a station that sent nothing in it."""
    b = result.boundary
    interval_ns = result.duration_ns - b.at_ns
    return tuple((now - then) / interval_ns * 1000.0  # bits/ns -> Mbps
                 for now, then in zip(result.station_bits, b.station_bits))


def _ttrt_fields(result: RunResult, access: SampleStats | None) -> dict:
    """The report fields that depend on the run's TTRT: the access-delay
    bound (none on an idle ring) checked against the longest access delay,
    and the rotation bound checked against the longest rotation, in each
    case the one the run's end left open included."""
    bound_ms = access_delay_bound_ms(result)
    # max_ms is whole nanoseconds over NS_PER_MS, so it reads back exactly
    peak_ns = max(0 if access is None else _ns_from_ms(access.max_ms), result.open_access_ns)
    exceeded = bound_ms is not None and peak_ns > _ns_from_ms(bound_ms) + _BOUND_SLACK_NS
    ttrt_ns = _ns_from_ms(result.config.ttrt_ms)
    rotation_ns = max(result.max_rotation_ns, result.open_rotation_ns)
    return dict(access_bound_ms=bound_ms, access_bound_exceeded=exceeded,
                trt_bound_ok=rotation_ns < 2 * ttrt_ns)


def summarize(result: RunResult) -> MetricsReport:
    """Turn one run's samples into a MetricsReport. The offered load and the
    access-delay bound come from the run's workload; an idle run has neither."""
    b = result.boundary
    mark_ns = b.at_ns
    interval_ns = result.duration_ns - mark_ns  # run refuses a mark at or past the end

    window_bits = result.completed_bits - b.completed_bits
    throughput = window_bits / interval_ns * 1000.0  # bits/ns -> Mbps

    response = _response_stats(result.response_samples.stops_since(mark_ns))
    access = _access_stats(result.access_samples, mark_ns)
    load = result.workload

    return MetricsReport(
        throughput_mbps=throughput,
        efficiency=throughput / LINE_RATE_MBPS,
        response_time=response,
        access_delay=access,
        offered_load_mbps=None if load is None else load.total_offered_load_mbps(
            result.config.n_stations),
        measured_interval_ms=interval_ns / NS_PER_MS,
        warmup_ms=mark_ns / NS_PER_MS,
        warmup_frames_discarded=len(result.response_samples) - (response.count if response else 0),
        warmup_access_discarded=len(result.access_samples) - (access.count if access else 0),
        completed_frames=result.completed_frames,
        max_rotation_ms=result.max_rotation_ms,
        seed=result.seed,
        **_ttrt_fields(result, access),
    )


def reuse_at(report: MetricsReport, result: RunResult) -> MetricsReport:
    """The report `summarize` would give for `result`, a run that
    simcore.reuse_at handed out in place of the run `report` summarizes:
    the samples are the same, so only the fields of the TTRT are computed
    again."""
    return report._replace(**_ttrt_fields(result, report.access_delay))
