"""Property tests of the simulator on random rings: 1-30 stations on
0-200 km of fiber, TTRT 4-165 ms, overflow on and off, token time 0 or
the standard 0.88 us, with saturated station subsets or bursty WIC
traffic. Every run must account for its time exactly, credit every bit
to a sourced station, keep each rotation below 2 x TTRT (the timed-token
bound of Sevcik & Johnson, 1987), and keep every access delay below the
closed-form bound. A saturated ring with overflow must also match the
overflow model within (2D + 2F) / W: one latency D at each edge of the
measured window W and one frame F credited at each edge.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from fddiperf.analytical import (
    MAX_FRAME_BYTES,
    TOKEN_TIME_US,
    T_MIN_MS,
    RingParameters,
    RingSaturatedError,
    frame_time_ms,
    overflow_model,
)
from fddiperf.metrics import summarize
from fddiperf.simcore import NS_PER_MS, RingConfig, run
from fddiperf.workload import SaturationWorkload, WicWorkload

RANDOM_RINGS = settings(derandomize=True, deadline=None, max_examples=75)


@st.composite
def rings(draw, min_sourced: int):
    """A uniform ring and the sorted stations that carry traffic on it."""
    n = draw(st.integers(1, 30))
    config = RingConfig.uniform(
        n,
        draw(st.floats(0.0, 200.0)),
        draw(st.floats(T_MIN_MS, 165.0)),
        token_time_us=draw(st.sampled_from([0.0, TOKEN_TIME_US])),
        async_overflow=draw(st.booleans()),
    )
    stations = draw(st.sets(st.integers(0, n - 1), min_size=min_sourced))
    return config, tuple(sorted(stations))


def _check_run(result, stations, n_active, max_frame_bytes):
    assert result.busy_ns + result.idle_ns + result.overhead_ns == result.duration_ns
    assert sum(result.station_bits) == result.completed_bits
    assert all(bits == 0 for i, bits in enumerate(result.station_bits) if i not in stations)
    if result.trt_bound_enforced:
        assert result.max_rotation_ns < 2 * result.config.ttrt_ms * NS_PER_MS
    report = summarize(result, n_active=n_active, max_frame_bytes=max_frame_bytes)
    assert not report.access_bound_exceeded
    return report


@RANDOM_RINGS
@given(rings(min_sourced=0), st.integers(1, MAX_FRAME_BYTES), st.integers(10, 40))
def test_saturated_random_rings(ring, frame_bytes, rotations):
    config, stations = ring
    result = run(config, SaturationWorkload(frame_bytes, stations),
                 duration_ms=rotations * config.ttrt_ms, seed=0)
    report = _check_run(result, stations, len(stations), frame_bytes)
    if not (config.async_overflow and stations):
        return
    d_ms = config.ring_latency_ms + config.n_stations * config.token_time_us / 1000.0
    f_ms = frame_time_ms(frame_bytes)
    try:
        model = overflow_model(RingParameters(len(stations), config.ttrt_ms, d_ms, f_ms))
    except RingSaturatedError:
        return
    tolerance = (2 * d_ms + 2 * f_ms) / report.measured_interval_ms
    assert abs(report.efficiency - model.efficiency) <= tolerance


@RANDOM_RINGS
@given(rings(min_sourced=1), st.floats(0.05, 0.95), st.floats(5.0, 40.0), st.integers(0, 99))
def test_bursty_random_rings(ring, utilization, duration_ms, seed):
    config, stations = ring
    load = WicWorkload.for_utilization(utilization, len(stations), stations=stations)
    result = run(config, load, duration_ms=duration_ms, seed=seed)
    _check_run(result, stations, len(stations), load.max_frame_bytes)
