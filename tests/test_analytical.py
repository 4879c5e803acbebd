"""Closed-form model tests.

Covers the worked examples (ring latency, heavy-load efficiency, max access
delay, single-station and asymptotic forms, the overflow model, TTRT rule
checking) plus the structural properties: monotonicity in station count and
TTRT, the overflow model collapsing to the basic one at exact frame
multiples, and validator monotonicity in the synchronous allocation.

Derived expectations are frozen from independent oracles computed in this
file (direct arithmetic, brute-force integer scan), not from the functions
under test.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from fddiperf import analytical, cli
from fddiperf.analytical import (
    MAX_RING_LATENCY_MS,
    PhysicalRing,
    RingParameters,
    RingSaturatedError,
    T_MAX_COUNTER_MS,
    T_MAX_MS,
    basic_model,
    efficiency,
    frame_time_ms,
    heavy_load,
    max_access_delay,
    overflow_model,
    ring_latency,
    validate_ttrt,
)
from fddiperf.workload import SaturationWorkload


def brute_force_frames(ttrt_ms: float, d_ms: float, frame_ms: float) -> int:
    """Independent oracle: smallest integer k whose k*F covers the budget."""
    budget = ttrt_ms - d_ms
    assert budget > 0
    for k in itertools.count(1):
        if k * frame_ms >= budget - 1e-12 * budget:
            return k
    raise AssertionError("unreachable")


# ---------------------------------------------------------------- latency

def test_ring_latency_worked_example():
    # 20 km * 5.085 us/km + 16 MACs * 1 us = 117.7 us
    d = ring_latency(PhysicalRing(20.0, 16))
    assert d == pytest.approx(0.1177, abs=1e-12)
    assert analytical is not None and round(d, 2) == 0.12


def test_ring_latency_empty_ring():
    assert ring_latency(PhysicalRing(0.0, 0)) == 0.0


def test_ring_latency_largest_ring():
    # oracle: 200 * 5.085 + 1000 * 1 = 2017 us
    assert ring_latency(PhysicalRing(200.0, 1000)) == pytest.approx(2.017, abs=1e-12)


def test_physical_ring_validation():
    with pytest.raises(ValueError):
        PhysicalRing(-1.0, 10)
    with pytest.raises(ValueError):
        PhysicalRing(10.0, 1001)


# ------------------------------------------------------------- efficiency

def test_efficiency_worked_example():
    assert efficiency(RingParameters(16, 5.0, 0.12)) == pytest.approx(0.975, abs=5e-4)


def test_efficiency_table_cells():
    assert efficiency(RingParameters(20, 4.0, 0.0403)) == pytest.approx(0.9894, abs=5e-5)
    assert efficiency(RingParameters(1000, 4.0, 2.017)) == pytest.approx(0.4955, abs=5e-5)


def test_efficiency_zero_latency_is_one():
    assert efficiency(RingParameters(1, 8.0, 0.0)) == 1.0
    assert efficiency(RingParameters(47, 3.0, 0.0)) == 1.0


def test_efficiency_saturated_raises():
    with pytest.raises(RingSaturatedError):
        efficiency(RingParameters(10, 1.0, 1.0))
    with pytest.raises(RingSaturatedError):
        efficiency(RingParameters(10, 1.0, 2.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        RingParameters(0, 8.0, 0.1)
    with pytest.raises(ValueError):
        RingParameters(1, 0.0, 0.1)
    with pytest.raises(ValueError):
        RingParameters(1, 8.0, -0.1)
    with pytest.raises(ValueError):
        RingParameters(1, 8.0, 0.1, frame_time_ms=0.0)


# ------------------------------------------------------------ access delay

def test_max_access_delay_worked_example():
    assert max_access_delay(RingParameters(16, 5.0, 0.12)) == pytest.approx(75.24, abs=1e-9)


def test_max_access_delay_largest():
    delay = max_access_delay(RingParameters(1000, 4.0, 2.017))
    assert delay == pytest.approx(4000.034, abs=1e-6)


def test_single_station_waits_two_latencies():
    for t, d in ((5.0, 0.12), (8.0, 1.117), (165.0, 2.017)):
        assert max_access_delay(RingParameters(1, t, d)) == pytest.approx(2 * d)


# ------------------------------------------- single-station and asymptotic

def test_single_station_efficiency_values():
    # oracle: (5 - 0.12) / (5 + 0.12) = 0.953125
    assert efficiency(RingParameters(1, 5.0, 0.12)) == pytest.approx(0.953125, abs=1e-12)
    assert efficiency(RingParameters(1, 8.0, 0.0)) == 1.0
    # T = 2D gives exactly 1/3
    assert efficiency(RingParameters(1, 2.4, 1.2)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_single_station_matches_n1():
    # the paper's one-station efficiency: (T - D) / (T + D)
    for t, d in ((4.0, 0.0403), (8.0, 1.117), (165.0, 2.017)):
        assert efficiency(RingParameters(1, t, d)) == pytest.approx((t - d) / (t + d), rel=1e-12)


def test_single_station_saturated_raises():
    with pytest.raises(RingSaturatedError):
        efficiency(RingParameters(1, 1.0, 1.5))


def test_asymptotic_efficiency_values():
    # many active stations approach 1 - D/T; oracle: 1 - 2.017/8 = 0.747875
    assert efficiency(RingParameters(10**9, 8.0, 2.017)) == pytest.approx(0.747875, abs=1e-9)
    assert efficiency(RingParameters(10**9, 8.0, 0.0)) == 1.0
    with pytest.raises(RingSaturatedError):
        efficiency(RingParameters(10**9, 3.3, 3.3))


# --------------------------------------------------------- overflow model

def test_overflow_worked_example():
    # oracle: budget 8 - 1.117 = 6.883 ms, F = 0.36 ms -> brute-force k
    k = brute_force_frames(8.0, 1.117, 0.36)
    assert k == 20
    kf = k * 0.36
    eff = 100 * kf / (100 * (kf + 1.117) + 1.117)
    delay = 99 * (kf + 1.117) + 2 * 1.117
    assert eff == pytest.approx(0.8645, abs=5e-5)
    assert delay == pytest.approx(825.617, abs=1e-9)

    res = overflow_model(RingParameters(100, 8.0, 1.117, 0.36))
    assert res.frames_per_opportunity == k
    assert res.efficiency == pytest.approx(eff, rel=1e-12)
    assert res.max_access_delay_ms == pytest.approx(delay, rel=1e-12)


def test_overflow_single_frame_when_budget_small():
    # budget below one frame time: exactly one frame per opportunity
    res = overflow_model(RingParameters(10, 2.0, 1.9, 0.36))
    assert res.frames_per_opportunity == 1


def test_overflow_collapses_at_exact_multiples():
    for k in (1, 2, 5, 20, 100):
        for f in (0.008, 0.04096, 0.36):
            for d in (0.0403, 1.117, 2.017):
                for n in (1, 16, 1000):
                    t = d + k * f
                    res = overflow_model(RingParameters(n, t, d, f))
                    base = basic_model(RingParameters(n, t, d))
                    assert res.frames_per_opportunity == k
                    assert res.efficiency == pytest.approx(base.efficiency, rel=1e-12)
                    assert res.max_access_delay_ms == pytest.approx(
                        base.max_access_delay_ms, rel=1e-12
                    )


def test_frames_per_opportunity_is_the_brute_force_count():
    # the whole frames a saturated station sends per usable token
    for n, t, d, f in ((100, 8.0, 1.117, 0.36), (10, 2.0, 1.9, 0.36), (1000, 165.0, 1.773, 0.008)):
        k = overflow_model(RingParameters(n, t, d, f)).frames_per_opportunity
        assert k == brute_force_frames(t, d, f)
    with pytest.raises(RingSaturatedError):
        overflow_model(RingParameters(10, 1.0, 1.0, 0.36))


def test_overflow_requires_frame_time():
    with pytest.raises(ValueError):
        overflow_model(RingParameters(10, 8.0, 1.0))
    with pytest.raises(RingSaturatedError):
        overflow_model(RingParameters(10, 1.0, 1.0, 0.36))


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 1000),
    ttrt=st.floats(0.5, 200.0),
    d_frac=st.floats(0.0, 0.95),
    frame=st.floats(0.001, 0.36),
)
def test_overflow_never_below_basic(n, ttrt, d_frac, frame):
    # finishing the frame in progress can only add usable time
    d = ttrt * d_frac
    base = efficiency(RingParameters(n, ttrt, d))
    res = overflow_model(RingParameters(n, ttrt, d, frame))
    assert res.efficiency >= base - 1e-12


def step_by_step_model(n: int, t: float, d: float, f: float | None) -> tuple:
    """Independent oracle: (efficiency, max access delay, frames per
    opportunity) computed one model at a time, in the float operations
    every frozen CSV was written with. Raises RingSaturatedError on T <= D."""
    t_us, d_us = t * 1000.0, d * 1000.0
    if t_us <= d_us:
        raise RingSaturatedError
    budget_us = t_us - d_us
    if f is None:
        return n * budget_us / (n * t_us + d_us), ((n - 1) * t_us + 2.0 * d_us) / 1000.0, None
    ratio = budget_us / (f * 1000.0)
    k = round(ratio)
    if not (k >= 1 and abs(ratio - k) <= 1e-9 * k):  # within the snap width of k frames
        k = max(1, math.ceil(ratio))
    kf_us = k * f * 1000.0
    eff = n * kf_us / (n * (kf_us + d_us) + d_us)
    return eff, ((n - 1) * (kf_us + d_us) + 2.0 * d_us) / 1000.0, k


@st.composite
def closed_form_inputs(draw):
    """(n_active, TTRT, ring latency, frame bytes or None): a TTRT that is
    anything, exactly the latency, a hair either side of it, or the latency
    plus a whole number of frames, where the frame count snaps."""
    n = draw(st.integers(1, 1000))
    d = ring_latency(PhysicalRing(draw(st.floats(0.0, 200.0)), draw(st.integers(0, 1000))))
    frame_bytes = draw(st.none() | st.integers(1, 4500))
    t = draw(st.floats(0.001, 200.0)
             | st.sampled_from([d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)])
             | st.integers(1, 2000).map(lambda k: d + k * frame_time_ms(frame_bytes or 4500)))
    assume(t > 0)
    return n, t, d, frame_bytes


@settings(derandomize=True, deadline=None, max_examples=500)
@given(closed_form_inputs())
def test_closed_form_row_is_the_records_bit_for_bit(inputs):
    # a sweep row calls the kernel unchecked; its cells are the fields of the
    # model records on checked inputs, and both are the step-by-step oracle's
    n, t, d, frame_bytes = inputs
    f = frame_time_ms(frame_bytes) if frame_bytes else None
    p = RingParameters(n, t, d, f)
    row = cli._analytical_row(dict(n_active=n, ttrt_ms=t, frame_bytes=frame_bytes, error=None), d)
    try:
        res = overflow_model(p) if f else basic_model(p)
    except RingSaturatedError:
        assert row["error"] == cli.SATURATED_MARKER
        with pytest.raises(RingSaturatedError):
            step_by_step_model(n, t, d, f)
        return
    assert row["error"] is None
    cells = (row["efficiency"], row["max_access_delay_ms"], row["frames_per_opportunity"])
    assert cells == tuple(res) == step_by_step_model(n, t, d, f)
    assert row["efficiency_pct_rounded"] == cli.paper_round(res.efficiency * 100.0)
    assert row["access_delay_s_rounded"] == cli.paper_round(res.max_access_delay_ms / 1000.0)


# ------------------------------------------------------------- properties

@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 999),
    ttrt=st.floats(0.5, 200.0),
    d_frac=st.floats(1e-6, 0.9),
)
def test_efficiency_increases_with_stations(n, ttrt, d_frac):
    d = ttrt * d_frac
    assert efficiency(RingParameters(n + 1, ttrt, d)) > efficiency(
        RingParameters(n, ttrt, d)
    )


def test_efficiency_increases_with_ttrt_grid_scan():
    # finite-difference scan over a (T, D, n) grid
    for n in (1, 5, 100, 1000):
        for d in (0.0403, 1.117, 2.017):
            grid = [d + 0.5 * i for i in range(1, 40)]
            values = [efficiency(RingParameters(n, t, d)) for t in grid]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_finite_n_below_asymptote():
    for n in (1, 10, 100, 1000, 10**6):
        for t, d in ((4.0, 0.0403), (8.0, 1.117), (165.0, 2.017)):
            assert efficiency(RingParameters(n, t, d)) < 1.0 - d / t


def test_access_delay_increasing_in_n_and_ttrt():
    base = max_access_delay(RingParameters(10, 8.0, 1.0))
    assert max_access_delay(RingParameters(11, 8.0, 1.0)) > base
    assert max_access_delay(RingParameters(10, 9.0, 1.0)) > base


# -------------------------------------------------------------- validator

def test_validator_min_legal_on_max_ring():
    v = validate_ttrt(8.0, MAX_RING_LATENCY_MS)
    # 1.773 + 0.00088 + 0.360 = 2.13388 ms, i.e. the 2.13 ms floor
    assert v.min_legal_ttrt_ms == pytest.approx(2.13388, abs=1e-9)
    assert v.ok


def test_validator_rule2():
    v = validate_ttrt(2.0, MAX_RING_LATENCY_MS)
    assert 2 in v.violated_rules and 3 in v.violated_rules
    v = validate_ttrt(2.2, MAX_RING_LATENCY_MS)
    assert 2 not in v.violated_rules and 3 in v.violated_rules


def test_validator_rule2_includes_sync():
    v = validate_ttrt(4.0, MAX_RING_LATENCY_MS, sync_allocation_ms=2.0)
    assert 2 in v.violated_rules
    assert v.min_legal_ttrt_ms == pytest.approx(4.13388, abs=1e-9)


def test_validator_rule3():
    v = validate_ttrt(3.0, MAX_RING_LATENCY_MS)
    assert v.violated_rules == (3,)


def test_validator_rule4():
    assert validate_ttrt(166.0, 0.1).violated_rules == (4,)
    assert validate_ttrt(166.0, 0.1, t_max_ms=T_MAX_COUNTER_MS).ok
    assert validate_ttrt(168.0, 0.1, t_max_ms=T_MAX_COUNTER_MS).violated_rules == (4,)
    with pytest.raises(ValueError):
        validate_ttrt(8.0, 0.1, t_max_ms=T_MAX_MS - 1.0)


def test_validator_service_interval_advisory():
    v = validate_ttrt(8.0, 0.1, service_interval_ms=20.0)
    assert v.advisory_ttrt_ms == 10.0
    assert v.ok


def test_validator_accepts_physical_ring():
    v = validate_ttrt(8.0, PhysicalRing(20.0, 16))
    assert v.ring_latency_ms == pytest.approx(0.1177)


@settings(derandomize=True, deadline=None)
@given(
    ttrt=st.floats(4.0, 165.0),
    sync=st.floats(0.0, 10.0),
    smaller=st.floats(0.0, 1.0),
)
def test_validator_monotone_in_sync(ttrt, sync, smaller):
    # anything legal with allocation s stays legal for any s' < s
    big = validate_ttrt(ttrt, MAX_RING_LATENCY_MS, sync_allocation_ms=sync)
    if big.ok:
        small = validate_ttrt(
            ttrt, MAX_RING_LATENCY_MS, sync_allocation_ms=sync * smaller
        )
        assert small.ok


def test_frame_time():
    assert frame_time_ms(4500) == pytest.approx(0.36, abs=1e-12)
    assert frame_time_ms(100) == pytest.approx(0.008, abs=1e-15)
    with pytest.raises(ValueError):
        frame_time_ms(0)


_OVERFLOWS = "ttrt_ms 1e+305 overflows the closed form with 10 active MACs"


# Each closed-form input is refused by the function that uses it, in one
# set of words for the CLI, the records and the simulator's workload.
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: heavy_load(10, math.nan, 0.1), "ttrt_ms must be finite, got nan",
                 id="ttrt-nan"),
    pytest.param(lambda: heavy_load(10, math.inf, 0.1, 0.04), "ttrt_ms must be finite, got inf",
                 id="ttrt-inf"),
    pytest.param(lambda: heavy_load(10, 0.0, 0.1), "ttrt_ms must be > 0, got 0.0", id="ttrt-0"),
    pytest.param(lambda: heavy_load(10, -1.0, 0.1, 0.04), "ttrt_ms must be > 0, got -1.0",
                 id="ttrt-negative"),
    # n_active x TTRT overflows, in the basic model and in the overflow model
    pytest.param(lambda: heavy_load(10, 1e305, 0.1), _OVERFLOWS, id="overflow-basic"),
    pytest.param(lambda: heavy_load(10, 1e305, 0.1, 0.04096), _OVERFLOWS, id="overflow-frames"),
    pytest.param(lambda: frame_time_ms(4501), "frame_bytes must be <= 4500, got 4501",
                 id="frame-4501"),
    pytest.param(lambda: ring_latency(PhysicalRing(1e308, 10)),
                 "ring_latency_ms must be finite, got inf", id="latency-inf"),
    pytest.param(lambda: SaturationWorkload(5000), "frame_bytes must be <= 4500, got 5000",
                 id="saturation-5000"),
    pytest.param(lambda: SaturationWorkload(0), "frame_bytes must be > 0, got 0",
                 id="saturation-0"),
])
def test_a_closed_form_input_is_refused_where_it_is_used(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_efficiency_bounds():
    for n in (1, 10, 1000):
        for t, d in ((4.0, 0.0403), (165.0, 2.017)):
            e = efficiency(RingParameters(n, t, d))
            assert 0.0 <= e < 1.0
    assert math.isclose(efficiency(RingParameters(3, 7.0, 0.0)), 1.0)
