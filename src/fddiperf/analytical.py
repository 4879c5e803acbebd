"""Closed-form performance model for the FDDI timed-token ring.

Under heavy load the ring's usable bandwidth and worst-case token wait are
simple functions of three quantities: the number of active MACs, the target
token rotation time (TTRT), and the ring latency (one idle token
circulation). This module implements those formulas, the frame-quantized
refinement for asynchronous overflow, and the standard's legality rules for
choosing a TTRT. Everything here is pure arithmetic; there is no simulation.

Durations cross the API in milliseconds. Internally they are converted to
microseconds so that the microsecond-scale station delay never mixes units
with millisecond-scale TTRT values.

The input checks (`check_finite`) and the `record` decorator that every
module of the package declares its record types with live here too.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Medium and MAC constants (100 Mbps line rate).
PROPAGATION_US_PER_KM = 5.085
STATION_DELAY_US = 1.0
LINE_RATE_MBPS = 100.0
TOKEN_TIME_US = 0.88  # 11-byte token, preamble included
TOKEN_TIME_MS = TOKEN_TIME_US / 1000.0
MAX_FRAME_BYTES = 4500
MAX_FRAME_TIME_MS = MAX_FRAME_BYTES * 8 / (LINE_RATE_MBPS * 1000.0)
MAX_RING_LATENCY_MS = 1.773  # maximum-size ring per the standard
MAX_MAC_COUNT = 1000
DEFAULT_DURATION_MS = 1000.0  # simulated time per run: simcore.run's and the CLI's default
NS_PER_US = 1_000  # the simulator's whole nanoseconds
NS_PER_MS = 1_000_000

# TTRT legality window. T_MAX_COUNTER_MS is the alternate cap used by
# stations that derive the timer from the symbol clock with a 22-bit counter.
T_MIN_MS = 4.0
T_MAX_MS = 165.0
T_MAX_COUNTER_MS = 167.77216

_MS_TO_US = 1000.0

# Relative snap width when quantizing the holding budget into whole frames:
# ratios within this distance of an integer are treated as exact, so budgets
# that are a whole number of frames do not pick up a spurious extra frame
# from float rounding.
_FRAME_SNAP_REL = 1e-9


def check_finite(**values: float | None) -> None:
    """Reject NaN and infinite inputs: a range check such as `x <= 0` is
    false for NaN and true-or-false for inf without meaning either."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def record(fields: str, **defaults):
    """Class decorator: the class as a collections.namedtuple subclass with
    the space-separated fields, then the keyword ones with their defaults. A
    record equals only records of its own type, and its `_check`, if any,
    runs whenever one is built, by `_replace(field=value)` too."""
    def build(cls):
        attrs = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
        names = fields.split() + list(defaults)
        base = namedtuple(cls.__name__, names, defaults=defaults.values())
        attrs.update(__slots__=(), __hash__=tuple.__hash__, __ne__=object.__ne__,
                     __eq__=lambda a, b: type(a) is type(b) and tuple.__eq__(a, b))
        if "_check" in attrs:
            # namedtuple's _replace builds through _make, which skips __init__
            attrs.update(__init__=lambda self, *args, **kwargs: self._check(),
                         _make=classmethod(lambda cls, values: cls(*values)))
        return type(cls.__name__, (base,), attrs)
    return build


class RingSaturatedError(ValueError):
    """TTRT does not exceed the ring latency: the token never arrives with
    budget to spend and the configuration has no usable capacity."""


@record("n_active ttrt_ms ring_latency_ms", frame_time_ms=None)
class RingParameters:
    """Inputs of the heavy-load model.

    n_active counts MACs that are transmitting or waiting to transmit;
    frame_time_ms is only needed by the overflow model.
    """

    def _check(self) -> None:
        check_finite(ttrt_ms=self.ttrt_ms, ring_latency_ms=self.ring_latency_ms,
                     frame_time_ms=self.frame_time_ms)
        if self.n_active < 1:
            raise ValueError(f"n_active must be >= 1, got {self.n_active}")
        if self.ttrt_ms <= 0:
            raise ValueError(f"ttrt_ms must be > 0, got {self.ttrt_ms}")
        if self.ring_latency_ms < 0:
            raise ValueError(f"ring_latency_ms must be >= 0, got {self.ring_latency_ms}")
        if self.frame_time_ms is not None and self.frame_time_ms <= 0:
            raise ValueError(f"frame_time_ms must be > 0, got {self.frame_time_ms}")


@record("fiber_km mac_count")
class PhysicalRing:
    """Physical description of a ring: fiber length plus repeating MACs.

    mac_count is the number of MACs in the logical ring (a dual-attachment
    station may contribute two).
    """

    def _check(self) -> None:
        check_finite(fiber_km=self.fiber_km)
        if self.fiber_km < 0:
            raise ValueError(f"fiber_km must be >= 0, got {self.fiber_km}")
        if not 0 <= self.mac_count <= MAX_MAC_COUNT:
            raise ValueError(
                f"mac_count must be in [0, {MAX_MAC_COUNT}], got {self.mac_count}"
            )


@record("efficiency max_access_delay_ms", frames_per_opportunity=None)
class AnalyticalResult:
    """Heavy-load prediction: usable-bandwidth fraction and the worst-case
    wait for a usable token. frames_per_opportunity is set only by the
    overflow model."""


def ring_latency(ring: PhysicalRing) -> float:
    """Idle-token circulation time in ms: fiber propagation plus the summed
    per-MAC repeat delays."""
    us = ring.fiber_km * PROPAGATION_US_PER_KM + ring.mac_count * STATION_DELAY_US
    return us / _MS_TO_US


def heavy_load(n_active: int, ttrt_ms: float, ring_latency_ms: float,
               frame_time_ms: float | None = None) -> tuple[float, float, int | None]:
    """(efficiency, max access delay in ms, frames per opportunity) under
    heavy load: the basic model when frame_time_ms is None (no frame count),
    else the overflow model. The arguments are a RingParameters' fields,
    unchecked. Raises RingSaturatedError when ttrt <= ring_latency; a clamped
    zero would hide an unusable configuration from parameter sweeps."""
    t_us = ttrt_ms * _MS_TO_US
    d_us = ring_latency_ms * _MS_TO_US
    if t_us <= d_us:
        raise RingSaturatedError(
            f"TTRT {ttrt_ms} ms does not exceed ring latency {ring_latency_ms} ms"
        )
    n = n_active
    if frame_time_ms is None:
        delay_us = (n - 1) * t_us + 2.0 * d_us
        return n * (t_us - d_us) / (n * t_us + d_us), delay_us / _MS_TO_US, None
    # Asynchronous overflow: the frame in progress when the holding budget
    # expires is completed, so each opportunity carries k whole frames, k*F
    # being the budget rounded up to a frame boundary.
    ratio = (t_us - d_us) / (frame_time_ms * _MS_TO_US)
    k = round(ratio)
    if not (k >= 1 and abs(ratio - k) <= _FRAME_SNAP_REL * k):
        k = max(1, math.ceil(ratio))
    kf_us = k * frame_time_ms * _MS_TO_US
    return (n * kf_us / (n * (kf_us + d_us) + d_us),
            ((n - 1) * (kf_us + d_us) + 2.0 * d_us) / _MS_TO_US, k)


def efficiency(p: RingParameters) -> float:
    """Usable bandwidth as a fraction of the line rate under heavy load."""
    return heavy_load(p.n_active, p.ttrt_ms, p.ring_latency_ms)[0]


def max_access_delay(p: RingParameters) -> float:
    """Worst-case wait for a usable token in ms, raising RingSaturatedError
    as efficiency does. With a single active station this is twice the ring
    latency: every alternate token it receives is unusable."""
    return heavy_load(p.n_active, p.ttrt_ms, p.ring_latency_ms)[1]


def basic_model(p: RingParameters) -> AnalyticalResult:
    """Efficiency and max access delay with the holding budget treated as
    exactly spendable (no frame quantization)."""
    return AnalyticalResult(*heavy_load(p.n_active, p.ttrt_ms, p.ring_latency_ms))


def overflow_model(p: RingParameters) -> AnalyticalResult:
    """Heavy-load prediction with asynchronous overflow, frame_time_ms
    given. When k*F lands exactly on the budget this reduces to basic_model."""
    if p.frame_time_ms is None:
        raise ValueError("frame_time_ms is required")
    return AnalyticalResult(*heavy_load(*p))


@record("requested_ttrt_ms ring_latency_ms sync_allocation_ms max_frame_time_ms t_max_ms "
        "min_legal_ttrt_ms violated_rules", messages=(), advisory_ttrt_ms=None)
class TtrtValidation:
    """Outcome of checking a requested TTRT against the standard's rules.

    Violations are data, not exceptions: a sweep probing illegal values
    needs to see which rule failed row by row. Rule numbering:

      rule 2 - TTRT must cover ring latency + token time + one maximum-size
               frame + the synchronous allocation;
      rule 3 - TTRT must not be below T_min (4 ms);
      rule 4 - TTRT must not exceed T_max (165 ms by default).

    advisory_ttrt_ms carries the rule-1 guideline when a service-interval
    requirement was supplied: request half the required interval, because a
    rotation may take up to twice the target.
    """

    @property
    def ok(self) -> bool:
        return not self.violated_rules


def validate_ttrt(
    requested_ttrt_ms: float,
    ring: PhysicalRing | float,
    sync_allocation_ms: float = 0.0,
    max_frame_time_ms: float = MAX_FRAME_TIME_MS,
    *,
    service_interval_ms: float | None = None,
    t_max_ms: float = T_MAX_MS,
) -> TtrtValidation:
    """Check a requested TTRT against rules 2-4 and report the rule-1
    advisory.

    `ring` is either a PhysicalRing or a precomputed ring latency in ms
    (pass MAX_RING_LATENCY_MS to evaluate against the largest legal ring).
    """
    latency_ms = ring_latency(ring) if isinstance(ring, PhysicalRing) else float(ring)
    for name, value in (
        ("requested_ttrt_ms", requested_ttrt_ms),
        ("ring latency", latency_ms),
        ("sync_allocation_ms", sync_allocation_ms),
        ("max_frame_time_ms", max_frame_time_ms),
    ):
        check_finite(**{name: value})
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not T_MAX_MS <= t_max_ms <= T_MAX_COUNTER_MS:
        raise ValueError(
            f"t_max_ms must lie in [{T_MAX_MS}, {T_MAX_COUNTER_MS}], got {t_max_ms}"
        )

    floor_us = (latency_ms + TOKEN_TIME_MS + max_frame_time_ms + sync_allocation_ms) * _MS_TO_US
    min_legal_ms = floor_us / _MS_TO_US

    violations: list[int] = []
    messages: list[str] = []
    if requested_ttrt_ms < min_legal_ms:
        violations.append(2)
        messages.append(
            f"rule 2: TTRT {requested_ttrt_ms:g} ms leaves no room for one "
            f"maximum-size frame; minimum is {min_legal_ms:.6g} ms"
        )
    if requested_ttrt_ms < T_MIN_MS:
        violations.append(3)
        messages.append(
            f"rule 3: TTRT {requested_ttrt_ms:g} ms is below T_min = {T_MIN_MS:g} ms"
        )
    if requested_ttrt_ms > t_max_ms:
        violations.append(4)
        messages.append(
            f"rule 4: TTRT {requested_ttrt_ms:g} ms exceeds T_max = {t_max_ms:g} ms"
        )

    advisory = None
    if service_interval_ms is not None:
        check_finite(service_interval_ms=service_interval_ms)
        if service_interval_ms <= 0:
            raise ValueError(f"service_interval_ms must be > 0, got {service_interval_ms}")
        advisory = service_interval_ms / 2.0
        if requested_ttrt_ms > advisory:
            messages.append(
                f"rule 1 advisory: a {service_interval_ms:g} ms service interval "
                f"calls for requesting TTRT = {advisory:g} ms"
            )

    return TtrtValidation(
        requested_ttrt_ms=requested_ttrt_ms,
        ring_latency_ms=latency_ms,
        sync_allocation_ms=sync_allocation_ms,
        max_frame_time_ms=max_frame_time_ms,
        t_max_ms=t_max_ms,
        min_legal_ttrt_ms=min_legal_ms,
        violated_rules=tuple(violations),
        messages=tuple(messages),
        advisory_ttrt_ms=advisory,
    )


def frame_time_ms(frame_bytes: int) -> float:
    """On-wire time of a frame at the 100 Mbps line rate."""
    if frame_bytes <= 0:
        raise ValueError(f"frame_bytes must be > 0, got {frame_bytes}")
    return frame_bytes * 8 / (LINE_RATE_MBPS * 1000.0)
