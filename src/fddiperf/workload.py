"""Traffic sources for the ring simulator.

Three kinds: the measured warehouse-inventory bursty-Poisson mix (bursts of
five frames, 65% small / 35% large), always-backlogged saturation sources
for heavy-load studies, and scripted arrivals for hand-checked traces.

A ring is saturated or bursty as a whole, by the workload's type. Every
source binds to stations through `bind(n_stations, seed)`, which returns
one entry per station in ring order, None where it sends nothing. A bursty
source's entries have `next_burst(now_ns)` yielding
`(timestamp_ns, [frame_bytes, ...])` and None when exhausted. Per-station
RNG streams are derived from the run seed and the station index, so a run
is reproducible from its (workload, seed) pair alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .analytical import LINE_RATE_MBPS, MAX_FRAME_BYTES, check_finite

_NS_PER_MS = 1_000_000

DEFAULT_BURST_SIZE = 5
DEFAULT_SMALL_FRAME_BYTES = 100
DEFAULT_SMALL_FRACTION = 0.65
DEFAULT_LARGE_FRAME_BYTES = 512


def _station_rng(seed: int, station: int) -> random.Random:
    # str seeding is hashed with sha512 by random.seed(version=2):
    # deterministic across platforms, independent streams per station.
    return random.Random(f"{seed}/{station}")


def _bound_stations(stations, n_stations: int) -> set[int]:
    """The station ids a source binds to (every station when None), each
    checked to lie on the ring."""
    chosen = set(range(n_stations)) if stations is None else set(stations)
    if any(s < 0 or s >= n_stations for s in chosen):
        raise ValueError(f"station ids out of range for a {n_stations}-station ring")
    return chosen


@dataclass(frozen=True)
class WicWorkload:
    """Bursty-Poisson arrivals: exponential gaps between bursts, a fixed
    number of frames per burst, two frame sizes in a fixed mix.

    `stations` selects which ring positions generate traffic (None = all).
    """

    mean_interburst_ms: float
    burst_size: int = DEFAULT_BURST_SIZE
    small_frame_bytes: int = DEFAULT_SMALL_FRAME_BYTES
    small_fraction: float = DEFAULT_SMALL_FRACTION
    large_frame_bytes: int = DEFAULT_LARGE_FRAME_BYTES
    stations: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_finite(mean_interburst_ms=self.mean_interburst_ms)
        if self.mean_interburst_ms <= 0:
            raise ValueError(f"mean_interburst_ms must be > 0, got {self.mean_interburst_ms}")
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if not 0.0 <= self.small_fraction <= 1.0:
            raise ValueError(f"small_fraction must be in [0, 1], got {self.small_fraction}")
        for b in (self.small_frame_bytes, self.large_frame_bytes):
            if not 0 < b <= MAX_FRAME_BYTES:
                raise ValueError(f"frame size {b} outside (0, {MAX_FRAME_BYTES}] bytes")

    @classmethod
    def for_utilization(
        cls, utilization: float, n_stations: int, **kwargs
    ) -> "WicWorkload":
        """Choose the inter-burst gap so n_stations together offer the given
        fraction of the 100 Mbps line rate."""
        if not 0 < utilization < 1:
            raise ValueError(f"utilization must be in (0, 1), got {utilization}")
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        probe = cls(mean_interburst_ms=1.0, **kwargs)
        burst_bits = probe.burst_size * probe.mean_frame_bytes() * 8
        target_bits_per_ms = utilization * LINE_RATE_MBPS * 1000.0
        mean_ms = n_stations * burst_bits / target_bits_per_ms
        return cls(mean_interburst_ms=mean_ms, **kwargs)

    def mean_frame_bytes(self) -> float:
        return (
            self.small_fraction * self.small_frame_bytes
            + (1.0 - self.small_fraction) * self.large_frame_bytes
        )

    @property
    def max_frame_bytes(self) -> int:
        return max(self.small_frame_bytes, self.large_frame_bytes)

    def offered_load_mbps(self) -> float:
        """Per-station offered load, closed form (no sampling)."""
        bits_per_burst = self.burst_size * self.mean_frame_bytes() * 8
        return bits_per_burst / self.mean_interburst_ms / 1000.0

    def total_offered_load_mbps(self, n_stations: int) -> float:
        count = len(self.stations) if self.stations is not None else n_stations
        return count * self.offered_load_mbps()

    def bind(self, n_stations: int, seed: int) -> list["WicGenerator | None"]:
        chosen = _bound_stations(self.stations, n_stations)
        return [
            WicGenerator(self, _station_rng(seed, i)) if i in chosen else None
            for i in range(n_stations)
        ]


class WicGenerator:
    """Per-station burst stream. Draw order per burst is fixed (gap first,
    then the frame sizes) so streams are reproducible."""

    def __init__(self, workload: WicWorkload, rng: random.Random):
        self._w = workload
        self._rng = rng

    def next_burst(self, now_ns: int) -> tuple[int, list[int]]:
        w = self._w
        gap_ms = self._rng.expovariate(1.0 / w.mean_interburst_ms)
        at_ns = now_ns + int(round(gap_ms * _NS_PER_MS))
        sizes = [
            w.small_frame_bytes if self._rng.random() < w.small_fraction else w.large_frame_bytes
            for _ in range(w.burst_size)
        ]
        return at_ns, sizes


@dataclass(frozen=True)
class SaturationWorkload:
    """Designated stations always have a fixed-size frame queued; the ring
    runs at its usable-bandwidth limit."""

    frame_bytes: int = DEFAULT_LARGE_FRAME_BYTES
    stations: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.frame_bytes <= MAX_FRAME_BYTES:
            raise ValueError(f"frame size {self.frame_bytes} outside (0, {MAX_FRAME_BYTES}] bytes")

    @property
    def max_frame_bytes(self) -> int:
        return self.frame_bytes

    def offered_load_mbps(self) -> float:
        return math.inf

    def total_offered_load_mbps(self, n_stations: int) -> float:
        return math.inf

    def bind(self, n_stations: int, seed: int) -> list[int | None]:
        chosen = _bound_stations(self.stations, n_stations)
        return [self.frame_bytes if i in chosen else None for i in range(n_stations)]


class _ScriptedGenerator:
    def __init__(self, bursts: tuple[tuple[int, tuple[int, ...]], ...]):
        self._bursts = bursts
        self._i = 0

    def next_burst(self, now_ns: int):
        if self._i >= len(self._bursts):
            return None
        at_ns, sizes = self._bursts[self._i]
        self._i += 1
        return at_ns, list(sizes)


@dataclass(frozen=True)
class ScriptedWorkload:
    """Fixed arrival script per station: {station: [(time_ms, [bytes, ...]), ...]}.

    Meant for hand-computable traces in tests and demos.
    """

    script: dict[int, list[tuple[float, list[int]]]]

    @property
    def max_frame_bytes(self) -> int:
        sizes = [b for bursts in self.script.values() for _, frames in bursts for b in frames]
        return max(sizes, default=0)

    def offered_load_mbps(self) -> float | None:
        return None

    def total_offered_load_mbps(self, n_stations: int) -> float | None:
        return None

    def bind(self, n_stations: int, seed: int) -> list["_ScriptedGenerator | None"]:
        _bound_stations(self.script, n_stations)
        feeds: list[_ScriptedGenerator | None] = [None] * n_stations
        for st, bursts in self.script.items():
            ordered = sorted(bursts, key=lambda b: b[0])
            packed = tuple(
                (int(round(t_ms * _NS_PER_MS)), tuple(sizes)) for t_ms, sizes in ordered
            )
            feeds[st] = _ScriptedGenerator(packed)
        return feeds
