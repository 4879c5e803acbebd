"""Traffic sources for the ring simulator.

Three kinds: the measured warehouse-inventory bursty-Poisson mix (one fixed
mix of five-frame bursts, 65% small / 35% large, at a chosen mean gap),
always-backlogged saturation sources for heavy-load studies, and scripted
arrivals for hand-checked traces.

A ring is saturated or bursty as a whole, by the workload's type. Every
source binds to stations through `bind(n_stations, seed)`, which returns
one entry per station in ring order, None where it sends nothing. A bursty
source's entries have `next_burst(now_ns)` yielding
`(timestamp_ns, [frame_bytes, ...])` and None when exhausted. Per-station
RNG streams are derived from the run seed and the station index, so a run
is reproducible from its (workload, seed) pair alone.

A WIC burst takes six draws from its station's stream, in a fixed order:
the gap, then the five frame sizes. The gap is `-log(1.0 - random()) / rate`
with rate = 1 / mean gap, the formula of `random.Random.expovariate`
written out in place, so it is the same float from the same draw and every
stream, and every run built on one, stays what expovariate made it; only
the call overhead is gone.
"""

from __future__ import annotations

import math
import random
from math import log as _log

from .analytical import LINE_RATE_MBPS, MAX_FRAME_BYTES, NS_PER_MS, check_finite, record

# The measured WIC mix; the mean's evaluation order fixes every derived gap.
DEFAULT_BURST_SIZE = 5
DEFAULT_SMALL_FRAME_BYTES = 100
DEFAULT_SMALL_FRACTION = 0.65
DEFAULT_LARGE_FRAME_BYTES = 512
WIC_MEAN_FRAME_BYTES = (
    DEFAULT_SMALL_FRACTION * DEFAULT_SMALL_FRAME_BYTES
    + (1.0 - DEFAULT_SMALL_FRACTION) * DEFAULT_LARGE_FRAME_BYTES
)
_WIC_BURST_BITS = DEFAULT_BURST_SIZE * WIC_MEAN_FRAME_BYTES * 8


def _station_rng(seed: int, station: int) -> random.Random:
    # str seeding is hashed with sha512 by random.seed(version=2):
    # deterministic across platforms, independent streams per station.
    return random.Random(f"{seed}/{station}")


def _check_stations(stations) -> None:
    if stations is not None and not stations:
        raise ValueError("stations must name at least one station; None means every station")


def _bound_stations(stations, n_stations: int) -> set[int]:
    """The station ids a source binds to (every station when None), each
    checked to lie on the ring."""
    chosen = set(range(n_stations)) if stations is None else set(stations)
    if chosen and (min(chosen) < 0 or max(chosen) >= n_stations):
        raise ValueError(f"station ids out of range for a {n_stations}-station ring")
    return chosen


@record("mean_interburst_ms", stations=None)
class WicWorkload:
    """Bursty-Poisson arrivals in the fixed WIC mix: exponential gaps of mean
    `mean_interburst_ms` between bursts of five frames, 65% small / 35% large.

    `stations` selects which ring positions generate traffic (None = all;
    a set names at least one).
    """

    def _check(self) -> None:
        check_finite(mean_interburst_ms=self.mean_interburst_ms)
        if self.mean_interburst_ms < 1e-6:  # gaps under 1 ns round to 0: no draw ends
            raise ValueError("mean_interburst_ms must be at least 1e-06 (one nanosecond), "
                             f"got {self.mean_interburst_ms}")
        _check_stations(self.stations)

    @classmethod
    def for_utilization(
        cls, utilization: float, n_stations: int, stations: tuple[int, ...] | None = None
    ) -> "WicWorkload":
        """Choose the inter-burst gap so n_stations together offer the given
        fraction of the 100 Mbps line rate."""
        if not 0 < utilization < 1:
            raise ValueError(f"utilization must be in (0, 1), got {utilization}")
        if n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {n_stations}")
        target_bits_per_ms = utilization * LINE_RATE_MBPS * 1000.0
        mean_ms = n_stations * _WIC_BURST_BITS / target_bits_per_ms
        return cls(mean_interburst_ms=mean_ms, stations=stations)

    @property
    def max_frame_bytes(self) -> int:
        return DEFAULT_LARGE_FRAME_BYTES

    def offered_load_mbps(self) -> float:
        """Per-station offered load, closed form (no sampling)."""
        return _WIC_BURST_BITS / self.mean_interburst_ms / 1000.0

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
        self._random = rng.random
        self._rate = 1.0 / workload.mean_interburst_ms

    def next_burst(self, now_ns: int) -> tuple[int, list[int]]:
        draw = self._random
        small, large = DEFAULT_SMALL_FRAME_BYTES, DEFAULT_LARGE_FRAME_BYTES
        p = DEFAULT_SMALL_FRACTION
        # random.Random.expovariate(rate), spelt out: the same float from the same draw
        gap_ms = -_log(1.0 - draw()) / self._rate
        return now_ns + int(round(gap_ms * NS_PER_MS)), [  # DEFAULT_BURST_SIZE frames
            small if draw() < p else large,
            small if draw() < p else large,
            small if draw() < p else large,
            small if draw() < p else large,
            small if draw() < p else large,
        ]


@record("", frame_bytes=DEFAULT_LARGE_FRAME_BYTES, stations=None)
class SaturationWorkload:
    """Designated stations (None = all; a set names at least one) always
    have a fixed-size frame queued; the ring runs at its usable-bandwidth
    limit."""

    def _check(self) -> None:
        if not 0 < self.frame_bytes <= MAX_FRAME_BYTES:
            raise ValueError(f"frame size {self.frame_bytes} outside (0, {MAX_FRAME_BYTES}] bytes")
        _check_stations(self.stations)

    @property
    def max_frame_bytes(self) -> int:
        return self.frame_bytes

    def total_offered_load_mbps(self, n_stations: int) -> float:
        return math.inf

    def bind(self, n_stations: int, seed: int) -> list[int | None]:
        if self.stations is None:
            return [self.frame_bytes] * n_stations
        chosen = _bound_stations(self.stations, n_stations)
        return list(map(dict.fromkeys(chosen, self.frame_bytes).get, range(n_stations)))


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


@record("script")
class ScriptedWorkload:
    """Fixed arrival script per station: {station: [(time_ms, [bytes, ...]), ...]}.

    Meant for hand-computable traces in tests and demos.
    """

    def _check(self) -> None:
        # a run's draw keeps each time as an unsigned count of ns, each frame size in 16 bits
        for bursts in self.script.values():
            for t_ms, sizes in bursts:
                if not 0 <= t_ms < math.inf:
                    raise ValueError(f"burst times must be finite and at least 0 ms, got {t_ms!r}")
                for size in sizes:
                    if not (isinstance(size, int) and 0 <= size <= 0xFFFF):
                        raise ValueError("frame sizes must be whole bytes from 0 to 65535, "
                                         f"got {size!r}")

    @property
    def max_frame_bytes(self) -> int:
        sizes = [b for bursts in self.script.values() for _, frames in bursts for b in frames]
        return max(sizes, default=0)

    def total_offered_load_mbps(self, n_stations: int) -> float | None:
        return None

    def bind(self, n_stations: int, seed: int) -> list["_ScriptedGenerator | None"]:
        _bound_stations(self.script, n_stations)
        feeds: list[_ScriptedGenerator | None] = [None] * n_stations
        for st, bursts in self.script.items():
            ordered = sorted(bursts, key=lambda b: b[0])
            packed = tuple(
                (int(round(t_ms * NS_PER_MS)), tuple(sizes)) for t_ms, sizes in ordered
            )
            feeds[st] = _ScriptedGenerator(packed)
        return feeds
