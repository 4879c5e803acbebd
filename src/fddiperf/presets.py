"""Canonical ring configurations, the golden reference table, and the named
sweep recipes the CLI exposes as figure presets.

The three configurations span the design space: a modest office ring, a
large campus ring, and the biggest ring the standard allows (500
dual-attachment stations contributing two MACs each on 200 km of fiber).
The golden table pins efficiency and maximum access delay for six TTRT
values on each of them; `table1_rows` recomputes every cell from the
closed-form model and compares after 2-decimal rounding.
"""

from __future__ import annotations

import math

from . import analytical
from .analytical import PhysicalRing, RingParameters, record


@record("name sas_count das_count fiber_km")
class Preset:
    """A named ring of single- and dual-attachment stations on fiber_km of
    fiber."""

    @property
    def mac_count(self) -> int:
        # a DAS runs two MACs in the wrapped ring
        return self.sas_count + 2 * self.das_count

    def ring_latency_ms(self) -> float:
        ring = PhysicalRing(fiber_km=self.fiber_km, mac_count=self.mac_count)
        return analytical.ring_latency(ring)


PRESETS: dict[str, Preset] = {
    "typical": Preset("typical", sas_count=20, das_count=0, fiber_km=4.0),
    "big": Preset("big", sas_count=100, das_count=0, fiber_km=200.0),
    "largest": Preset("largest", sas_count=0, das_count=500, fiber_km=200.0),
}

TABLE1_TTRT_MS: tuple[float, ...] = (4.0, 8.0, 12.0, 16.0, 20.0, 165.0)

# (max access delay in seconds, efficiency in percent), both rounded to two
# decimals, per configuration and TTRT.
TABLE1_GOLDEN: dict[str, dict[float, tuple[float, float]]] = {
    "typical": {
        4.0: (0.08, 98.94),
        8.0: (0.15, 99.47),
        12.0: (0.23, 99.65),
        16.0: (0.30, 99.74),
        20.0: (0.38, 99.79),
        165.0: (3.14, 99.97),
    },
    "big": {
        4.0: (0.40, 71.87),
        8.0: (0.79, 85.92),
        12.0: (1.19, 90.61),
        16.0: (1.59, 92.95),
        20.0: (1.98, 94.36),
        165.0: (16.34, 99.32),
    },
    "largest": {
        4.0: (4.00, 49.55),
        8.0: (8.00, 74.77),
        12.0: (11.99, 83.18),
        16.0: (15.99, 87.38),
        20.0: (19.98, 89.91),
        165.0: (164.84, 98.78),
    },
}


def paper_round(value: float, places: int = 2) -> float:
    """Round half away from zero at the given decimal place, on the digits of
    repr(value), as the reference values were printed; round() would round the
    binary value half to even. int / int rounds correctly, as float() would.
    A float of 1e16 or more is a whole number, so it is its own rounding;
    inf and nan raise ValueError."""
    text = repr(abs(value))
    whole, _, frac = text.partition(".")
    digits = whole + frac[:places].ljust(places, "0")
    if "e" in text or not digits.isdigit() or places < 0:
        if not math.isfinite(value):
            raise ValueError(f"cannot round {value!r} to {places} places")
        if abs(value) >= 1e16 and places >= 0:
            return value
        from decimal import ROUND_HALF_UP, Decimal  # a small exponent or places < 0
        return float(Decimal(repr(value)).quantize(Decimal(1).scaleb(-places), ROUND_HALF_UP))
    return math.copysign((int(digits) + (frac[places:places + 1] >= "5")) / 10 ** places, value)


@record("preset ttrt_ms ring_latency_ms access_delay_s access_delay_s_rounded golden_access_s "
        "efficiency_pct efficiency_pct_rounded golden_efficiency_pct")
class Table1Row:
    """One cell pair of the golden table: the computed values, rounded as
    printed, and the published ones."""

    @property
    def matches(self) -> bool:
        return (
            self.access_delay_s_rounded == self.golden_access_s
            and self.efficiency_pct_rounded == self.golden_efficiency_pct
        )


def table1_rows() -> list[Table1Row]:
    """All 18 (configuration, TTRT) rows, computed and checked against the
    golden values. Ring latencies are derived from the physical presets,
    never read from the table."""
    rows = []
    for name in ("typical", "big", "largest"):
        preset = PRESETS[name]
        d_ms = preset.ring_latency_ms()
        for ttrt in TABLE1_TTRT_MS:
            eff, delay_ms, _ = analytical.basic_model(RingParameters(preset.mac_count, ttrt, d_ms))
            delay_s = delay_ms / 1000.0
            golden_access, golden_eff = TABLE1_GOLDEN[name][ttrt]
            rows.append(
                Table1Row(
                    preset=name,
                    ttrt_ms=ttrt,
                    ring_latency_ms=d_ms,
                    access_delay_s=delay_s,
                    access_delay_s_rounded=paper_round(delay_s),
                    golden_access_s=golden_access,
                    efficiency_pct=eff * 100.0,
                    efficiency_pct_rounded=paper_round(eff * 100.0),
                    golden_efficiency_pct=golden_eff,
                )
            )
    return rows


# Sweep grids behind the figure presets. The TTRT grid dips below the legal
# 4 ms floor on purpose: the efficiency knee lives near the ring latency.
FIG_TTRT_GRID_MS: tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0,
    20.0, 30.0, 50.0, 80.0, 120.0, 165.0,
)
FIG3_TTRT_GRID_MS: tuple[float, ...] = (2.0, 4.0, 8.0, 20.0, 165.0)
FIG3_LOAD_PCT: tuple[int, ...] = (28, 58, 90)
FIG3_STATIONS = 40
FIG3_FIBER_KM = 8.0  # 0.2 km of fiber per office, as in the typical preset
EXTENT_GRID_KM: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
EXTENT_STATIONS = 100
ACTIVE_MACS_GRID: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
FRAME_SIZE_GRID_BYTES: tuple[int, ...] = (100, 250, 500, 1000, 2000, 4500)
FIGURE_TTRT_MS = 8.0  # the paper's TTRT: the CLI default; fixed in the extent/active/frame sweeps


@record("description var sweep_var grid rings", loads=(None,), mode="analytical",
        ttrt_ms=FIGURE_TTRT_MS, n_active=None, frame_bytes=None)
class Figure:
    """A sweep as data: every ring, at every load, at every grid point.

    var is the swept input (ttrt, extent, total_stations, active_macs or
    frame_size) and sweep_var the label the CSV gives it. A ring is (preset
    or '', MACs, fiber km), None where the sweep sets it. A load is a bursty
    (WIC) utilization in percent, or None: the closed form, or saturated
    stations when simulated. mode is analytical, simulate or both. The
    inputs not swept are ttrt_ms, n_active (None: every MAC) and frame_bytes
    (None: the basic model). A custom --var/--grid sweep is an unnamed Figure.
    """


_RINGS = {name: (name, p.mac_count, p.fiber_km) for name, p in PRESETS.items()}
# Each pair of closed-form figures plots two columns of the same rows.
_TTRT = dict(var="ttrt", sweep_var="ttrt", grid=FIG_TTRT_GRID_MS,
             rings=tuple(_RINGS.values()))
_EXTENT = dict(var="extent", sweep_var="extent_km", grid=EXTENT_GRID_KM,
               rings=(("", EXTENT_STATIONS, None),))
_ACTIVE = dict(var="active_macs", sweep_var="active_macs", grid=ACTIVE_MACS_GRID,
               rings=(_RINGS["largest"],))
_FRAME = dict(var="frame_size", sweep_var="frame_bytes", grid=FRAME_SIZE_GRID_BYTES,
              rings=(_RINGS["largest"],))

FIGURES: dict[str, Figure] = {
    "fig1": Figure("efficiency vs TTRT for the three preset rings (analytical)", **_TTRT),
    "fig2": Figure("max access delay vs TTRT for the three preset rings (analytical)",
                   **_TTRT),
    "fig3": Figure(
        "mean response time vs TTRT under the bursty workload at three load levels "
        "(simulated, 40 stations)",
        var="ttrt", sweep_var="ttrt", grid=FIG3_TTRT_GRID_MS,
        rings=(("", FIG3_STATIONS, FIG3_FIBER_KM),), loads=FIG3_LOAD_PCT, mode="simulate",
    ),
    "fig4": Figure("efficiency vs ring extent, 100 stations in a star (analytical)",
                   **_EXTENT),
    "fig5": Figure("max access delay vs ring extent (analytical)", **_EXTENT),
    "fig6": Figure("efficiency vs number of active MACs on the largest ring (analytical)",
                   **_ACTIVE),
    "fig7": Figure("max access delay vs number of active MACs (analytical)", **_ACTIVE),
    "fig8": Figure("efficiency vs frame size on the largest ring (analytical)", **_FRAME),
    "fig9": Figure("max access delay vs frame size (analytical)", **_FRAME),
}
