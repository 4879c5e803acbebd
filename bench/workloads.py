"""The benchmark's three workloads: the fddiperf commands each pass runs,
made from the seed, and the check each command's CSV must pass.

saturated-1000   three saturated simulations of the largest ring (the
                 timed-token holding path does all the work)
fig3-bursty      the published simulated figure: bursty WIC traffic on
                 40 stations (queues, burst generation, percentiles)
analytic-sweeps  table1 and every closed-form sweep (row assembly, the
                 closed forms and CSV emission; no simulation)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

# Quick mode: simulated time per run, short enough for seconds per workload.
QUICK_DURATION_MS = "100"

FIG3_POINTS = 15  # 3 loads x 5 TTRTs
DENSE_POINTS = 400
DENSE_STEP_MS = 0.42
DENSE_FIRST_MS = 0.25  # below the largest ring's 2.017 ms latency


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Callable[[list[dict]], list[str]]


def saturated(seed: int, quick: bool) -> list[Command]:
    extra = ("--duration-ms", QUICK_DURATION_MS) if quick else ()
    base = ("simulate", "--preset", "largest", "--frame-bytes", "100", "--seed", str(seed)) + extra
    return [
        Command("ttrt8", base + ("--ttrt", "8"), checks.saturated_problems),
        Command("ttrt165", base + ("--ttrt", "165"), checks.saturated_problems),
        Command("ttrt165-no-overflow", base + ("--ttrt", "165", "--no-overflow"),
                checks.saturated_problems),
    ]


def bursty(seed: int, quick: bool) -> list[Command]:
    extra = ("--duration-ms", QUICK_DURATION_MS) if quick else ()
    return [
        Command(
            "fig3",
            ("sweep", "--figure", "fig3", "--seed", str(seed)) + extra,
            lambda rows: checks.bursty_problems(rows, seed, FIG3_POINTS),
        )
    ]


def dense_grid(seed: int) -> str:
    """DENSE_POINTS TTRT values from just above 0.25 ms to about 168 ms,
    shifted by a seeded offset so each seed sweeps other points."""
    offset = random.Random(seed).uniform(0.0, DENSE_STEP_MS)
    return ",".join(
        repr(round(DENSE_FIRST_MS + offset + i * DENSE_STEP_MS, 6)) for i in range(DENSE_POINTS)
    )


def analytic(seed: int, quick: bool) -> list[Command]:
    figures = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")
    return (
        [Command("table1", ("table1",), checks.table1_problems)]
        + [Command(f, ("sweep", "--figure", f), checks.analytical_problems) for f in figures]
        + [
            Command(
                "dense-ttrt",
                ("sweep", "--var", "ttrt", "--grid", dense_grid(seed),
                 "--preset", "largest", "--frame-bytes", "512"),
                checks.analytical_problems,
            )
        ]
    )


WORKLOADS: dict[str, Callable[[int, bool], list[Command]]] = {
    "saturated-1000": saturated,
    "fig3-bursty": bursty,
    "analytic-sweeps": analytic,
}
