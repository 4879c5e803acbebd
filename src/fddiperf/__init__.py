"""Performance toolkit for FDDI timed-token rings.

Closed-form efficiency and access-delay models, a deterministic
discrete-event simulator of the timed-token MAC, bursty workload
generation, metric aggregation, and a CSV sweep harness.
"""

from .analytical import (
    AnalyticalResult,
    PhysicalRing,
    RingParameters,
    RingSaturatedError,
    TtrtValidation,
    asymptotic_efficiency,
    basic_model,
    efficiency,
    frame_time_ms,
    frames_per_opportunity,
    max_access_delay,
    overflow_model,
    ring_latency,
    single_station_efficiency,
    validate_ttrt,
)
from .metrics import MetricsReport, SampleStats, summarize
from .presets import PRESETS, Preset, paper_round, table1_rows
from .simcore import (
    InvariantViolation,
    RingConfig,
    RunResult,
    run,
)
from .workload import SaturationWorkload, ScriptedWorkload, WicWorkload

__all__ = [
    "AnalyticalResult",
    "InvariantViolation",
    "MetricsReport",
    "PRESETS",
    "PhysicalRing",
    "Preset",
    "RingConfig",
    "RingParameters",
    "RingSaturatedError",
    "RunResult",
    "SampleStats",
    "SaturationWorkload",
    "ScriptedWorkload",
    "TtrtValidation",
    "WicWorkload",
    "asymptotic_efficiency",
    "basic_model",
    "efficiency",
    "frame_time_ms",
    "frames_per_opportunity",
    "max_access_delay",
    "overflow_model",
    "paper_round",
    "ring_latency",
    "run",
    "single_station_efficiency",
    "summarize",
    "table1_rows",
    "validate_ttrt",
]

__version__ = "0.1.0"
