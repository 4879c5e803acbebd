"""Performance toolkit for FDDI timed-token rings.

Closed-form efficiency and access-delay models, a deterministic
discrete-event simulator of the timed-token MAC, bursty workload
generation, metric aggregation, and a CSV sweep harness.
"""

# PEP 562: an export, or a submodule named in _HOMES, is imported on first access.
_HOMES = {
    "analytical": "AnalyticalResult PhysicalRing RingParameters RingSaturatedError "
                  "TtrtValidation basic_model efficiency frame_time_ms max_access_delay "
                  "overflow_model ring_latency validate_ttrt",
    "metrics": "MetricsReport SampleStats summarize",
    "presets": "PRESETS Preset paper_round table1_rows",
    "simcore": "InvariantViolation RingConfig RunResult run",
    "workload": "SaturationWorkload ScriptedWorkload WicWorkload",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return __import__(f"{__name__}.{name}", fromlist=["_"])
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
