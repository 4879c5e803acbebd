"""The package's record types: built and copied with their checks, equal
only to records of their own type, immutable and hashable as frozen
records, while RunResult stays a weakly referenceable, field-by-field
comparable namespace. Also that importing the CLI loads none of the
modules the records and the lazy config parser keep out of start-up."""

from __future__ import annotations

import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from fddiperf import cli
from fddiperf.analytical import PhysicalRing, RingParameters, basic_model, validate_ttrt
from fddiperf.metrics import summarize
from fddiperf.presets import FIGURES, PRESETS, table1_rows
from fddiperf.simcore import RingConfig, RunResult, run
from fddiperf.workload import SaturationWorkload, ScriptedWorkload, WicWorkload


def _bursty_run(ttrt_ms: float = 8.0) -> RunResult:
    config = RingConfig.uniform(6, 2.0, ttrt_ms)
    return run(config, WicWorkload.for_utilization(0.3, 6), duration_ms=20.0, seed=3)


def _records() -> list:
    result = _bursty_run()
    report = summarize(result)
    return [
        RingParameters(4, 8.0, 0.1, 0.04), PhysicalRing(1.0, 4),
        basic_model(RingParameters(4, 8.0, 0.1)), validate_ttrt(3.0, 0.1),
        report.response_time, report, PRESETS["big"], table1_rows()[0], FIGURES["fig3"],
        result.config, result.boundary, WicWorkload(5.0), SaturationWorkload(),
        cli.OPTIONS["ttrt"], cli.COMMANDS["table1"],
    ]


_RECORDS = _records()


@pytest.mark.parametrize("rec", _RECORDS, ids=lambda rec: type(rec).__name__)
def test_record_equals_only_records_of_its_own_type(rec):
    assert rec == type(rec)(*rec)
    assert rec != tuple(rec)
    assert tuple(rec) != rec
    assert not rec == tuple(rec)


def test_bursty_workload_never_equals_a_saturated_one():
    # the same field values: a plain namedtuple pair would compare equal
    wic, sat = WicWorkload(5.0, None), SaturationWorkload(5, None)
    assert tuple(wic) == tuple(sat)
    assert wic != sat
    assert not wic == sat
    assert not sat == wic


@pytest.mark.parametrize("rec", _RECORDS, ids=lambda rec: type(rec).__name__)
def test_assigning_to_a_field_raises(rec):
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("rec", _RECORDS, ids=lambda rec: type(rec).__name__)
def test_frozen_records_are_hashable(rec):
    assert hash(rec) == hash(type(rec)(*rec))


def test_records_holding_a_dict_or_lists_are_not_hashable():
    with pytest.raises(TypeError):
        hash(ScriptedWorkload({0: [(1.0, [100])]}))
    with pytest.raises(TypeError):
        hash(_bursty_run())


@pytest.mark.parametrize("changes", [
    dict(ttrt_ms=float("nan")),
    dict(ttrt_ms=float("inf")),
    dict(segment_delays_us=(1.0, -0.5)),
    dict(segment_delays_us=(1.0, float("inf"))),
    dict(segment_delays_us=()),
    dict(token_time_us=-1.0),
])
def test_changed_ring_config_copy_is_checked(changes):
    config = RingConfig.uniform(2, 1.0, 8.0)
    with pytest.raises(ValueError):
        config._replace(**changes)
    with pytest.raises(ValueError):
        RingConfig(**{**config._asdict(), **changes})


def test_ring_config_hops_are_a_tuple():
    with pytest.raises(TypeError):
        RingConfig([1.0, 2.0], 8.0)


@pytest.mark.parametrize("rec,changes", [
    (RingParameters(4, 8.0, 0.1), dict(n_active=0)),
    (RingParameters(4, 8.0, 0.1), dict(ttrt_ms=float("nan"))),
    (PhysicalRing(1.0, 4), dict(fiber_km=-1.0)),
    (PhysicalRing(1.0, 4), dict(mac_count=1001)),
    (WicWorkload(5.0), dict(mean_interburst_ms=0.0)),
    (SaturationWorkload(), dict(frame_bytes=4501)),
])
def test_changed_copies_of_checked_records_are_checked(rec, changes):
    with pytest.raises(ValueError):
        rec._replace(**changes)
    with pytest.raises(ValueError):
        type(rec)(**{**rec._asdict(), **changes})


def test_changed_copy_keeps_the_other_fields():
    config = RingConfig.uniform(3, 1.0, 8.0, async_overflow=False)
    higher = config._replace(ttrt_ms=12.0)
    assert type(higher) is RingConfig
    assert higher.ttrt_ms == 12.0
    assert higher._replace(ttrt_ms=8.0) == config


def test_run_result_is_weakly_referenced_and_compared_field_by_field():
    result = _bursty_run()
    ref = weakref.ref(result)
    assert ref() is result
    assert result == _bursty_run()
    assert result != result._replace(seed=4)
    assert result._replace(seed=result.seed) == result
    del result
    assert ref() is None


def test_importing_the_cli_loads_no_slow_module():
    # measured against the interpreter's own start-up: a site hook may load
    # some of these first (typing, on some hosts), which no change here moves
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import fddiperf.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "fddiperf.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "configparser", "typing"}
