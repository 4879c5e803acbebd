"""The closed-form path runs only closed-form code: what importing the CLI and
its closed-form commands loads, the package's exports resolved on first
access, rounding without decimal, and CSV rows written in one call."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fddiperf
from fddiperf import cli
from fddiperf.presets import paper_round

SRC = str(Path(__file__).resolve().parent.parent / "src")
# array is a compiled extension that only a run's completion times need
SIMULATOR = {"fddiperf.simcore", "fddiperf.samples", "fddiperf.metrics", "fddiperf.workload",
             "random", "decimal", "array"}


def _python(code: str, cwd: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.splitlines()


def test_closed_form_commands_load_no_simulator(tmp_path):
    # counted against the interpreter's own start-up, which may load random
    code = (
        "import sys; before = set(sys.modules)\n"
        "from fddiperf import cli\n"
        "def loaded(): return ' '.join(sorted(set(sys.modules) - before))\n"
        "steps = [loaded()]\n"
        "assert cli.main(['analyze', '--preset', 'big', '--ttrt', '8']) == 0\n"
        "assert cli.main(['validate', '--ttrt', '8', '--preset', 'typical']) == 0\n"
        "steps.append(loaded())\n"
        "assert cli.main(['table1', '--out', 't.csv']) == 0\n"
        "assert cli.main(['sweep', '--figure', 'fig1', '--out', 'f.csv']) == 0\n"
        "steps.append(loaded())\n"
        "print(*steps, sep='\\n')\n"
    )
    on_import, closed_form, writing = (set(line.split()) for line in _python(code, tmp_path)[-3:])
    assert "fddiperf.cli" in on_import
    assert not on_import & (SIMULATOR | {"csv"})
    assert not closed_form & (SIMULATOR | {"csv"})
    assert "csv" in writing
    assert not writing & SIMULATOR


def test_the_package_resolves_its_exports_on_first_access(tmp_path):
    code = ("import sys, fddiperf\n"
            "print(sorted(m for m in sys.modules if m.startswith('fddiperf.')))\n"
            "from fddiperf import run, RingConfig, summarize, WicWorkload\n"
            "print(run.__module__, RingConfig.__module__, summarize.__module__, "
            "WicWorkload.__module__)\n")
    assert _python(code, tmp_path) == [
        "[]", "fddiperf.simcore fddiperf.simcore fddiperf.metrics fddiperf.workload"]
    for name in fddiperf.__all__:
        value = getattr(fddiperf, name)
        assert getattr(sys.modules[f"fddiperf.{fddiperf._MODULE_OF[name]}"], name) is value
    with pytest.raises(AttributeError):
        fddiperf.no_such_export


def test_the_package_imports_its_submodules_on_first_access(tmp_path):
    # before exports were lazy, `import fddiperf` loaded every submodule
    code = ("import sys, fddiperf\n"
            "names = dir(fddiperf)\n"
            "print(all(n in names for n in fddiperf.__all__ + ['simcore', 'workload']))\n"
            "print(fddiperf.simcore.run is sys.modules['fddiperf.simcore'].run, "
            "fddiperf.analytical.__name__, fddiperf.metrics.__name__)\n")
    assert _python(code, tmp_path) == ["True", "True fddiperf.analytical fddiperf.metrics"]


def _decimal_round(value: float, places: int) -> float:
    """The rounding paper_round replaced: half away from zero on repr's digits."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-10**7, 10**7).map(lambda i: i / 1000),  # ties at 2 places
                 st.integers(-10**8, 10**8).map(lambda i: i / 10000)),  # ties at 3 places
       st.sampled_from([2, 3]))
@example(2.675, 2)
@example(0.005, 2)
@example(-0.125, 2)
@example(-0.0, 2)
@example(-0.001, 2)
@example(-0.0005, 3)
@example(1e-05, 2)
@example(-2.5e-07, 3)
@example(1.5e+16, 2)
@example(1e+30, 2)
@example(12345678901.125, 2)  # a tie with eleven whole digits
@example(-1.5e+20, 2)
@example(1e+300, 3)  # past decimal's context, and returned as it is
def test_paper_round_matches_decimal(value, places):
    try:
        expected = _decimal_round(value, places)
    except InvalidOperation:  # too many digits for decimal's context: a whole number
        assert paper_round(value, places) == value
        return
    assert repr(paper_round(value, places)) == repr(expected)  # -0.0 keeps its sign


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_paper_round_refuses_what_is_not_finite(value):
    with pytest.raises(ValueError):
        paper_round(value)


def _fmt(value) -> str:
    """How each cell was formatted before rows were written in one call."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_writer(rows: list[dict]) -> str:
    """The writer _write_rows replaced: one _fmt call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in cli.CSV_COLUMNS])
    return buf.getvalue()


def _cell(rng: random.Random):
    return rng.choice([
        None, rng.randrange(-10**6, 10**6), rng.uniform(-1e3, 1e3), -0.0, 5e-324, 1e300,
        math.inf, math.nan, rng.random() * 10.0 ** rng.randrange(-30, 30), "",
        "saturated_by_latency", 'a "quoted", text', "two\nlines", " padded ",
    ])


@pytest.mark.parametrize("seed", range(20))
def test_rows_write_as_the_per_cell_writer_wrote_them(seed):
    rng = random.Random(seed)
    rows = []
    for _ in range(rng.randrange(0, 30)):
        row = cli._base_row(**{col: _cell(rng) for col in cli.CSV_COLUMNS})
        row["async_overflow"] = rng.choice([None, True, False])
        rows.append(row)
    expected = _fmt_writer(rows)
    # a row holds the overflow switch as text
    for row in rows:
        if row["async_overflow"] is not None:
            row["async_overflow"] = _fmt(row["async_overflow"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._write_rows(rows, None)
    assert buf.getvalue() == expected
