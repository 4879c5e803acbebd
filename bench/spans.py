"""Traced run: in-memory spans around the calls into each fddiperf layer.

The wrappers are set on the package's module and class attributes from
here while a traced pass runs, and taken off again after it, so the
program is unchanged and every number is taken at a call into a layer.
A span is (layer, start_ns, end_ns, parent index). A layer's self time is
the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from contextlib import contextmanager

import checks


class PassTrace:
    """Spans, counts and RunResult digests of one traced pass."""

    def __init__(self, digests: bool):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self.digests: list[tuple[str, str]] | None = [] if digests else None
        self.problems: list[str] = []

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(self time in ns, call count) per layer."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (layer, start, end, _) in enumerate(self.spans):
            self_ns[layer] += end - start - child_ns[i]
            calls[layer] += 1
        return self_ns, calls


def run_digest(result) -> str:
    """sha256 over a RunResult's samples, counters and time accounting."""
    b = result.boundary
    fields = (
        result.duration_ns, result.seed, result.completed_bits, result.completed_frames,
        result.station_bits, result.response_samples, result.access_samples,
        result.rotation_count, result.max_rotation_ns, result.trt_violations,
        result.trt_bound_enforced, result.busy_ns, result.overhead_ns, result.idle_ns,
        (b.at_ns, b.completed_bits, b.busy_ns, b.station_bits), result.sourced_stations,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def run_label(result) -> str:
    cfg = result.config
    return (f"stations={cfg.n_stations} ttrt_ms={cfg.ttrt_ms!r} overflow={cfg.async_overflow} "
            f"duration_ns={result.duration_ns} seed={result.seed}")


class Tracer:
    def __init__(self):
        from fddiperf import analytical, cli, metrics, presets, simcore, workload

        self._stack: list[int] = []
        self.current = PassTrace(digests=False)
        self._targets = [
            (simcore, "run", "simcore", self._after_run),
            (workload.WicGenerator, "next_burst", "workload", None),
            (metrics, "summarize", "metrics", self._after_summarize),
            (presets, "table1_rows", "analytical", None),
            (cli, "_write_rows", "csv", self._after_write),
        ] + [
            (analytical, name, "analytical", None)
            for name in ("ring_latency", "efficiency", "max_access_delay",
                         "basic_model", "overflow_model")
        ]

    def span(self, layer: str, fn, after=None):
        """fn wrapped in a span of the given layer; after(args, result)
        runs once the span has closed."""
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            spans = tracer.current.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if after is not None:
                after(args, out)
            return out

        return traced

    @contextmanager
    def installed(self, pass_trace: PassTrace):
        """Wrap every layer's entry points for the duration of one pass."""
        self.current = pass_trace
        originals = [(owner, name, getattr(owner, name)) for owner, name, _, _ in self._targets]
        try:
            for owner, name, layer, after in self._targets:
                setattr(owner, name, self.span(layer, getattr(owner, name), after))
            yield
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)

    def _after_run(self, args, result) -> None:
        cur = self.current
        cur.counts["token_visits"] += result.rotation_count
        cur.counts["frames"] += result.completed_frames
        cur.problems += checks.accounting_problems(result)
        if cur.digests is not None:
            cur.digests.append((run_label(result), run_digest(result)))

    def _after_summarize(self, args, report) -> None:
        result = args[0]
        self.current.counts["samples"] += len(result.response_samples) + len(result.access_samples)

    def _after_write(self, args, _) -> None:
        rows, out_path = args
        self.current.counts["rows"] += len(rows)
        if out_path:
            self.current.counts["bytes"] += os.path.getsize(out_path)
