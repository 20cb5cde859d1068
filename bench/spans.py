"""Spans and work counters recorded from the benchmark's side of each call.

The benchmark times every call it makes into a ``costcal`` module as a
span: name, start, end, parent span, task id, and the partial-loss work
done inside it.  Work is counted outside-in, by wrapping the partial
losses of every loss the benchmark builds, so the library itself is run
unmodified.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np


class WorkCounter:
    """Partial-loss evaluations: calls, score points, and scalar calls."""

    __slots__ = ("calls", "points", "scalar_calls")

    def __init__(self) -> None:
        self.calls = 0
        self.points = 0
        self.scalar_calls = 0

    def snapshot(self) -> tuple[int, int, int]:
        return self.calls, self.points, self.scalar_calls


def counted_loss(loss, counter: WorkCounter):
    """Copy of ``loss`` whose partial losses count their evaluations.

    ``dataclasses.replace`` keeps the family tag, so the closed-form
    dispatch sees the same loss as without the wrapper.
    """

    def wrap(fn):
        def counted(t):
            counter.calls += 1
            if isinstance(t, np.ndarray) and t.ndim:
                counter.points += t.size
            else:
                counter.points += 1
                counter.scalar_calls += 1
            return fn(t)

        return counted

    return replace(
        loss,
        pos=replace(loss.pos, fn=wrap(loss.pos.fn)),
        neg=replace(loss.neg, fn=wrap(loss.neg.fn)),
    )


class Span(NamedTuple):
    name: str
    task: object
    parent: int
    start: float
    end: float
    calls: int
    points: int
    scalar_calls: int


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    task = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def tally(self, name, value) -> None:
        pass


class Tracer:
    """Records one span per call, nested by call order."""

    def __init__(self, counter: WorkCounter) -> None:
        self.counter = counter
        self.spans: list[Span | None] = []
        self.tallies: dict[str, list[float]] = defaultdict(list)
        self.task: object = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        before = self.counter.snapshot()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            after = self.counter.snapshot()
            self._open.pop()
            self.spans[index] = Span(
                name, self.task, parent, start, end, *(a - b for a, b in zip(after, before))
            )

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def tally(self, name, value) -> None:
        """Record a per-call quantity, such as the knots of a returned curve."""
        self.tallies[name].append(value)


def self_seconds(spans: list[Span], durations: list[float]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` is a prefix of a tracer's spans, so parents index into it.
    """
    own = list(durations)
    for s, d in zip(spans, durations):
        if s.parent >= 0:
            own[s.parent] -= d
    return own


def layer_table(spans: list[Span], durations: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time, and partial-loss work."""
    own = self_seconds(spans, durations)
    table: dict[str, dict[str, float]] = {}
    for s, total_s, self_s in zip(spans, durations, own):
        row = table.setdefault(
            s.name,
            {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "partial_calls": 0, "partial_points": 0},
        )
        row["calls"] += 1
        row["total_ms"] += total_s * 1e3
        row["self_ms"] += self_s * 1e3
        row["partial_calls"] += s.calls
        row["partial_points"] += s.points
    return table


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e3
    return out


def import_times(python: str, env: dict, cwd: str, launches: int) -> dict[str, float]:
    """Median cumulative import time per module over fresh interpreter launches."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(launches):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import costcal, costcal.cli"],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        for module, ms in parse_importtime(proc.stderr).items():
            samples[module].append(ms)
    return {module: statistics.median(v) for module, v in samples.items()}
