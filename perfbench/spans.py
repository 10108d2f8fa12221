"""In-memory span recording and self-time arithmetic for the traced run.

A span is one call across a layer boundary: its name, start, end, the
span that was open when it started (its parent) and the injection run
it belongs to.  Spans stay in memory while the workload runs and are
written out once at the end (:meth:`Tracer.dump`); a forked pool
worker dumps its own file when it exits and the parent merges them
(:func:`merge_dumps`).

Self time is a span's duration minus the part of it its child spans
cover.  :class:`Tracer` computes it online as spans close;
:func:`self_times` recomputes it offline from recorded spans, and the
self-tests pin the two against each other on a synthetic tree.

Per-frame spans (one per simulated millisecond, millions per campaign)
are *folded*: they update their name's totals and their parent's child
time as they close, but are not kept individually, so the trace stays
small while every coarser span's self time still excludes them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "merge_dumps",
    "self_times",
    "tail_percentile",
]


@dataclass(frozen=True)
class Span:
    """One closed, recorded span."""

    span_id: int
    parent_id: int | None
    run_id: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's cover.

    Children are the spans naming it as parent.  Their intervals are
    clipped to the parent's and merged before subtracting, so
    overlapping children (which nested calls never produce, but a
    hand-built tree might) are not counted twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` from the ladder 50, 90, 99, 99.9,
    or ``None`` with fewer than twenty samples (not even the median has
    ten samples above it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9):
        index = int(n * pct / 100.0)
        if n - index - 1 >= 10:
            best = (pct, ordered[index])
    return best


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "run_id", "start", "child")

    def __init__(self, name, span_id, parent_id, run_id, start):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.start = start
        self.child = 0.0


class Tracer:
    """Records nested spans of one process.

    ``totals[name]`` holds ``[calls, total seconds, self seconds]`` for
    every span name, folded or recorded; ``durations[name]`` keeps each
    call's duration for names listed in ``sampled``; ``counts`` holds
    free-form counters the layer wrappers add (frames fast-forwarded,
    bytes written, ...).
    """

    def __init__(
        self,
        folded: Iterable[str] = (),
        sampled: Iterable[str] = (),
        run_names: Iterable[str] = (),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.folded = frozenset(folded)
        self.sampled = frozenset(sampled)
        self.run_names = frozenset(run_names)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from here)."""
        self.pid = os.getpid()
        self.stack: list[_Frame] = []
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self._next_id = 0
        self._run_id: int | None = None

    # -- recording ------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        self._next_id += 1
        span_id = self._next_id
        stack = self.stack
        parent = stack[-1].span_id if stack else None
        if name in self.run_names:
            # An injection run opens: it and everything until the next
            # run opens (its GRC, its outcome events) share its id.
            self._run_id = span_id
        frame = _Frame(name, span_id, parent, self._run_id, self.clock())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            # A span left open inside this one (an exception between
            # enter and exit) is closed with it.
            del stack[stack.index(frame):]
        duration = end - frame.start
        self_s = duration - frame.child
        if stack:
            stack[-1].child += duration
        name = frame.name
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_s
        if name in self.sampled:
            self.durations.setdefault(name, []).append(duration)
        if name not in self.folded:
            self.spans.append(
                Span(frame.span_id, frame.parent_id, frame.run_id, name,
                     frame.start, end)
            )
        return duration

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` — a span around a block."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- output ---------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "pid": self.pid,
            "totals": self.totals,
            "durations": self.durations,
            "counts": self.counts,
            "spans": [
                [s.span_id, s.parent_id, s.run_id, s.name, s.start, s.end]
                for s in self.spans
            ],
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_jsonable()), encoding="utf-8")
        os.replace(tmp, path)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._frame = self._tracer.enter(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.exit(self._frame)


def merge_dumps(dumps: Iterable[dict]) -> dict:
    """Sum totals, durations and counts of several process dumps."""
    totals: dict[str, list] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    n = 0
    for dump in dumps:
        n += 1
        for name, (calls, total, own) in dump["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, values in dump["durations"].items():
            durations.setdefault(name, []).extend(values)
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"processes": n, "totals": totals, "durations": durations,
            "counts": counts}
