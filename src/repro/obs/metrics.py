"""Metrics registry: counters, gauges and fixed-bucket histograms.

The campaign engine needs to answer "where does the wall-clock go?"
without a profiler attached: how long the Golden-Run phase took, what a
checkpoint save/restore costs, how per-IR suffix simulation compares to
the Golden-Run comparison, and how worker chunks are distributed.  The
registry here is the zero-dependency answer: named :class:`Counter`,
:class:`Gauge` and :class:`Histogram` instruments plus a
:meth:`MetricsRegistry.timer` span helper, all dumpable to a plain JSON
document (``metrics.json`` next to the campaign results).

What a campaign *counts* is not written here directly: the observer
folds its event stream and renders the counters and gauges into the
registry once, at the end (:meth:`MetricsRegistry.update`).  What it
*measures* — span timers and the batched kernel's instruments — is.
Worker processes run their own registry for those, ship
:meth:`MetricsRegistry.to_dict` snapshots back over the existing
chunk-result channel, and the parent folds them in with
:meth:`MetricsRegistry.merge` — counters and histogram buckets add,
gauges keep the most recent value.
"""

from __future__ import annotations

import json
import math
import time
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_MS_BUCKETS",
]

#: Default histogram bucket upper bounds for span timers, in seconds.
#: Spans range from sub-millisecond checkpoint restores to multi-minute
#: campaign phases, hence the roughly logarithmic spacing.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
    0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: Default bucket bounds for *simulated-millisecond* quantities (error
#: lifetimes, skipped frames).  The paper's target runs for 8000 ms and
#: schedules in 7 ms cycles, hence the cycle-aligned low end.
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 7.0, 14.0, 49.0, 100.0, 500.0, 1000.0, 4000.0, 8000.0,
)


class Counter:
    """A monotonically increasing count (events, runs, bytes...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot add {amount}")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time value (queue depth, workers, skipped fraction)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are upper bounds of the counting buckets; observations
    above the last bound land in the implicit overflow bucket.  The
    fixed layout keeps snapshots mergeable across processes.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r}: buckets must be ascending")
        self.name = name
        self.buckets: tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.total = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class _SpanTimer:
    """Context manager feeding elapsed seconds into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """Named instruments with get-or-create access and JSON snapshots."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)

    def timer(self, name: str) -> _SpanTimer:
        """Span timer: ``with metrics.timer("phase.golden_run"): ...``"""
        return _SpanTimer(self.histogram(name))

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[str]:
        return iter(self._instruments)

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain JSON-serialisable snapshot of every instrument."""
        return {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) in.

        Counters and histogram buckets add; gauges take the snapshot's
        value.  Histograms must share their bucket layout.
        """
        for name, data in snapshot.items():
            kind = data["type"]
            if kind == "counter":
                self.counter(name).inc(int(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(data["value"])
            elif kind == "histogram":
                histogram = self.histogram(name, buckets=data["buckets"])
                if list(histogram.buckets) != list(data["buckets"]):
                    raise ValueError(
                        f"histogram {name!r}: bucket layout mismatch on merge"
                    )
                for index, count in enumerate(data["counts"]):
                    histogram.counts[index] += count
                histogram.total += data["sum"]
                histogram.count += data["count"]
                if data["count"]:
                    histogram.min = min(histogram.min, data["min"])
                    histogram.max = max(histogram.max, data["max"])
            else:
                raise ValueError(f"unknown instrument type {kind!r} for {name!r}")

    def update(self, snapshot: Mapping[str, Mapping]) -> None:
        """Set instruments to a :meth:`to_dict` snapshot's values.

        Same-named instruments are replaced, where :meth:`merge` adds.
        """
        for name in snapshot:
            self._instruments.pop(name, None)
        self.merge(snapshot)

    def dump_json(self, path) -> None:
        """Write the snapshot as an indented ``metrics.json`` document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_dict(cls, snapshot: Mapping[str, Mapping]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._instruments)} instruments>"
