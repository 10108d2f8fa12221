"""Signal traces: per-millisecond recordings of signal values.

PROPANE "is capable of creating traces of individual variables ...
during the execution.  Each trace of a variable from an injection
experiment is compared to the corresponding trace in the Golden Run"
(Section 6).  The traces here have millisecond resolution, like the
paper's ("The traces obtained during execution have millisecond
resolution for every logged variable", Section 7.3).

These classes are pure data structures; recording is done by the
runtime (:mod:`repro.simulation.runtime`) and comparison semantics by
the Golden Run machinery (:mod:`repro.injection.golden_run`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.model.errors import TraceMismatchError

__all__ = ["SignalTrace", "TraceSet", "first_difference"]


def first_difference(mine: bytes, theirs: bytes, lo: int, hi: int) -> int | None:
    """First sample in ``[lo, hi)`` where two packed ``'q'`` buffers differ.

    ``None`` when they agree there.  Compares raw bytes: ``bytes``
    equality is one memcmp, where a ``'q'`` memoryview comparison
    unpacks element by element.
    """
    if mine[lo * 8 : hi * 8] == theirs[lo * 8 : hi * 8]:
        # Most signals agree with the Golden Run in most injection runs.
        return None
    # Bisect on sample-aligned byte slices; the invariant is that the
    # first differing sample lies in ``[lo, hi)``.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mine[lo * 8 : mid * 8] != theirs[lo * 8 : mid * 8]:
            hi = mid
        else:
            lo = mid
    return lo


@dataclass
class SignalTrace:
    """The recorded value of one signal, one sample per millisecond.

    ``samples[t]`` is the signal's raw value at the end of millisecond
    ``t``.

    Samples are stored in a compact ``array('q')`` (signed 64-bit, so
    every raw value of signals up to 63 bits wide fits): campaigns hold
    a Golden Run trace set per test case, and the packed layout is ~8×
    smaller than a list of Python ints while comparing at C speed.  Any
    iterable of ints is accepted at construction; the sequence
    interface (indexing, slicing, ``len``, ``append``, iteration) is
    unchanged.

    A ``memoryview`` of format ``'q'`` is kept as-is instead of being
    copied: the batched backend hands out each injection run's traces
    as views of its lane's row in one shared trace buffer
    (:mod:`repro.simulation.batched`).  View-backed traces are
    read-only: ``append`` raises, and the batched views reject item
    assignment too.
    """

    signal: str
    samples: array = field(default_factory=lambda: array("q"))

    def __post_init__(self) -> None:
        samples = self.samples
        if isinstance(samples, array) and samples.typecode == "q":
            return
        if isinstance(samples, memoryview) and samples.format == "q":
            return  # zero-copy view (e.g. a batched lane's row)
        self.samples = array("q", samples)

    def append(self, value: int) -> None:
        """Record the next millisecond's value."""
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> int:
        return self.samples[index]

    def first_divergence(self, reference: "SignalTrace") -> int | None:
        """Index of the first sample differing from ``reference``.

        Returns ``None`` when the traces agree everywhere.  "The
        comparison stopped as soon as the first difference between the
        GR trace and the IR trace was encountered" (Section 7.3).
        """
        if reference.signal != self.signal:
            raise TraceMismatchError(
                f"comparing trace of {self.signal!r} against {reference.signal!r}"
            )
        if len(reference) != len(self):
            raise TraceMismatchError(
                f"trace of {self.signal!r}: length {len(self)} vs "
                f"reference length {len(reference)}"
            )
        return first_difference(
            bytes(self.samples), bytes(reference.samples), 0, len(self)
        )

    def differs_from(self, reference: "SignalTrace") -> bool:
        """Whether any sample differs from ``reference``."""
        return self.first_divergence(reference) is not None

    def values_between(self, start_ms: int, end_ms: int) -> Sequence[int]:
        """Samples in the half-open interval ``[start_ms, end_ms)``."""
        return self.samples[start_ms:end_ms]


class TraceSet:
    """A collection of :class:`SignalTrace` objects of equal length."""

    def __init__(self, traces: Iterable[SignalTrace] = ()) -> None:
        self._traces: dict[str, SignalTrace] = {}
        for trace in traces:
            self.add(trace)

    def add(self, trace: SignalTrace) -> None:
        """Add a trace; the signal must not be present already."""
        if trace.signal in self._traces:
            raise TraceMismatchError(f"duplicate trace for signal {trace.signal!r}")
        self._traces[trace.signal] = trace

    def __contains__(self, signal: str) -> bool:
        return signal in self._traces

    def __getitem__(self, signal: str) -> SignalTrace:
        try:
            return self._traces[signal]
        except KeyError:
            raise TraceMismatchError(f"no trace recorded for signal {signal!r}") from None

    def __iter__(self) -> Iterator[SignalTrace]:
        return iter(self._traces.values())

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def signals(self) -> tuple[str, ...]:
        """Signals with recorded traces, in recording order."""
        return tuple(self._traces)

    @property
    def duration_ms(self) -> int:
        """Number of samples (identical across all traces)."""
        if not self._traces:
            return 0
        return len(next(iter(self._traces.values())))

    def check_rectangular(self) -> None:
        """Verify all traces have equal length."""
        lengths = {len(trace) for trace in self._traces.values()}
        if len(lengths) > 1:
            raise TraceMismatchError(
                f"traces have inconsistent lengths: {sorted(lengths)}"
            )

    def first_divergences(
        self, reference: "TraceSet"
    ) -> dict[str, int | None]:
        """Per-signal first divergence against a reference trace set.

        Both sets must cover the same signals.
        """
        if set(reference.signals) != set(self.signals):
            missing = set(reference.signals) ^ set(self.signals)
            raise TraceMismatchError(
                f"trace sets cover different signals; mismatched: {sorted(missing)}"
            )
        return {
            signal: self._traces[signal].first_divergence(reference[signal])
            for signal in self.signals
        }

    def to_mapping(self) -> Mapping[str, list[int]]:
        """Plain ``{signal: samples}`` view (copies the sample lists)."""
        return {signal: list(trace.samples) for signal, trace in self._traces.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceSet signals={len(self._traces)} duration={self.duration_ms}ms>"
