"""Pure event-stream state reducer: one live JSON-able campaign snapshot.

:class:`CampaignStateReducer` folds the recorded campaign event stream
(:class:`~repro.obs.events.CampaignStarted` ...
:class:`~repro.obs.events.CampaignFinished`) into a single snapshot
dict — progress and ETA, the evolving observed permeability matrix with
Wilson intervals per arc, the error-lifetime histogram, reconvergence
fraction and kernel/fast-forward counters.  The reducer is *pure* over
the stream: it never touches the campaign engine, so it works equally
against a live in-process event feed (:class:`~repro.obs.dash.sink.
DashboardSink`), a finished ``events.jsonl`` on disk, or a file still
being written (``repro dash --events ... --follow``).

Parity contract
---------------
The folding applies exactly the rules of the post-hoc analyses, the
same way :mod:`repro.obs.propagation` mirrors
:func:`~repro.injection.estimator.estimate_matrix`:

* :meth:`CampaignStateReducer.matrix_jsonable` over a complete stream
  equals ``estimate_matrix(result).to_jsonable()`` — same pair order
  (the manifest's module topology preserves system order), same
  denominators (every classified outcome counts, fired or not), same
  direct-error numerators (``propagated_outputs`` carries the Section
  7.3 verdict computed by the observer's propagation fold).
* :meth:`CampaignStateReducer.lifetime_statistics` equals
  :func:`repro.injection.latency.lifetime_statistics` field for field,
  including right-censoring and the linear-interpolated median.
* The run counters match :class:`~repro.injection.outcomes.
  CampaignResult` (``n_fired``/``n_reconverged``/
  ``reconverged_fraction``/``frames_fast_forwarded_total``).

The test suite pins all three down for serial and parallel campaigns
under both simulation backends (``tests/test_dash.py``).

The exact-parity matrix requires the event stream to come from an
observer that carried the system model (``CampaignObserver.to_files(...,
system=system)``): only then does ``OutcomeClassified.propagated_outputs``
hold the direct-error outputs rather than the system-less fallback.
"""

from __future__ import annotations

import json
import math
from collections import Counter as TallyCounter
from typing import Any, Iterable, Mapping

from repro.core.permeability import PermeabilityEstimate
from repro.obs.events import (
    ArcsPruned,
    BackendSelected,
    BudgetExhausted,
    CampaignFinished,
    CampaignStarted,
    CheckpointReused,
    CheckpointSaved,
    ChunkCompleted,
    InjectionFired,
    LintReported,
    OutcomeClassified,
    ParsedEvent,
    RoundCompleted,
    RunReconverged,
    RunStarted,
    TargetRetired,
    UnitReused,
    decode_event,
    read_events,
)
from repro.obs.metrics import DEFAULT_MS_BUCKETS

__all__ = ["CampaignStateReducer", "validate_snapshot", "SNAPSHOT_SCHEMA_VERSION"]

#: Version stamp of the snapshot document produced by
#: :meth:`CampaignStateReducer.snapshot`; bump on shape changes.
#: v2: ``counters.pruned`` (runs skipped by static pruning) and pruned
#: targets folded into the matrix denominators.
#: v3: ``counters.cached`` (runs reused from the result store; their
#: replayed OutcomeClassified events still drive the matrix, so the
#: counter is informational, not a denominator).
#: v4: ``adaptive`` section (rounds, retired targets with their
#: achieved Wilson half-widths and stopping reasons, open-target count)
#: fed by the TargetRetired/RoundCompleted/BudgetExhausted events of
#: ``--adaptive`` campaigns; all-zero for exhaustive streams.
SNAPSHOT_SCHEMA_VERSION = 4

#: Metric names surfaced in the snapshot's ``metrics`` subset (the full
#: registry stays in ``metrics.json``; the dashboard shows the headline
#: kernel and fast-forward instruments).
_SNAPSHOT_METRICS = (
    "ff.runs_reconverged",
    "ff.frames_fast_forwarded",
    "kernel.lanes.active",
    "kernel.lanes.retired",
    "kernel.fallback.runs",
    "kernel.scalar_fallback.modules",
    "checkpoint.saved",
    "checkpoint.reused",
    "simulated_ms.skipped",
    "events.dropped",
)


def _percentile(sorted_values: list[int], fraction: float) -> float:
    """Linear-interpolated percentile, identical to
    :func:`repro.injection.latency._percentile`."""
    if not sorted_values:
        raise ValueError("no samples")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


class CampaignStateReducer:
    """Incremental fold of campaign events into one snapshot dict.

    Feed envelopes with :meth:`feed` (raw dict), :meth:`feed_parsed`
    (typed) or :meth:`feed_line` (JSONL text, tolerant of truncation);
    read the current state with :meth:`snapshot` at any point — the
    snapshot is meaningful mid-stream (that is the live dashboard) and
    exact over a complete stream (the parity contract above).
    """

    def __init__(self) -> None:
        self.manifest: dict = {}
        self.mode: str = "?"
        self.backend: str | None = None
        self.total_runs: int = 0
        self.state: str = "empty"  # "empty" | "running" | "finished"
        self.elapsed_s: float | None = None
        self.metrics: dict = {}
        self.lint: dict | None = None
        # Stream bookkeeping.
        self.n_events = 0
        self.last_seq: int | None = None
        self.first_ts: float | None = None
        self.last_ts: float | None = None
        self.skipped_lines = 0
        # Run counters.
        self.n_classified = 0
        self.n_golden = 0
        self.n_fired = 0
        self.n_reconverged = 0
        self.frames_fast_forwarded = 0
        self.checkpoints_saved = 0
        self.checkpoint_reuses = 0
        self.skipped_ms = 0
        self.n_chunks = 0
        self.n_pruned_targets = 0
        self.n_pruned_runs = 0
        self.n_cached_units = 0
        self.n_cached_runs = 0
        self._reused_rows: set[tuple[str, str, str]] = set()
        self.outcome_mix: TallyCounter = TallyCounter()
        # Adaptive (sequential-stopping) state.
        self.n_rounds = 0
        self.n_open_targets: int | None = None
        self.adaptive_trials = 0
        self.retired_targets: list[dict] = []
        self.retired_by_reason: TallyCounter = TallyCounter()
        self.n_unconverged_targets = 0
        # Matrix state: denominators per injected location, numerators
        # per arc; the output universe comes from the manifest topology.
        self._modules: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._injections: dict[tuple[str, str], int] = {}
        self._arc_errors: dict[tuple[str, str, str], int] = {}
        # Lifetime state: fired IRs pending reconvergence, keyed by the
        # grid coordinates that uniquely identify one IR.
        self._pending_fired: dict[tuple[str, str, str, int, str], int] = {}
        self._lifetimes: dict[tuple[str, str], list[int]] = {}
        self._lifetimes_sorted = True
        self._histogram_counts = [0] * (len(DEFAULT_MS_BUCKETS) + 1)

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def feed(self, record: Mapping) -> ParsedEvent:
        """Fold one raw envelope dict; returns the decoded event."""
        parsed = decode_event(record)
        self.feed_parsed(parsed)
        return parsed

    def feed_line(self, line: str) -> ParsedEvent | None:
        """Fold one JSONL line; tolerate damage instead of raising.

        Blank, truncated or otherwise undecodable lines are counted in
        :attr:`skipped_lines` and return ``None`` — a dashboard tailing
        a live file must survive partial trailing writes.
        """
        line = line.strip()
        if not line:
            return None
        try:
            return self.feed(json.loads(line))
        except (json.JSONDecodeError, ValueError, KeyError):
            self.skipped_lines += 1
            return None

    def feed_all(self, events: Iterable[ParsedEvent]) -> None:
        for parsed in events:
            self.feed_parsed(parsed)

    @classmethod
    def from_events_file(cls, path) -> "CampaignStateReducer":
        """Fold a recorded ``events.jsonl`` (strict parse, see
        :func:`~repro.obs.events.read_events`)."""
        reducer = cls()
        reducer.feed_all(read_events(path))
        return reducer

    def feed_parsed(self, parsed: ParsedEvent) -> None:
        self.n_events += 1
        self.last_seq = parsed.seq
        self.last_ts = parsed.ts
        if self.first_ts is None:
            self.first_ts = parsed.ts
        event = parsed.event
        if isinstance(event, CampaignStarted):
            self.manifest = dict(event.manifest)
            self.mode = event.mode
            self.total_runs = event.total_runs
            self.state = "running"
            self.backend = self.manifest.get("backend", self.backend)
            self._modules = {
                name: (tuple(spec.get("inputs", ())), tuple(spec.get("outputs", ())))
                for name, spec in self.manifest.get("modules", {}).items()
            }
        elif isinstance(event, BackendSelected):
            self.backend = event.backend
        elif isinstance(event, LintReported):
            self.lint = {
                "system": event.system,
                "errors": event.errors,
                "warnings": event.warnings,
                "info": event.info,
                "codes": list(event.codes),
            }
        elif isinstance(event, ArcsPruned):
            # Pruned targets are exact zero-error measurements: their
            # injections enter the matrix denominators directly (no
            # per-IR events will arrive for them), keeping the matrix
            # equal to estimate_matrix() over the pruned campaign.
            self.n_pruned_targets += len(event.targets)
            self.n_pruned_runs += (
                len(event.targets) * event.n_injections_per_target
            )
            for module, signal in event.targets:
                location = (module, signal)
                self._injections[location] = (
                    self._injections.get(location, 0)
                    + event.n_injections_per_target
                )
        elif isinstance(event, RunStarted):
            if event.kind == "golden":
                self.n_golden += 1
        elif isinstance(event, CheckpointSaved):
            self.checkpoints_saved += 1
        elif isinstance(event, CheckpointReused):
            self.checkpoint_reuses += 1
            self.skipped_ms += event.skipped_ms
        elif isinstance(event, InjectionFired):
            self.n_fired += 1
            key = (
                event.case_id,
                event.module,
                event.signal,
                event.scheduled_ms,
                event.error_model,
            )
            self._pending_fired[key] = event.fired_at_ms
        elif isinstance(event, OutcomeClassified):
            self.n_classified += 1
            self.outcome_mix[event.outcome] += 1
            location = (event.module, event.signal)
            self._injections[location] = self._injections.get(location, 0) + 1
            for output in event.propagated_outputs:
                arc = (event.module, event.signal, output)
                self._arc_errors[arc] = self._arc_errors.get(arc, 0) + 1
        elif isinstance(event, RunReconverged):
            self.n_reconverged += 1
            self.frames_fast_forwarded += event.frames_fast_forwarded
            key = (
                event.case_id,
                event.module,
                event.signal,
                event.time_ms,
                event.error_model,
            )
            fired_at = self._pending_fired.pop(key, None)
            if fired_at is not None:
                lifetime = event.reconverged_at_ms - fired_at
                self._lifetimes.setdefault(
                    (event.module, event.signal), []
                ).append(lifetime)
                self._lifetimes_sorted = False
                self._observe_lifetime(lifetime)
        elif isinstance(event, UnitReused):
            # The row's recorded outcomes are replayed right after this
            # event as ordinary OutcomeClassified events (driving the
            # matrix and progress), so only the reuse itself is counted.
            # An adaptive row can supply cached outcomes in several rounds.
            self._reused_rows.add((event.case_id, event.module, event.signal))
            self.n_cached_units = len(self._reused_rows)
            self.n_cached_runs += event.n_runs
        elif isinstance(event, ChunkCompleted):
            self.n_chunks += 1
        elif isinstance(event, TargetRetired):
            self.adaptive_trials += event.n_trials
            self.retired_by_reason[event.reason] += 1
            self.retired_targets.append(
                {
                    "module": event.module,
                    "input": event.signal,
                    "n_trials": event.n_trials,
                    "half_width": event.half_width,
                    "reason": event.reason,
                    "round": event.round_index,
                }
            )
        elif isinstance(event, RoundCompleted):
            self.n_rounds += 1
            self.n_open_targets = event.n_open
        elif isinstance(event, BudgetExhausted):
            self.n_unconverged_targets = event.n_targets
        elif isinstance(event, CampaignFinished):
            self.state = "finished"
            self.elapsed_s = event.elapsed_s
            self.metrics = dict(event.metrics)

    def _observe_lifetime(self, lifetime_ms: int) -> None:
        """Bucket one lifetime exactly like the ``ff.error_lifetime.ms``
        histogram (:class:`~repro.obs.metrics.Histogram` semantics)."""
        index = len(DEFAULT_MS_BUCKETS)
        for i, bound in enumerate(DEFAULT_MS_BUCKETS):
            if lifetime_ms <= bound:
                index = i
                break
        self._histogram_counts[index] += 1

    # ------------------------------------------------------------------
    # Derived views (the parity surfaces)
    # ------------------------------------------------------------------

    def matrix_jsonable(self) -> dict:
        """The observed permeability matrix in
        :meth:`~repro.core.permeability.PermeabilityMatrix.to_jsonable`
        format — over a complete stream, exactly equal to
        ``estimate_matrix(result).to_jsonable()``.
        """
        entries = []
        for module, (inputs, outputs) in self._modules.items():
            for input_signal in inputs:
                n_injections = self._injections.get((module, input_signal), 0)
                if n_injections == 0:
                    continue
                for output_signal in outputs:
                    n_errors = self._arc_errors.get(
                        (module, input_signal, output_signal), 0
                    )
                    entries.append(
                        {
                            "module": module,
                            "input": input_signal,
                            "output": output_signal,
                            "value": n_errors / n_injections,
                            "n_injections": n_injections,
                            "n_errors": n_errors,
                        }
                    )
        return {"system": self.manifest.get("system", ""), "entries": entries}

    def _matrix_with_intervals(self) -> dict:
        matrix = self.matrix_jsonable()
        for entry in matrix["entries"]:
            interval = PermeabilityEstimate.from_counts(
                n_errors=entry["n_errors"], n_injections=entry["n_injections"]
            ).wilson_interval()
            entry["wilson"] = [interval[0], interval[1]]
        return matrix

    def lifetime_statistics(self) -> dict[tuple[str, str], dict]:
        """Per-input error-lifetime statistics from the stream alone.

        Field-for-field equal to
        ``{key: dataclasses.asdict(v) for key, v in
        repro.injection.latency.lifetime_statistics(result).items()}``
        over a complete stream: fired-but-never-reconverged IRs are
        right-censored, medians interpolate linearly.
        """
        censored: dict[tuple[str, str], int] = {}
        for (_case, module, signal, _t, _m), _fired in self._pending_fired.items():
            key = (module, signal)
            censored[key] = censored.get(key, 0) + 1
        if not self._lifetimes_sorted:
            for values in self._lifetimes.values():
                values.sort()
            self._lifetimes_sorted = True
        statistics: dict[tuple[str, str], dict] = {}
        for key in {**dict.fromkeys(self._lifetimes), **dict.fromkeys(censored)}:
            values = self._lifetimes.get(key, [])
            module, input_signal = key
            statistics[key] = {
                "module": module,
                "input_signal": input_signal,
                "n_samples": len(values),
                "n_censored": censored.get(key, 0),
                "min_ms": values[0] if values else 0,
                "max_ms": values[-1] if values else 0,
                "mean_ms": sum(values) / len(values) if values else 0.0,
                "median_ms": _percentile(values, 0.5) if values else 0.0,
            }
        return statistics

    def reconverged_fraction(self) -> float:
        """``CampaignResult.reconverged_fraction`` from the stream."""
        if not self.n_classified:
            return 0.0
        return self.n_reconverged / self.n_classified

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The campaign's current state as one JSON-able document."""
        done = self.n_classified + self.n_pruned_runs
        total = self.total_runs
        rate = None
        eta_s = None
        if (
            self.first_ts is not None
            and self.last_ts is not None
            and self.last_ts > self.first_ts
            and done
        ):
            rate = done / (self.last_ts - self.first_ts)
            if self.state == "running" and total > done:
                eta_s = (total - done) / rate
        lifetimes_per_input = {
            f"{module}.{signal}": stats
            for (module, signal), stats in sorted(
                self.lifetime_statistics().items()
            )
        }
        n_samples = sum(s["n_samples"] for s in lifetimes_per_input.values())
        n_censored = sum(s["n_censored"] for s in lifetimes_per_input.values())
        metrics = {
            name: self.metrics[name]
            for name in _SNAPSHOT_METRICS
            if name in self.metrics
        }
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "state": self.state,
            "campaign": {
                "manifest": self.manifest,
                "mode": self.mode,
                "backend": self.backend,
                "lint": self.lint,
            },
            "progress": {
                "done": done,
                "total": total,
                "fraction": done / total if total else 0.0,
                "golden_runs": self.n_golden,
                "rate_runs_per_s": rate,
                "eta_s": eta_s,
                "elapsed_s": self.elapsed_s,
            },
            "counters": {
                "n_runs": self.n_classified,
                "pruned": self.n_pruned_runs,
                "cached": self.n_cached_runs,
                "n_fired": self.n_fired,
                "n_reconverged": self.n_reconverged,
                "reconverged_fraction": self.reconverged_fraction(),
                "frames_fast_forwarded": self.frames_fast_forwarded,
                "checkpoints_saved": self.checkpoints_saved,
                "checkpoint_reuses": self.checkpoint_reuses,
                "skipped_ms": self.skipped_ms,
                "chunks_completed": self.n_chunks,
                "outcome_mix": dict(self.outcome_mix),
            },
            "adaptive": {
                "rounds": self.n_rounds,
                "targets_retired": len(self.retired_targets),
                "targets_open": self.n_open_targets,
                "trials": self.adaptive_trials,
                "unconverged": self.n_unconverged_targets,
                "by_reason": dict(self.retired_by_reason),
                "retired": list(self.retired_targets),
            },
            "matrix": self._matrix_with_intervals(),
            "lifetimes": {
                "buckets": list(DEFAULT_MS_BUCKETS),
                "counts": list(self._histogram_counts),
                "n_samples": n_samples,
                "n_censored": n_censored,
                "per_input": lifetimes_per_input,
            },
            "metrics": metrics,
            "stream": {
                "n_events": self.n_events,
                "last_seq": self.last_seq,
                "first_ts": self.first_ts,
                "last_ts": self.last_ts,
                "skipped_lines": self.skipped_lines,
            },
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid snapshot: {message}")


def validate_snapshot(snapshot: Mapping[str, Any]) -> None:
    """Structurally validate a :meth:`CampaignStateReducer.snapshot`.

    Stdlib-only (no jsonschema): checks the section layout, entry
    fields, count consistency and Wilson-interval containment.  Used by
    the CI dashboard smoke job and the test suite; raises
    :class:`ValueError` on the first violation.
    """
    _require(snapshot.get("schema") == SNAPSHOT_SCHEMA_VERSION, "schema version")
    _require(
        snapshot.get("state") in ("empty", "running", "finished"),
        f"state {snapshot.get('state')!r}",
    )
    for section in (
        "campaign", "progress", "counters", "adaptive", "matrix",
        "lifetimes", "metrics", "stream",
    ):
        _require(isinstance(snapshot.get(section), Mapping), f"missing {section}")
    progress = snapshot["progress"]
    _require(
        isinstance(progress["done"], int) and isinstance(progress["total"], int),
        "progress counts",
    )
    _require(0 <= progress["done"], "progress.done >= 0")
    counters = snapshot["counters"]
    for name in (
        "n_runs", "pruned", "cached", "n_fired", "n_reconverged",
        "frames_fast_forwarded", "checkpoints_saved", "checkpoint_reuses",
        "skipped_ms", "chunks_completed",
    ):
        _require(
            isinstance(counters.get(name), int) and counters[name] >= 0,
            f"counters.{name}",
        )
    # Per-IR order is InjectionFired -> OutcomeClassified, so mid-stream
    # one fired injection may not be classified yet.
    _require(
        counters["n_fired"] <= counters["n_runs"] + 1, "n_fired <= n_runs + 1"
    )
    _require(
        0.0 <= counters["reconverged_fraction"] <= 1.0, "reconverged_fraction"
    )
    adaptive = snapshot["adaptive"]
    for name in ("rounds", "targets_retired", "trials", "unconverged"):
        _require(
            isinstance(adaptive.get(name), int) and adaptive[name] >= 0,
            f"adaptive.{name}",
        )
    _require(isinstance(adaptive.get("retired"), list), "adaptive.retired")
    _require(
        len(adaptive["retired"]) == adaptive["targets_retired"],
        "adaptive retired count",
    )
    for entry in adaptive["retired"]:
        _require(
            isinstance(entry.get("n_trials"), int) and entry["n_trials"] >= 1,
            "adaptive retiree trials",
        )
        _require(
            0.0 <= entry["half_width"] <= 0.5, "adaptive retiree half-width"
        )
        _require(
            entry.get("reason") in ("confidence", "cap", "exhausted"),
            "adaptive retiree reason",
        )
    matrix = snapshot["matrix"]
    _require(isinstance(matrix.get("entries"), list), "matrix.entries")
    for entry in matrix["entries"]:
        for field_name in ("module", "input", "output"):
            _require(
                isinstance(entry.get(field_name), str), f"entry.{field_name}"
            )
        _require(
            0 <= entry["n_errors"] <= entry["n_injections"], "entry counts"
        )
        _require(0.0 <= entry["value"] <= 1.0, "entry value")
        low, high = entry["wilson"]
        _require(
            0.0 <= low <= entry["value"] <= high <= 1.0,
            "wilson interval containment",
        )
    lifetimes = snapshot["lifetimes"]
    _require(
        len(lifetimes["counts"]) == len(lifetimes["buckets"]) + 1,
        "lifetime histogram layout",
    )
    _require(
        sum(lifetimes["counts"]) == lifetimes["n_samples"],
        "lifetime histogram total",
    )
    for stats in lifetimes["per_input"].values():
        _require(
            stats["n_samples"] >= 0 and stats["n_censored"] >= 0,
            "lifetime sample counts",
        )
    stream = snapshot["stream"]
    _require(
        isinstance(stream["n_events"], int) and stream["n_events"] >= 0,
        "stream.n_events",
    )
