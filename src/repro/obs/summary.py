"""Text reports over recorded campaign event streams.

``repro obs summarize events.jsonl`` renders, from the events file
alone (optionally with a separate ``metrics.json``):

* the run manifest (who/what/when produced the stream);
* the phase breakdown — where the campaign's wall-clock went, slowest
  span first (Golden-Run phase, per-IR suffix simulation, Golden-Run
  comparison, checkpoint save/restore, worker chunks);
* the outcome mix (propagated / no effect / trap never fired);
* the hottest observed propagation arcs, i.e. the (module, input →
  output) pairs with the largest measured permeability numerators,
  counted by the estimator's :class:`~repro.injection.outcomes.ArcTally`
  over the manifest's module topology.

Everything works on any events file produced by this package —
including files from other hosts, because the stream is self-contained.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.obs.dash.reducer import CampaignStateReducer
from repro.obs.events import ParsedEvent, read_events

__all__ = ["EventsSummary", "summarize_events", "render_summary"]

#: Histogram metric names treated as campaign phases, with display labels.
PHASE_METRICS: tuple[tuple[str, str], ...] = (
    ("phase.golden_run.seconds", "Golden Run (per case)"),
    ("phase.injection_run.seconds", "IR suffix simulation"),
    ("phase.comparison.seconds", "Golden-Run comparison"),
    ("checkpoint.save.seconds", "checkpoint save"),
    ("checkpoint.restore.seconds", "checkpoint restore"),
    ("chunk.seconds", "worker chunk"),
    ("kernel.batch_step.seconds", "batched kernel frame step"),
)


#: The report reads the dashboard reducer's fold of the stream.
EventsSummary = CampaignStateReducer


def summarize_events(
    events: Iterable[ParsedEvent], metrics: Mapping | None = None
) -> EventsSummary:
    """Fold a parsed event stream into an :class:`EventsSummary`.

    ``metrics`` overrides the snapshot embedded in
    :class:`CampaignFinished` (useful with a separate ``metrics.json``
    from the same campaign).
    """
    summary = EventsSummary()
    summary.feed_all(events)
    if metrics is not None:
        summary.metrics = dict(metrics)
    return summary


def _render_phases(metrics: Mapping) -> list[str]:
    from repro.core.report import format_table

    rows = []
    for name, label in PHASE_METRICS:
        data = metrics.get(name)
        if not data or data.get("type") != "histogram" or not data["count"]:
            continue
        rows.append(
            (
                label,
                data["count"],
                f"{data['sum']:.3f}",
                f"{data['sum'] / data['count'] * 1000:.3f}",
                f"{data['max'] * 1000:.3f}",
            )
        )
    if not rows:
        return ["(no phase metrics recorded)"]
    rows.sort(key=lambda row: -float(row[2]))
    return [
        format_table(
            headers=("Phase", "spans", "total s", "mean ms", "max ms"),
            rows=rows,
            title="Phase breakdown (slowest first)",
        )
    ]


def _value(metrics: Mapping, name: str) -> int:
    """A counter or gauge's value in a metrics snapshot (0 if absent)."""
    data = metrics.get(name)
    if not data or "value" not in data:
        return 0
    return int(data["value"])


def _render_kernel_line(metrics: Mapping) -> str | None:
    """One-line digest of the batched kernel's ``kernel.*`` metrics."""
    retired = _value(metrics, "kernel.lanes.retired")
    fallback_runs = _value(metrics, "kernel.fallback.runs")
    scalar_modules = _value(metrics, "kernel.scalar_fallback.modules")
    if not (retired or fallback_runs or scalar_modules):
        return None
    return (
        f"batched kernel: {retired} lanes retired, "
        f"{fallback_runs} reference-fallback runs, "
        f"{scalar_modules} scalar-fallback modules"
    )


def render_summary(summary: EventsSummary, top: int = 10) -> str:
    """Render the text report of one events file."""
    from repro.core.report import format_table

    lines: list[str] = []
    manifest = summary.manifest
    if manifest:
        lines.append("Campaign manifest")
        lines.append(f"  config hash     : {manifest.get('config_hash')}")
        lines.append(f"  schema version  : {manifest.get('schema_version')}")
        lines.append(f"  package version : {manifest.get('package_version')}")
        lines.append(f"  seed            : {manifest.get('seed')}")
        lines.append(
            f"  grid            : {manifest.get('n_cases')} cases x "
            f"{manifest.get('n_targets')} targets x "
            f"{len(manifest.get('injection_times_ms', ()))} times x "
            f"{manifest.get('n_error_models')} models "
            f"= {manifest.get('total_runs')} runs"
        )
        host = manifest.get("host", {})
        lines.append(
            f"  host            : {host.get('platform')} "
            f"(python {host.get('python')}, {host.get('cpu_count')} cpus)"
        )
        lines.append(f"  mode            : {summary.mode}")
        backend = summary.backend or manifest.get("backend")
        if backend is not None:
            lines.append(f"  backend         : {backend}")
        lines.append("")

    n_classified = sum(summary.outcome_mix.values())
    lines.append(
        f"{summary.n_events} events; {n_classified} classified outcomes"
        + (
            f"; finished in {summary.elapsed_s:.2f}s"
            if summary.elapsed_s is not None
            else " (stream has no CampaignFinished event)"
        )
    )
    if summary.abort_reason is not None:
        lines.append(f"ABORTED: {summary.abort_reason}")
    counts = summary.counts
    if counts["prune.targets"]:
        lines.append(
            f"static pruning: {counts['prune.targets']} target(s) proven "
            f"zero-permeability, {counts['prune.runs_skipped']} runs skipped"
        )
    if counts["store.hits"]:
        lines.append(
            f"result store: {counts['store.hits']} target row(s) reused, "
            f"{counts['store.runs_reused']} injection runs recomposed from cache"
        )
    if counts["store.rejected"]:
        lines.append(
            f"WARNING: {counts['store.rejected']} store artifact(s) failed "
            "content verification and were re-executed"
        )
    if counts["checkpoint.reused"]:
        lines.append(
            f"checkpoint reuse: {counts['checkpoint.reused']} resumes, "
            f"{counts['simulated_ms.skipped']} simulated ms skipped"
        )
    if counts["ff.runs_reconverged"]:
        lines.append(
            f"reconvergence fast-forward: {counts['ff.runs_reconverged']} runs "
            f"reconverged, {counts['ff.frames_fast_forwarded']} simulated ms "
            "spliced"
        )
    memo_hits = _value(summary.metrics, "fast_forward.memo_hits")
    if memo_hits:
        lines.append(
            f"state memo: {memo_hits} runs took an earlier run's outcome, "
            f"{_value(summary.metrics, 'fast_forward.memo_frames')} simulated "
            "ms not stepped"
        )
    if counts["chunk.completed"]:
        lines.append(f"parallel chunks completed: {counts['chunk.completed']}")
    kernel_line = _render_kernel_line(summary.metrics)
    if kernel_line is not None:
        lines.append(kernel_line)
    dropped_data = summary.metrics.get("events.dropped") or {}
    dropped = int(dropped_data.get("value", 0) or 0)
    if dropped:
        lines.append(
            f"WARNING: {dropped} event(s) were dropped by a bounded "
            "ring-buffer sink; the recorded stream is incomplete"
        )
    lines.append("")

    if summary.outcome_mix:
        rows = []
        for verdict in ("propagated", "no_effect", "not_fired"):
            count = summary.outcome_mix.get(verdict, 0)
            rows.append(
                (verdict, count, f"{count / n_classified:.1%}")
            )
        lines.append(
            format_table(
                headers=("Outcome", "runs", "share"),
                rows=rows,
                title="Outcome mix",
            )
        )
        lines.append("")

    lines.extend(_render_phases(summary.metrics))
    lines.append("")

    arcs = summary.arcs.hottest(top)
    if arcs:
        rows = [
            (
                f"{arc.module}.{arc.input_signal} -> {arc.output_signal}",
                arc.n_errors,
                arc.n_injections,
                f"{arc.permeability:.3f}",
            )
            for arc in arcs
        ]
        lines.append(
            format_table(
                headers=("Arc", "propagated", "injections", "P^M"),
                rows=rows,
                title=f"Hottest observed propagation arcs (top {len(rows)})",
            )
        )
    else:
        lines.append("(no propagation arcs observed)")
    return "\n".join(lines)


def summarize_events_file(
    events_path, metrics_path=None, top: int = 10
) -> str:
    """Convenience wrapper: parse, fold and render one events file."""
    metrics = None
    if metrics_path is not None:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    summary = summarize_events(read_events(events_path), metrics=metrics)
    return render_summary(summary, top=top)
