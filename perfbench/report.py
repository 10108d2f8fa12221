"""The traced run: per-layer metrics, layer budget, tracing overhead.

The budget accounts the parent process's wall clock: every span's self
time goes to its layer (:data:`perfbench.layers.LAYER_OF`), and the
root span's own self time — the benchmark's glue between entry points —
is ``trace.unattributed_s``.  Pool workers run concurrently with the
parent's wait for them (``workers.wait``), so their spans form a second
table of worker seconds instead of adding to the wall clock.

Per-layer metrics sum the parent and every worker, so a layer that
runs in the workers (the runtime under ``execute_parallel``) still
shows its calls and self time.
"""

from __future__ import annotations

import statistics
import time

from perfbench.layers import LAYER_OF, LAYERS, ROOT, new_tracer
from perfbench.spans import merge_dumps, tail_percentile

#: The layer rows must account for the traced wall time within this
#: share; a larger unattributed remainder fails the run.
BUDGET_TOLERANCE = 0.05

PER_LAYER_UNITS = {
    "arrestment.build_run.s": "s",
    "arrestment.plant.calls": "count",
    "arrestment.plant.self_s": "s",
    "runtime.golden_run.calls": "count",
    "runtime.golden_run.self_s": "s",
    "runtime.ir_run.calls": "count",
    "runtime.ir_run.self_s": "s",
    "runtime.ir_run.p50_ms": "ms",
    "runtime.ir_run.tail_ms": "ms",
    "runtime.ir_run.tail_pct": "%",
    "runtime.restore.self_s": "s",
    "runtime.step.self_s": "s",
    "runtime.frames_stepped": "count",
    "runtime.frames_fast_forwarded": "count",
    "runtime.reconverged_fraction": "ratio",
    "batched.busy_s": "s",
    "batched.lanes": "count",
    "batched.fallback_runs": "count",
    "injection.grc.calls": "count",
    "injection.grc.self_s": "s",
    "injection.lint.s": "s",
    "injection.fired_fraction": "ratio",
    "flow.analyse.s": "s",
    "flow.pruned_runs": "count",
    "store.fetch.calls": "count",
    "store.fetch.s": "s",
    "store.put.calls": "count",
    "store.put.s": "s",
    "store.put.bytes": "bytes",
    "store.key.s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.rejected": "count",
    "adaptive.rounds": "count",
    "adaptive.trials": "count",
    "adaptive.trials_saved_fraction": "ratio",
    "adaptive.controller.s": "s",
    "adaptive.round_wait_s": "s",
    "workers.chunks": "count",
    "workers.busy_s": "s",
    "workers.idle_s": "s",
    "workers.shm_bytes": "bytes",
    "obs.events": "count",
    "obs.event_bytes": "bytes",
    "obs.emit.self_s": "s",
    "core.estimate.s": "s",
    "core.tables.s": "s",
    **{f"budget.{layer}.s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_lo_s": "s",
}

#: Metrics that count work: they must repeat exactly between traced
#: executions of the same inputs.
COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit == "count"
) + ("store.put.bytes", "workers.shm_bytes")


def layer_budget(dump: dict) -> tuple[dict[str, float], float, float]:
    """``(self seconds per layer, unattributed seconds, wall seconds)``."""
    rows = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in dump["totals"].items():
        if name != ROOT:
            rows[LAYER_OF[name]] += own
    _, wall, unattributed = dump["totals"][ROOT]
    return rows, unattributed, wall


def layer_metrics(parent: dict, workers: dict, execution, prepared) -> dict:
    """The per-layer metrics of one traced execution."""
    both = merge_dumps([parent, workers])
    totals = both["totals"]
    counts = both["counts"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    results = execution.results
    n_outcomes = sum(len(r) for r in results)
    stats = [s for s in execution.store_stats if s is not None]
    ir_durations = both["durations"].get("runtime.ir_run", [])
    tail = tail_percentile(ir_durations)
    n_trials = sum(r.n_adaptive_trials() for r in results)
    n_saved = sum(r.n_adaptive_trials_saved() for r in results)
    busy = total_s("workers.task")
    events = prepared.workdir / "events.jsonl"
    event_lines = event_bytes = 0
    if events.exists():
        data = events.read_bytes()
        event_lines = data.count(b"\n")
        event_bytes = len(data)
    rows, unattributed, _ = layer_budget(parent)
    metrics = {
        "arrestment.build_run.s": total_s("arrestment.build_run"),
        "arrestment.plant.calls": calls("arrestment.plant"),
        "arrestment.plant.self_s": self_s("arrestment.plant"),
        "runtime.golden_run.calls": calls("runtime.golden_run"),
        "runtime.golden_run.self_s": self_s("runtime.golden_run"),
        "runtime.ir_run.calls": calls("runtime.ir_run"),
        "runtime.ir_run.self_s": self_s("runtime.ir_run"),
        "runtime.ir_run.p50_ms": (
            1000.0 * statistics.median(ir_durations) if ir_durations else 0.0
        ),
        "runtime.ir_run.tail_ms": 1000.0 * tail[1] if tail else 0.0,
        "runtime.ir_run.tail_pct": tail[0] if tail else 0.0,
        "runtime.restore.self_s": self_s("runtime.restore"),
        "runtime.step.self_s": self_s("runtime.step"),
        "runtime.frames_stepped": calls("runtime.step"),
        "runtime.frames_fast_forwarded": counts.get(
            "runtime.frames_fast_forwarded", 0
        ),
        "runtime.reconverged_fraction": (
            counts.get("runtime.reconverged_runs", 0) / calls("runtime.ir_run")
            if calls("runtime.ir_run")
            else 0.0
        ),
        "batched.busy_s": self_s("batched.case_injections"),
        "batched.lanes": counts.get("batched.yields", 0)
        - counts.get("batched.fallback_runs", 0),
        "batched.fallback_runs": counts.get("batched.fallback_runs", 0),
        "injection.grc.calls": calls("injection.grc"),
        "injection.grc.self_s": self_s("injection.grc"),
        "injection.lint.s": total_s("injection.lint"),
        "injection.fired_fraction": (
            sum(r.n_fired() for r in results) / n_outcomes if n_outcomes else 0.0
        ),
        "flow.analyse.s": total_s("flow.analyse"),
        "flow.pruned_runs": sum(r.n_pruned_runs() for r in results),
        "store.fetch.calls": calls("store.fetch"),
        "store.fetch.s": total_s("store.fetch"),
        "store.put.calls": calls("store.put"),
        "store.put.s": total_s("store.put"),
        "store.put.bytes": counts.get("store.put.bytes", 0),
        "store.key.s": total_s("store.key"),
        "store.hits": sum(s.hits for s in stats),
        "store.misses": sum(s.misses for s in stats),
        "store.rejected": sum(s.rejected for s in stats),
        "adaptive.rounds": counts.get("adaptive.rounds", 0),
        "adaptive.trials": counts.get("adaptive.trials", 0),
        "adaptive.trials_saved_fraction": (
            n_saved / (n_trials + n_saved) if n_trials + n_saved else 0.0
        ),
        "adaptive.controller.s": total_s("adaptive.controller"),
        "adaptive.round_wait_s": (
            total_s("workers.wait") if counts.get("adaptive.rounds") else 0.0
        ),
        "workers.chunks": calls("workers.task"),
        "workers.busy_s": busy,
        "workers.idle_s": counts.get("workers.offered_s", 0.0) - busy,
        "workers.shm_bytes": counts.get("workers.shm_bytes", 0),
        "obs.events": event_lines,
        "obs.event_bytes": event_bytes,
        "obs.emit.self_s": self_s("obs.emit"),
        "core.estimate.s": total_s("core.estimate"),
        "core.tables.s": total_s("core.tables"),
        **{f"budget.{layer}.s": rows[layer] for layer in LAYERS},
        "trace.unattributed_s": unattributed,
    }
    return metrics


def budget_lines(title: str, rows: dict[str, float], total: float) -> list[str]:
    lines = [title]
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        if seconds:
            share = seconds / total if total else 0.0
            lines.append(f"  {layer:<12} {seconds:9.3f} s  {share:6.1%}")
    return lines


def _chunk_seconds(prepared) -> float | None:
    """The observer's own cross-process chunk timing, as a check."""
    observer = prepared.observer
    if observer is None or observer.metrics is None:
        return None
    histogram = observer.metrics.to_dict().get("chunk.seconds")
    return None if histogram is None else histogram["sum"]


def traced_run(args, inputs, reference, one) -> dict:
    """Pairs of traced and untraced executions for ``args.seconds``."""
    tracer = new_tracer()
    untraced, traced, samples = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    lines: list[str] = []
    started = time.perf_counter()
    while True:
        # Traced first: the first execution of a process also pays its
        # lazy imports and first-touch memory, so the difference bounds
        # the tracing overhead from above instead of hiding it.
        prepared, execution, gate, (parent, workers) = one(
            args.workload, inputs, reference, tracer
        )
        traced.append(execution.wall_s)
        attempted += gate.attempted
        failed += gate.failed
        problems.extend(gate.problems)
        samples.append(layer_metrics(parent, workers, execution, prepared))
        rows, unattributed, wall = layer_budget(parent)
        if unattributed > BUDGET_TOLERANCE * wall:
            failed += 1
            problems.append(
                f"layer rows leave {unattributed:.3f} s of {wall:.3f} s "
                "unattributed (over 5 %)"
            )
        if len(samples) == 1:
            lines += budget_lines(
                f"layer budget, parent wall clock {wall:.3f} s "
                f"(unattributed {unattributed:.3f} s)", rows, wall)
            worker_rows, _, _ = layer_budget(
                {"totals": {**workers["totals"], ROOT: [0, 0.0, 0.0]}}
            )
            busy = samples[0]["workers.busy_s"]
            if busy:
                lines += budget_lines(
                    f"worker seconds ({workers['processes']} workers, "
                    f"busy {busy:.3f} s)", worker_rows, busy)
                check = _chunk_seconds(prepared)
                if check is not None:
                    lines.append(
                        f"  check: observer chunk.seconds sum {check:.3f} s"
                    )
        # The untraced twin reuses the work directory, so it runs after
        # the traced execution's files were read.
        _, plain, gate, _ = one(args.workload, inputs, reference)
        untraced.append(plain.wall_s)
        attempted += gate.attempted
        failed += gate.failed
        problems.extend(gate.problems)
        elapsed = time.perf_counter() - started
        pair = statistics.median(untraced) + statistics.median(traced)
        if elapsed + pair > args.seconds:
            break
    for name in COUNTS:
        values = {sample[name] for sample in samples}
        if len(values) > 1:
            failed += 1
            problems.append(f"count {name} differs between executions: {values}")
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    overheads = [t - u for t, u in zip(traced, untraced)]
    # The upper end of the interval: tracing costs at most this much.
    metrics["trace.overhead_s"] = max(overheads)
    metrics["trace.overhead_lo_s"] = min(overheads)
    lines.append(
        f"tracing overhead: traced {statistics.median(traced):.3f} s vs "
        f"untraced {statistics.median(untraced):.3f} s, "
        f"[{min(overheads):.3f}, {max(overheads):.3f}] s over "
        f"{len(overheads)} pair(s)"
    )
    lines.append(f"error_rate {failed}/{attempted}")
    lines += [f"gate: {problem}" for problem in problems]
    for line in lines:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
