"""Span wrappers around the public entry points of each layer.

:func:`install` replaces each entry point listed in :data:`LAYER_OF`'s
comments with a wrapper that opens a span, calls the original and
closes the span; :func:`uninstall` puts every original back, so
untraced executions run the program exactly as shipped.  Nothing
under ``src/`` changes: the wrappers live here and are installed by
attribute assignment for the traced run only.

Pool workers are forked from the traced parent, so they inherit the
wrappers.  The wrapped pool initializer resets the inherited tracer and
registers a finalizer that dumps the worker's spans to
``<trace_dir>/spans-<pid>.json`` when the worker exits; the parent
merges those files after the pool has shut down (:func:`collect`).

The installed tracer lives in a module global because the worker-side
wrappers must be module-level functions: the pool pickles its task
function by import path.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from perfbench.spans import Tracer, merge_dumps

__all__ = [
    "LAYERS", "LAYER_OF", "ROOT", "collect", "install", "new_tracer", "uninstall",
]

#: Layer of every span name.  ``bench.workload`` is the root span the
#: benchmark opens around one workload execution; its self time is the
#: benchmark's own glue (``trace.unattributed_s``).
LAYER_OF: dict[str, str] = {
    # repro.arrestment: run factory, plant before/after_software.
    "arrestment.build_run": "arrestment",
    "arrestment.plant": "arrestment",
    # repro.simulation.runtime: run_with_checkpoints, run/run_from,
    # restore, step_ms.
    "runtime.golden_run": "runtime",
    "runtime.ir_run": "runtime",
    "runtime.restore": "runtime",
    "runtime.step": "runtime",
    # repro.simulation.batched: BatchedBackend.case_injections.
    "batched.case_injections": "batched",
    # repro.injection: the campaign loops (execute/execute_parallel),
    # compare_to_golden_run, lint_system.
    "injection.campaign": "injection",
    "injection.grc": "injection",
    "injection.lint": "injection",
    # repro.flow.analyse_run.
    "flow.analyse": "flow",
    # repro.store: ResultStore.fetch/contains/put, keys_for_case.
    "store.fetch": "store",
    "store.put": "store",
    "store.key": "store",
    # repro.adaptive: AdaptiveController.next_round/complete_round.
    "adaptive.controller": "adaptive",
    # The process pool and shared memory inside execute_parallel.
    "workers.start": "workers",
    "workers.dispatch": "workers",
    "workers.wait": "workers",
    "workers.shutdown": "workers",
    "workers.shm": "workers",
    "workers.task": "workers",
    # repro.obs: CampaignObserver callbacks and worker absorption.
    "obs.emit": "obs",
    # estimate_matrix and PropagationAnalysis.render_table1..4.
    "core.estimate": "core",
    "core.tables": "core",
}

LAYERS = (
    "arrestment", "runtime", "batched", "injection", "flow", "store",
    "adaptive", "workers", "obs", "core",
)

ROOT = "bench.workload"

#: One span per simulated frame: folded into totals, not kept.
FOLDED = ("runtime.step", "arrestment.plant")

_ACTIVE: Tracer | None = None
_TRACE_DIR: Path | None = None
_PATCHES: list[tuple[object, str, object]] = []
_ORIGINALS: dict[str, object] = {}


def new_tracer() -> Tracer:
    return Tracer(
        folded=FOLDED,
        sampled=("runtime.ir_run",),
        run_names=("runtime.ir_run", "runtime.golden_run"),
    )


# ---------------------------------------------------------------------------
# Wrapper factories
# ---------------------------------------------------------------------------


def _spanned(name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _spanned_resumptions(name, iterator, counter=None):
    """Span every resumption of an iterator, not the time between."""
    tracer = _ACTIVE
    while True:
        frame = tracer.enter(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.exit(frame)
        if counter is not None:
            tracer.count(counter)
        yield item


def _spanned_generator(name, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _spanned_resumptions(name, fn(*args, **kwargs), counter)

    return wrapper


def _after_ir_run(tracer: Tracer, result) -> None:
    tracer.count("runtime.frames_fast_forwarded", result.frames_fast_forwarded)
    if result.reconverged_at_ms is not None:
        tracer.count("runtime.reconverged_runs")
    stack = tracer.stack
    if stack and stack[-1].name == "batched.case_injections":
        tracer.count("batched.fallback_runs")


def _after_put(tracer: Tracer, path) -> None:
    tracer.count("store.put.bytes", os.stat(path).st_size)


def _after_next_round(tracer: Tracer, schedule) -> None:
    tracer.count("adaptive.rounds")
    tracer.count("adaptive.trials", sum(len(t) for t in schedule.values()))


def _patch(owner, attr: str, replacement) -> None:
    # vars(), not getattr(): restoring must put back the attribute as
    # stored, not a method bound through the class.
    _PATCHES.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


# ---------------------------------------------------------------------------
# Pool and shared memory
# ---------------------------------------------------------------------------


def _traced_pool_class(base):
    class TracedProcessPoolExecutor(base):
        def __init__(self, *args, **kwargs):
            with _ACTIVE.span("workers.start"):
                super().__init__(*args, **kwargs)
            self._bench_started = time.perf_counter()

        def map(self, fn, *iterables, **kwargs):
            with _ACTIVE.span("workers.dispatch"):
                results = super().map(fn, *iterables, **kwargs)
            return _spanned_resumptions("workers.wait", results)

        def shutdown(self, *args, **kwargs):
            with _ACTIVE.span("workers.shutdown"):
                super().shutdown(*args, **kwargs)
            # Worker-seconds the pool offered, for workers.idle_s.
            _ACTIVE.count(
                "workers.offered_s",
                self._max_workers * (time.perf_counter() - self._bench_started),
            )

    return TracedProcessPoolExecutor


def _traced_shm_class(base):
    class TracedSharedMemory(base):
        def __init__(self, name=None, create=False, size=0):
            with _ACTIVE.span("workers.shm"):
                super().__init__(name=name, create=create, size=size)
            if create:
                _ACTIVE.count("workers.shm_bytes", size)

    return TracedSharedMemory


def _dump_worker() -> None:
    _ACTIVE.dump(_TRACE_DIR / f"spans-{os.getpid()}.json")


def traced_worker_init(payload):
    """Pool initializer: a fresh tracer for this worker, dumped at exit."""
    from multiprocessing import util

    _ACTIVE.reset()
    util.Finalize(None, _dump_worker, exitpriority=10)
    return _ORIGINALS["_worker_init"](payload)


def traced_run_shard(task):
    with _ACTIVE.span("workers.task"):
        return _ORIGINALS["_run_shard"](task)


def traced_run_adaptive_shard(task):
    with _ACTIVE.span("workers.task"):
        return _ORIGINALS["_run_adaptive_shard"](task)


# ---------------------------------------------------------------------------
# Install / uninstall
# ---------------------------------------------------------------------------


def install(tracer: Tracer, trace_dir: Path) -> None:
    """Wrap every layer entry point; spans go to ``tracer``."""
    global _ACTIVE, _TRACE_DIR
    if _PATCHES:
        raise RuntimeError("layer wrappers are already installed")
    import concurrent.futures
    import multiprocessing.shared_memory

    import repro.arrestment
    import repro.flow
    import repro.injection.campaign as campaign
    import repro.injection.estimator as estimator
    import repro.lint
    from repro.adaptive.controller import AdaptiveController
    from repro.arrestment.plant import ArrestmentPlant
    from repro.core.analysis import PropagationAnalysis
    from repro.obs.observer import CampaignObserver
    from repro.simulation.batched import BatchedBackend
    from repro.simulation.runtime import SimulationRun
    from repro.store.fingerprints import UnitKeyBuilder
    from repro.store.store import ResultStore

    _ACTIVE = tracer
    _TRACE_DIR = trace_dir

    def wrap(owner, attr, name, after=None):
        _patch(owner, attr, _spanned(name, getattr(owner, attr), after))

    wrap(repro.arrestment, "build_arrestment_run", "arrestment.build_run")
    wrap(ArrestmentPlant, "before_software", "arrestment.plant")
    wrap(ArrestmentPlant, "after_software", "arrestment.plant")

    wrap(SimulationRun, "run_with_checkpoints", "runtime.golden_run")
    wrap(SimulationRun, "run", "runtime.ir_run", _after_ir_run)
    wrap(SimulationRun, "run_from", "runtime.ir_run", _after_ir_run)
    wrap(SimulationRun, "restore", "runtime.restore")
    wrap(SimulationRun, "step_ms", "runtime.step")

    _patch(BatchedBackend, "case_injections", _spanned_generator(
        "batched.case_injections", BatchedBackend.case_injections,
        "batched.yields"))

    wrap(campaign.InjectionCampaign, "execute", "injection.campaign")
    wrap(campaign.InjectionCampaign, "execute_parallel", "injection.campaign")
    wrap(campaign, "compare_to_golden_run", "injection.grc")
    wrap(repro.lint, "lint_system", "injection.lint")

    wrap(repro.flow, "analyse_run", "flow.analyse")

    wrap(ResultStore, "fetch", "store.fetch")
    wrap(ResultStore, "contains", "store.fetch")
    wrap(ResultStore, "put", "store.put", _after_put)
    wrap(UnitKeyBuilder, "keys_for_case", "store.key")

    wrap(AdaptiveController, "next_round", "adaptive.controller", _after_next_round)
    wrap(AdaptiveController, "complete_round", "adaptive.controller")

    for name in sorted(vars(CampaignObserver)):
        if name.startswith("on_") or name == "absorb_worker":
            wrap(CampaignObserver, name, "obs.emit")

    wrap(estimator, "estimate_matrix", "core.estimate")
    for index in (1, 2, 3, 4):
        wrap(PropagationAnalysis, f"render_table{index}", "core.tables")

    _patch(concurrent.futures, "ProcessPoolExecutor",
           _traced_pool_class(concurrent.futures.ProcessPoolExecutor))
    _patch(multiprocessing.shared_memory, "SharedMemory",
           _traced_shm_class(multiprocessing.shared_memory.SharedMemory))
    for name, wrapper in (
        ("_worker_init", traced_worker_init),
        ("_run_shard", traced_run_shard),
        ("_run_adaptive_shard", traced_run_adaptive_shard),
    ):
        _ORIGINALS[name] = getattr(campaign, name)
        _patch(campaign, name, wrapper)


def uninstall() -> None:
    """Restore every original entry point."""
    global _ACTIVE, _TRACE_DIR
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)
    _ORIGINALS.clear()
    _ACTIVE = None
    _TRACE_DIR = None


def collect(parent: Tracer, trace_dir: Path) -> tuple[dict, dict]:
    """Write the parent's spans beside the workers'; return both.

    Returns the parent's dump and the merged dumps of every worker.
    """
    parent.dump(trace_dir / "parent.json")
    workers = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(trace_dir.glob("spans-*.json"))
    ]
    return parent.to_jsonable(), merge_dumps(workers)
