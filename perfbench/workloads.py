"""The benchmark's three workloads: inputs, set-up, execution, gates.

Each workload is a closed loop: one campaign call at a time from a
single process.  The seed reaches the program only through
:func:`make_inputs`; everything else about a workload is fixed here.

``arrestment-serial``
    The paper's arrestment campaign, exhaustive, serial ``execute()``,
    reference backend, no store, no observer.
``arrestment-adaptive-sharded``
    The same grid in the production configuration: adaptive stopping
    (``ci_width=0.1``), ``execute_parallel`` over two workers, a fresh
    result store and a :class:`CampaignObserver` writing events and
    metrics.
``chain-batched-edit``
    The prunable XOR chain on the batched backend with static pruning
    and a fresh store: a cold campaign, then the same campaign after
    one module's mask was edited.

Wall time runs from the first campaign call to the rendering of Tables
1-4 of the last result (:func:`render_tables`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.arrestment
import repro.injection.estimator as estimator
from repro.arrestment import build_arrestment_model
from repro.arrestment.testcases import reduced_test_cases
from repro.core.analysis import PropagationAnalysis
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.selection import paper_times
from repro.obs.observer import CampaignObserver
from repro.verify.generators import (
    GeneratedModule,
    GeneratedSystem,
    GeneratedSystemSpec,
)

from perfbench.layers import ROOT

ARRESTMENT_SERIAL = "arrestment-serial"
ARRESTMENT_ADAPTIVE = "arrestment-adaptive-sharded"
CHAIN_EDIT = "chain-batched-edit"
WORKLOADS = (ARRESTMENT_SERIAL, ARRESTMENT_ADAPTIVE, CHAIN_EDIT)

#: The paper's run length and injection instants.
DURATION_MS = 8000
INSTANTS_MS = paper_times()

#: Bit positions flipped on the arrestment grid: one in each byte of
#: the 16-bit signals, not bits 0..k, because whether an error dies out
#: depends on the bit.  Two positions keep one exhaustive campaign
#: (13 targets x 10 instants x 2 bits = 260 runs of 8 s) near 20 s on
#: one core; the paper's full 16 would take ~170 s per case.
ARRESTMENT_BITS = (4, 12)

#: The arrestment case: the first of the reduced workload grid.  The
#: seed does not choose among cases because their campaign cost differs
#: by up to 17 % (m14000-v60 25.8 s vs m11000-v50 30.3 s on the 3-bit
#: grid), which would swamp the benchmark's bounds.
ARRESTMENT_CASES = 1

#: Adaptive stopping as in the production configuration.
ADAPTIVE_CI_WIDTH = 0.1
POOL_WORKERS = 2

#: The XOR chain: modules M0..M4, each XOR-ing the previous stage into
#: its own full-width self-loop, plus the tap MT whose all-zero masks
#: the flow analysis proves dead (3 pruned rows, 10 live).
CHAIN_LENGTH = 5
CHAIN_BITS = 16
#: The edit flips this many of the 16 bits of M0's forward mask to
#: zero.  A fixed popcount keeps the edited re-run's cost independent
#: of which bits the seed picks.
CHAIN_EDIT_CLEARED = 8
CHAIN_EDITED_MODULE = "M0"


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from the seed."""

    campaign_seed: int
    #: Chain only: the environment's LCG seed and the bits the edit
    #: clears from M0's forward mask.
    env_seed: int | None = None
    edit_cleared_bits: tuple[int, ...] = ()


def make_inputs(workload: str, seed: int) -> Inputs:
    """The generated inputs of ``workload`` for ``seed`` (deterministic)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != CHAIN_EDIT:
        return Inputs(campaign_seed=seed)
    rng = random.Random(f"{workload}:{seed}")
    return Inputs(
        campaign_seed=seed,
        env_seed=rng.randrange(1, 2**31),
        edit_cleared_bits=tuple(
            sorted(rng.sample(range(CHAIN_BITS), CHAIN_EDIT_CLEARED))
        ),
    )


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def arrestment_config(inputs: Inputs, **extra) -> CampaignConfig:
    models = bit_flip_models(16)
    return CampaignConfig(
        duration_ms=DURATION_MS,
        injection_times_ms=INSTANTS_MS,
        error_models=tuple(models[bit] for bit in ARRESTMENT_BITS),
        seed=inputs.campaign_seed,
        backend="reference",
        **extra,
    )


def chain_specs(inputs: Inputs) -> tuple[GeneratedSystemSpec, GeneratedSystemSpec]:
    """The cold chain and the chain after the edit of M0's mask."""
    full = (1 << CHAIN_BITS) - 1
    widths = {"x_in": CHAIN_BITS}
    modules = []
    previous = "x_in"
    for index in range(CHAIN_LENGTH):
        out = f"s{index}"
        widths[out] = CHAIN_BITS
        modules.append(
            GeneratedModule(
                name=f"M{index}",
                inputs=(previous, out),
                outputs=(out,),
                masks={previous: {out: full}, out: {out: full}},
            )
        )
        previous = out
    tap_inputs = ("x_in", "s0", "s1")
    widths["t0"] = CHAIN_BITS
    modules.append(
        GeneratedModule(
            name="MT",
            inputs=tap_inputs,
            outputs=("t0",),
            masks={signal: {"t0": 0} for signal in tap_inputs},
        )
    )
    cold = GeneratedSystemSpec(
        name="bench-prunable-chain",
        seed=0,
        n_slots=CHAIN_LENGTH,
        env_seed=inputs.env_seed,
        widths=widths,
        system_inputs=("x_in",),
        system_outputs=(previous, "t0"),
        modules=tuple(modules),
    )
    cleared = 0
    for bit in inputs.edit_cleared_bits:
        cleared |= 1 << bit
    head = modules[0]
    edited_head = dataclasses.replace(
        head, masks={"x_in": {"s0": full & ~cleared}, "s0": {"s0": full}}
    )
    edited = dataclasses.replace(cold, modules=(edited_head, *modules[1:]))
    return cold, edited


@dataclass
class Prepared:
    """One workload execution, set up and not yet started."""

    workload: str
    inputs: Inputs
    campaigns: list[InjectionCampaign]
    workdir: Path
    observer: CampaignObserver | None = None
    generated: list[GeneratedSystem] = field(default_factory=list)


def prepare(workload: str, inputs: Inputs, workdir: Path) -> Prepared:
    """Set-up: model, run factory, cases, config, campaign construction.

    ``workdir`` receives the store and the observer's files; it is
    emptied first, so each execution starts from a fresh store.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if workload == CHAIN_EDIT:
        config = CampaignConfig(
            duration_ms=DURATION_MS,
            injection_times_ms=INSTANTS_MS,
            error_models=tuple(bit_flip_models(CHAIN_BITS)),
            seed=inputs.campaign_seed,
            backend="batched",
            static_prune=True,
            store=str(workdir / "store"),
        )
        generated = [GeneratedSystem(spec) for spec in chain_specs(inputs)]
        campaigns = [
            InjectionCampaign(g.system, g.run_factory, {"w0": None}, config)
            for g in generated
        ]
        return Prepared(workload, inputs, campaigns, workdir, generated=generated)
    model = build_arrestment_model()
    factory = repro.arrestment.build_arrestment_run
    cases = reduced_test_cases(ARRESTMENT_CASES)
    if workload == ARRESTMENT_SERIAL:
        campaign = InjectionCampaign(model, factory, cases, arrestment_config(inputs))
        return Prepared(workload, inputs, [campaign], workdir)
    observer = CampaignObserver.to_files(
        events_path=workdir / "events.jsonl", with_metrics=True, system=model
    )
    config = arrestment_config(
        inputs,
        adaptive=True,
        ci_width=ADAPTIVE_CI_WIDTH,
        store=str(workdir / "store"),
    )
    campaign = InjectionCampaign(model, factory, cases, config, observer=observer)
    return Prepared(workload, inputs, [campaign], workdir, observer=observer)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Execution:
    """What one timed workload execution produced."""

    wall_s: float
    results: list
    store_stats: list
    #: Injection runs actually simulated (not cached, pruned or skipped).
    executed: int


def render_tables(result) -> list[str]:
    """Tables 1-4 of one campaign result (the end of the timed region)."""
    analysis = PropagationAnalysis(estimator.estimate_matrix(result))
    return [
        analysis.render_table1(),
        analysis.render_table2(),
        analysis.render_table3(),
        analysis.render_table4(),
    ]


def execute(prepared: Prepared, tracer=None) -> Execution:
    """Run the timed region; ``tracer`` opens the root span around it."""
    frame = tracer.enter(ROOT) if tracer is not None else None
    started = time.perf_counter()
    results = []
    stats = []
    for campaign in prepared.campaigns:
        if prepared.workload == ARRESTMENT_ADAPTIVE:
            results.append(campaign.execute_parallel(max_workers=POOL_WORKERS))
        else:
            results.append(campaign.execute())
        stats.append(campaign.last_store_stats)
    if prepared.observer is not None:
        prepared.observer.metrics.dump_json(prepared.workdir / "metrics.json")
        prepared.observer.close()
    render_tables(results[-1])
    wall_s = time.perf_counter() - started
    if frame is not None:
        tracer.exit(frame)
    if prepared.workload == CHAIN_EDIT:
        executed = sum(s.runs_executed for s in stats)
    else:
        executed = sum(len(result) for result in results)
    return Execution(wall_s, results, stats, executed)


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def coordinate(outcome) -> str:
    return "|".join(
        str(part)
        for part in (
            outcome.case_id,
            outcome.module,
            outcome.input_signal,
            outcome.scheduled_time_ms,
            outcome.error_model,
        )
    )


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def strategy_digest(outcome) -> str:
    """Digest of what every execution strategy must agree on.

    Leaves out the fast-forward bookkeeping (reconvergence instant,
    frames spliced), which the naive mode does not produce.
    """
    return _digest(
        [
            coordinate(outcome),
            outcome.fired_at_ms,
            sorted(outcome.comparison.first_divergence_ms.items()),
        ]
    )


def record_digest(outcome) -> str:
    """Digest of the complete outcome record, as the store persists it."""
    return _digest(outcome.to_jsonable())


def grid_description() -> dict:
    """The arrestment grid a recorded reference belongs to."""
    return {
        "cases": list(reduced_test_cases(ARRESTMENT_CASES)),
        "duration_ms": DURATION_MS,
        "instants_ms": list(INSTANTS_MS),
        "bits": list(ARRESTMENT_BITS),
    }


@dataclass
class GateReport:
    attempted: int
    failed: int
    problems: list[str]


def check(
    prepared: Prepared, execution: Execution, reference: dict | None
) -> GateReport:
    """Count grid coordinates whose outcome fails the workload's gate.

    A coordinate fails when its outcome is missing, differs from the
    reference, or came from a rejected store artifact.
    """
    problems: list[str] = []
    rejected = sum(s.rejected for s in execution.store_stats if s is not None)
    if prepared.workload == CHAIN_EDIT:
        return _check_chain(prepared, execution, rejected)
    if reference is None or reference.get("grid") != grid_description():
        raise ValueError(
            "the recorded arrestment reference does not describe this grid; "
            "re-run perfbench/record_reference.py"
        )
    (result,) = execution.results
    if prepared.workload == ARRESTMENT_SERIAL:
        expected = reference["strategy"]
        seen = {coordinate(o): strategy_digest(o) for o in result}
        failed = 0
        for coord, digest in expected.items():
            if seen.get(coord) != digest:
                failed += 1
                if len(problems) < 5:
                    problems.append(
                        f"{coord}: outcome differs from the naive reference"
                    )
        failed += len(set(seen) - set(expected))
        return GateReport(len(expected), failed + rejected, problems)
    expected = reference["record"]
    failed = 0
    for outcome in result:
        if expected.get(coordinate(outcome)) != record_digest(outcome):
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"{coordinate(outcome)}: sampled outcome differs from the "
                    "exhaustive reference"
                )
    attempted = len(result)
    if attempted != result.n_adaptive_trials():
        problems.append("sampled outcomes do not match the retired trial counts")
        failed += abs(result.n_adaptive_trials() - attempted)
    return GateReport(attempted, failed + rejected, problems)


def dependency_rows(spec: GeneratedSystemSpec, edited: str, rows) -> set:
    """Rows whose outcomes the edit of ``edited`` can change.

    A row injected at module M depends on M and every module its
    outputs transitively reach.
    """
    affected = set()
    for module, signal in rows:
        cone = {module}
        frontier = list(spec.module(module).outputs)
        while frontier:
            for consumer in spec.consumers_of(frontier.pop()):
                if consumer not in cone:
                    cone.add(consumer)
                    frontier.extend(spec.module(consumer).outputs)
        if edited in cone:
            affected.add((module, signal))
    return affected


def _check_chain(prepared: Prepared, execution: Execution, rejected: int) -> GateReport:
    problems: list[str] = []
    runs_per_row = len(INSTANTS_MS) * CHAIN_BITS
    failed_rows = rejected
    attempted = 0
    for generated, result in zip(prepared.generated, execution.results):
        measured = estimator.estimate_matrix(result)
        analytical = generated.analytical_matrix(CHAIN_BITS)
        rows = [
            (module.name, signal)
            for module in generated.spec.modules
            for signal in module.inputs
        ]
        attempted += len(rows) * runs_per_row
        for module, signal in rows:
            outputs = generated.spec.module(module).outputs
            if any(
                measured.get_or_none(module, signal, output)
                != analytical.get(module, signal, output)
                for output in outputs
            ):
                failed_rows += 1
                if len(problems) < 5:
                    problems.append(f"{module}.{signal}: estimate != analytical")
    cold_stats, edit_stats = execution.store_stats
    live = [
        (module.name, signal)
        for module in prepared.generated[0].spec.modules
        for signal in module.inputs
        if (module.name, signal) not in set(execution.results[0].pruned_targets())
    ]
    expected_misses = len(
        dependency_rows(prepared.generated[1].spec, CHAIN_EDITED_MODULE, live)
    )
    expected = (0, len(live), len(live) - expected_misses, expected_misses)
    actual = (cold_stats.hits, cold_stats.misses, edit_stats.hits, edit_stats.misses)
    if actual != expected:
        failed_rows += abs(edit_stats.hits - expected[2]) + abs(cold_stats.hits)
        problems.append(
            f"store (cold hits, cold misses, edit hits, edit misses) {actual} "
            f"!= dependency cone {expected}"
        )
    return GateReport(attempted, failed_rows * runs_per_row, problems)
