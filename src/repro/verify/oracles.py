"""Differential oracle: analysis vs. injection vs. execution strategies.

Given an executable system, :func:`differential_oracle` runs one small
injection campaign under all three execution strategies (naive,
checkpointed, fast-forward) and asserts the cross-cutting invariants
the rest of the repo relies on:

``strategy-identity``
    Byte-identical traces (per-IR and Golden Run) and identical
    outcome fingerprints across all three strategies.
``obs-vs-estimator``
    The baseline strategy, run again with static pruning and recorded:
    the dashboard reducer (:class:`~repro.obs.dash.CampaignStateReducer`)
    replaying its event stream agrees with :func:`estimate_matrix` over
    the baseline's outcomes — values *and* raw trial counts.
``exact-agreement`` (generated systems)
    Measured permeability equals the analytical matrix exactly.  The
    XOR-mask behavioural model of :mod:`repro.verify.generators` makes
    the analytical value exact, so any deviation — including the
    off-by-one a wide confidence interval would forgive at n≈16 —
    is a bug.
``ci-containment`` / ``ci-sanity`` (generated systems)
    The Wilson interval of every measured pair contains the analytical
    value, and the interval itself is well-formed
    (``0 <= lo <= p̂ <= hi <= 1``).
``static-containment`` (generated systems)
    The static flow bounds of :mod:`repro.flow` contain the measured
    permeability of every arc, and are exact-tight (``lo == hi ==``
    the analytical value) on the pure-XOR generated modules.
``incremental-parity`` (generated systems)
    Re-running the campaign against a warm :mod:`repro.store` result
    store executes zero injection runs yet recomposes outcomes and the
    estimate matrix byte-identical to the cold pass.
``store-invalidation`` (generated systems)
    Changing one result-relevant configuration field (seed, duration,
    instants, error models, fast-forward) changes the store key of every
    cacheable row; changing one field proven outcome-invariant (prefix
    reuse, backend, static pruning) changes none.
``adaptive-soundness`` (generated systems)
    The confidence-driven campaign (``CampaignConfig(adaptive=True)``,
    see :mod:`repro.adaptive`) samples only outcomes that are
    byte-identical to the exhaustive campaign's at the same grid
    coordinates, retires every target, records stopping half-widths
    that agree with its achieved counts, and every retired Wilson
    interval contains the analytical permeability of each output arc.
``metamorphic-dead-sink`` (generated systems)
    Adding a module that consumes an existing signal but feeds nothing
    never changes the exposures of pre-existing modules and signals.
``metamorphic-prerr-scaling`` (generated systems)
    Scaling a system input's ``Pr(err)`` by ``c`` rescales every
    adjusted propagation-path weight from that input by exactly ``c``.

A violated invariant raises :class:`OracleFailure` naming the check.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.backtrack import build_all_backtrack_trees
from repro.core.exposure import all_module_exposures, signal_exposures_for_matrix
from repro.core.graph import PermeabilityGraph
from repro.core.paths import paths_of_backtrack_tree
from repro.core.permeability import PermeabilityEstimate, PermeabilityMatrix
from repro.core.stats import wilson_interval
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import StuckAtZero, bit_flip_models
from repro.injection.estimator import estimate_matrix, pair_trial_counts
from repro.model.module import ModuleSpec
from repro.model.system import SystemModel
from repro.obs.dash.reducer import CampaignStateReducer
from repro.obs.events import EventStream, RingBufferSink
from repro.obs.observer import CampaignObserver
from repro.simulation.runtime import RunResult, SimulationRun
from repro.verify.generators import GeneratedSystem

__all__ = [
    "OracleFailure",
    "OracleReport",
    "VerifyCampaign",
    "check_adaptive_soundness",
    "check_incremental_parity",
    "check_static_containment",
    "check_store_invalidation",
    "default_campaign",
    "differential_oracle",
    "select_strategies",
    "verify_generated",
]

#: The execution strategies under test:
#: (label, reuse_golden_prefix, fast_forward, backend).  The first
#: entry is the baseline every other strategy must match byte-for-byte;
#: the ``batched`` strategy runs the vectorized lane kernel on top of
#: the fast-forward configuration, so one oracle pass cross-checks the
#: campaign engine *and* the simulation backend.
STRATEGIES: tuple[tuple[str, bool, bool, str], ...] = (
    ("naive", False, False, "reference"),
    ("checkpointed", True, False, "reference"),
    ("fast_forward", True, True, "reference"),
    ("batched", True, True, "batched"),
)

#: Slack between measured floats that should be *identical* arithmetic.
EXACT_ATOL = 1e-9


class OracleFailure(AssertionError):
    """A differential-oracle invariant was violated."""

    def __init__(self, check: str, message: str) -> None:
        super().__init__(f"[{check}] {message}")
        self.check = check
        self.message = message


@dataclass(frozen=True)
class OracleReport:
    """Summary of one successful oracle pass."""

    system: str
    n_runs: int
    has_feedback: bool
    checks: tuple[str, ...]
    n_strategies: int = len(STRATEGIES)
    #: Runs the obs-vs-estimator replay received as ArcsPruned rows.
    n_pruned_runs: int = 0

    def render(self) -> str:
        feedback = "with feedback" if self.has_feedback else "acyclic"
        pruned = f", {self.n_pruned_runs} pruned" if self.n_pruned_runs else ""
        return (
            f"{self.system}: {self.n_runs} runs x "
            f"{self.n_strategies} strategies ({feedback}{pruned}); "
            f"checks: {', '.join(self.checks)}"
        )


@dataclass(frozen=True)
class VerifyCampaign:
    """JSON-able campaign shape the oracle runs per system."""

    duration_ms: int
    injection_times_ms: tuple[int, ...]
    n_bits: int
    seed: int
    #: ``None`` injects every input of every module.
    targets: tuple[tuple[str, str], ...] | None = None

    def to_config(
        self, reuse: bool, fast_forward: bool, backend: str = "reference"
    ) -> CampaignConfig:
        return CampaignConfig(
            duration_ms=self.duration_ms,
            injection_times_ms=self.injection_times_ms,
            error_models=tuple(bit_flip_models(self.n_bits)),
            targets=self.targets,
            seed=self.seed,
            reuse_golden_prefix=reuse,
            fast_forward=fast_forward,
            backend=backend,
        )

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "duration_ms": self.duration_ms,
            "injection_times_ms": list(self.injection_times_ms),
            "n_bits": self.n_bits,
            "seed": self.seed,
            "targets": (
                None if self.targets is None else [list(t) for t in self.targets]
            ),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "VerifyCampaign":
        targets = data.get("targets")
        return cls(
            duration_ms=int(data["duration_ms"]),
            injection_times_ms=tuple(int(t) for t in data["injection_times_ms"]),
            n_bits=int(data["n_bits"]),
            seed=int(data["seed"]),
            targets=(
                None
                if targets is None
                else tuple((str(m), str(s)) for m, s in targets)
            ),
        )


def default_campaign(generated: GeneratedSystem) -> VerifyCampaign:
    """The standard small campaign for a generated system.

    Two injection instants; the duration leaves every module at least
    two further activations after the latest instant, so via-feedback
    propagation is always observable within the run.
    """
    spec = generated.spec
    times = (3, 7 + spec.n_slots)
    return VerifyCampaign(
        duration_ms=max(times) + 3 * spec.n_slots + 2,
        injection_times_ms=times,
        n_bits=min(8, spec.min_input_width()),
        seed=spec.seed * 2 + 1,
    )


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def run_digest(result: RunResult) -> str:
    """Digest of every recorded trace of a run (order-sensitive)."""
    h = hashlib.blake2b(digest_size=16)
    assert result.traces is not None, "only a run with traces has a digest"
    for trace in result.traces:
        h.update(trace.signal.encode())
        h.update(b"\x00")
        h.update(memoryview(trace.samples).cast("B"))
    return h.hexdigest()


def _outcome_fingerprint(outcome) -> tuple:
    divergences = tuple(sorted(outcome.comparison.first_divergence_ms.items()))
    return (
        outcome.case_id,
        outcome.module,
        outcome.input_signal,
        outcome.scheduled_time_ms,
        outcome.error_model,
        outcome.fired_at_ms,
        divergences,
    )


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def select_strategies(
    backends: tuple[str, ...] | None = None,
) -> tuple[tuple[str, bool, bool, str], ...]:
    """The :data:`STRATEGIES` subset exercising ``backends``.

    ``None`` keeps every strategy.  The baseline (first) strategy is
    always retained so there is something to compare against.
    """
    if backends is None:
        return STRATEGIES
    wanted = set(backends)
    selected = tuple(
        strategy
        for index, strategy in enumerate(STRATEGIES)
        if index == 0 or strategy[3] in wanted
    )
    return selected


def differential_oracle(
    system: SystemModel,
    run_factory: Callable[..., SimulationRun],
    cases: Mapping[str, object],
    campaign: VerifyCampaign,
    analytical: PermeabilityMatrix | None = None,
    backends: tuple[str, ...] | None = None,
):
    """Run the campaign under every strategy and cross-check the results.

    Every strategy runs with an inspector, so each run's traces are
    compared too.  Each fast-forward strategy runs once more without
    one, the production path: batched lanes keep no traces and the
    kernel compares them, and reference runs share their batch's state
    memo and may take an earlier run's outcome.  Every outcome record
    of that pass, lifetimes included, must equal the inspected pass's.
    Returns ``(OracleReport, CampaignResult)`` — the result is the
    naive strategy's, for callers wanting further analysis.  Raises
    :class:`OracleFailure` on the first violated invariant.
    ``backends`` restricts the strategy matrix to the named simulation
    backends (the baseline strategy always stays in).
    """
    checks: list[str] = []
    results = {}
    fingerprints = {}
    uninspected = {}
    strategies = select_strategies(backends)
    for label, reuse, fast_forward, backend in strategies:
        config = campaign.to_config(
            reuse=reuse, fast_forward=fast_forward, backend=backend
        )
        run = InjectionCampaign(system, run_factory, cases, config)
        ir_prints: list[tuple] = []

        def inspector(outcome, result, golden, sink=ir_prints):
            sink.append((_outcome_fingerprint(outcome), run_digest(result)))

        result = run.execute(inspector=inspector)
        golden_prints = tuple(
            sorted(
                (case_id, run_digest(golden.result))
                for case_id, golden in run.golden_runs().items()
            )
        )
        results[label] = result
        fingerprints[label] = (tuple(ir_prints), golden_prints)
        if fast_forward:
            bare = InjectionCampaign(system, run_factory, cases, config).execute()
            uninspected[label] = (
                [o.to_jsonable() for o in result],
                [o.to_jsonable() for o in bare],
            )

    reference_label = strategies[0][0]
    reference = fingerprints[reference_label]
    for label, _, _, _ in strategies[1:]:
        if fingerprints[label] != reference:
            raise OracleFailure(
                "strategy-identity",
                f"{label} diverged from {reference_label} on {system.name!r}: "
                f"{_first_difference(reference, fingerprints[label])}",
            )
    for label, (inspected, bare) in uninspected.items():
        if bare != inspected:
            raise OracleFailure(
                "strategy-identity",
                f"{label} without an inspector diverged from its inspected "
                f"pass on {system.name!r}: "
                f"{_first_outcome_difference(inspected, bare)}",
            )
    checks.append("strategy-identity")

    result = results[reference_label]
    require_complete = campaign.targets is None
    measured = estimate_matrix(result, require_complete=require_complete)
    # The baseline strategy once more, statically pruned and recorded:
    # the dashboard reducer's replay of its event stream (pruned rows
    # arrive as ArcsPruned only) must give the estimator's matrix.
    _, reuse, fast_forward, backend = strategies[0]
    events = RingBufferSink(capacity=None)
    pruned = InjectionCampaign(
        system,
        run_factory,
        cases,
        dataclasses.replace(
            campaign.to_config(reuse, fast_forward, backend), static_prune=True
        ),
        observer=CampaignObserver(events=EventStream(events)),
    ).execute()
    reducer = CampaignStateReducer()
    for record in events.records:
        reducer.feed(record)
    observed = PermeabilityMatrix.from_jsonable(system, reducer.matrix_jsonable())
    diff = measured.diff(observed)
    if not diff.agrees(atol=0.0):
        raise OracleFailure(
            "obs-vs-estimator",
            f"the replayed event stream disagrees with estimate_matrix on "
            f"{system.name!r}: max |delta| = {diff.max_abs_delta}",
        )
    if pair_trial_counts(measured) != pair_trial_counts(observed):
        raise OracleFailure(
            "obs-vs-estimator",
            f"per-pair trial counts differ on {system.name!r}",
        )
    checks.append("obs-vs-estimator")

    if analytical is not None:
        _check_against_analytical(system, measured, analytical, checks)

    report = OracleReport(
        system=system.name,
        n_runs=len(result),
        has_feedback=bool(system.feedback_modules()),
        checks=tuple(checks),
        n_strategies=len(strategies),
        n_pruned_runs=pruned.n_pruned_runs(),
    )
    return report, result


def _first_difference(reference, candidate) -> str:
    ref_irs, ref_golden = reference
    cand_irs, cand_golden = candidate
    if ref_golden != cand_golden:
        return f"golden-run digests differ: {ref_golden} vs {cand_golden}"
    for index, (ref_item, cand_item) in enumerate(zip(ref_irs, cand_irs)):
        if ref_item != cand_item:
            return (
                f"IR #{index}: {ref_item[0]} -> outcome/digest "
                f"{cand_item[0]!r}/{cand_item[1]} vs {ref_item[1]}"
            )
    return f"IR count differs: {len(ref_irs)} vs {len(cand_irs)}"


def _first_outcome_difference(reference, candidate) -> str:
    for index, (ref_item, cand_item) in enumerate(zip(reference, candidate)):
        if ref_item != cand_item:
            return f"outcome #{index}: {cand_item!r} vs {ref_item!r}"
    return f"outcome count differs: {len(reference)} vs {len(candidate)}"


def _check_against_analytical(
    system: SystemModel,
    measured: PermeabilityMatrix,
    analytical: PermeabilityMatrix,
    checks: list[str],
) -> None:
    diff = measured.diff(analytical)
    if not diff.agrees(atol=EXACT_ATOL):
        raise OracleFailure(
            "exact-agreement",
            f"measured != analytical on {system.name!r} "
            f"(bit-deterministic behaviours must match exactly):\n"
            f"{diff.render()}",
        )
    checks.append("exact-agreement")

    for key, (n_errors, n_injections) in pair_trial_counts(measured).items():
        estimate = PermeabilityEstimate.from_counts(n_errors, n_injections)
        lo, hi = estimate.wilson_interval()
        module, input_signal, output_signal = key
        pair = f"{module}: {input_signal} -> {output_signal}"
        if not (0.0 <= lo <= estimate.value + EXACT_ATOL and
                estimate.value - EXACT_ATOL <= hi <= 1.0):
            raise OracleFailure(
                "ci-sanity",
                f"Wilson interval ({lo}, {hi}) malformed around point "
                f"estimate {estimate.value} for {pair} on {system.name!r}",
            )
        expected = analytical.get_or_none(*key)
        if expected is None:
            raise OracleFailure(
                "ci-containment",
                f"analytical matrix misses measured pair {pair}",
            )
        if not (lo - EXACT_ATOL <= expected <= hi + EXACT_ATOL):
            raise OracleFailure(
                "ci-containment",
                f"analytical {expected} outside Wilson interval "
                f"({lo}, {hi}) of {pair} on {system.name!r} "
                f"(n={n_injections}, errors={n_errors})",
            )
    checks.append("ci-sanity")
    checks.append("ci-containment")


# ---------------------------------------------------------------------------
# Static flow bounds (generated systems)
# ---------------------------------------------------------------------------


def check_static_containment(
    generated: GeneratedSystem,
    campaign: VerifyCampaign,
    measured: PermeabilityMatrix,
    analytical: PermeabilityMatrix,
) -> None:
    """The static flow bounds contain the measurement and are tight.

    Soundness applies everywhere: the measured matrix must lie within
    the bounds on every arc.  Tightness applies to the analysable part:
    a pure XOR-mask module loses nothing under the abstract
    interpretation of :mod:`repro.flow`, so each of its arcs must come
    out as a *point* interval equal to the analytical permeability.
    Arcs of opaque modules (``OpaqueMaskModule`` hides its plan) stay
    at ⊤ and are only checked for containment.
    """
    from repro.flow import analyse_run

    runner = generated.build_run()
    analysis = analyse_run(
        runner, error_models=tuple(bit_flip_models(campaign.n_bits))
    )
    bounds = analysis.bounds
    if not bounds.is_complete():
        raise OracleFailure(
            "static-containment",
            f"flow analysis left arcs unbounded on "
            f"{generated.system.name!r}: {bounds.missing_pairs()[:3]}",
        )
    violations = bounds.violations(measured, atol=EXACT_ATOL)
    if violations:
        raise OracleFailure(
            "static-containment",
            f"measured permeability escapes static bounds on "
            f"{generated.system.name!r}: " + "; ".join(violations[:3]),
        )
    flows = analysis.module_flows
    for (module, input_signal, output_signal), interval in bounds.items():
        if not flows[module].exact:
            continue  # opaque module: T is the best (and a sound) answer
        pair = f"{module}: {input_signal} -> {output_signal}"
        if not interval.exact:
            raise OracleFailure(
                "static-containment",
                f"bounds {interval} not tight on pure-XOR arc {pair} "
                f"of {generated.system.name!r}",
            )
        expected = analytical.get_or_none(module, input_signal, output_signal)
        if expected is None or abs(interval.lo - expected) > EXACT_ATOL:
            raise OracleFailure(
                "static-containment",
                f"static point bound {interval.lo} != analytical "
                f"{expected} on {pair} of {generated.system.name!r}",
            )


# ---------------------------------------------------------------------------
# Incremental result store (generated systems)
# ---------------------------------------------------------------------------


def check_incremental_parity(
    generated: GeneratedSystem, campaign: VerifyCampaign
) -> None:
    """A warm result store replays the campaign without executing.

    Runs the campaign cold into a fresh store, then warm from it, and
    asserts the contract of :mod:`repro.store`: the warm pass executes
    zero injection runs (every row a cache hit) yet recomposes outcomes
    and estimate matrix byte-identical to the cold pass — and to a
    store-less run, since the cold pass itself is compared against the
    baseline fingerprints by ``strategy-identity`` conventions.  A third
    pass checks reuse across schedules: after an adaptive campaign in
    another fresh store, the exhaustive campaign executes exactly the
    grid minus the adaptive trials, with the cold pass's outcomes.
    """
    import tempfile

    cases = {"gen": None}

    def run(store_dir: str, **overrides):
        config = campaign.to_config(reuse=True, fast_forward=True)
        config = dataclasses.replace(config, store=store_dir, **overrides)
        run_ = InjectionCampaign(
            generated.system, generated.run_factory, cases, config
        )
        result = run_.execute()
        return result, run_.last_store_stats

    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        cold_result, cold_stats = run(store_dir)
        warm_result, warm_stats = run(store_dir)
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        adaptive_result, _ = run(store_dir, adaptive=True, ci_width=0.3)
        mixed_result, mixed_stats = run(store_dir)
    if cold_stats.hits or not cold_stats.misses:
        raise OracleFailure(
            "incremental-parity",
            f"cold pass expected all misses on {generated.system.name!r}, "
            f"got {cold_stats.to_jsonable()}",
        )
    if warm_stats.runs_executed or warm_stats.misses or warm_stats.rejected:
        raise OracleFailure(
            "incremental-parity",
            f"warm pass executed work on {generated.system.name!r}: "
            f"{warm_stats.to_jsonable()}",
        )
    cold_prints = [outcome.to_jsonable() for outcome in cold_result]
    warm_prints = [outcome.to_jsonable() for outcome in warm_result]
    if cold_prints != warm_prints:
        raise OracleFailure(
            "incremental-parity",
            f"warm outcomes differ from cold on {generated.system.name!r}",
        )
    n_adaptive = len(adaptive_result)
    if (
        mixed_stats.runs_reused != n_adaptive
        or mixed_stats.runs_executed != len(cold_result) - n_adaptive
    ):
        raise OracleFailure(
            "incremental-parity",
            f"exhaustive pass after {n_adaptive} adaptive trials on "
            f"{generated.system.name!r} should execute "
            f"{len(cold_result) - n_adaptive} of {len(cold_result)} runs: "
            f"{mixed_stats.to_jsonable()}",
        )
    if [outcome.to_jsonable() for outcome in mixed_result] != cold_prints:
        raise OracleFailure(
            "incremental-parity",
            f"outcomes after adaptive rows differ from cold on "
            f"{generated.system.name!r}",
        )
    require_complete = campaign.targets is None
    cold_matrix = estimate_matrix(
        cold_result, require_complete=require_complete
    ).to_jsonable()
    warm_matrix = estimate_matrix(
        warm_result, require_complete=require_complete
    ).to_jsonable()
    if cold_matrix != warm_matrix:
        raise OracleFailure(
            "incremental-parity",
            f"warm estimate matrix differs from cold on "
            f"{generated.system.name!r}",
        )


def check_store_invalidation(
    generated: GeneratedSystem, campaign: VerifyCampaign
) -> None:
    """Each result-relevant config field is in every row's store key.

    Works on the keys alone (no campaign runs): builds the case's unit
    keys under the campaign's config, then with one field changed at a
    time.  A stored row answers a campaign whose key matches, so a
    field the outcomes depend on that leaves a key unchanged lets a
    warm store replay results of another experiment; a field proven
    outcome-invariant that changes a key only costs cache hits.
    """
    from repro.store import UnitKeyBuilder

    config = campaign.to_config(reuse=True, fast_forward=True)
    cases = {"gen": None}
    targets = InjectionCampaign(
        generated.system, generated.run_factory, cases, config
    ).targets

    def keys(changed: dict) -> dict:
        builder = UnitKeyBuilder(
            generated.system,
            generated.run_factory,
            dataclasses.replace(config, **changed),
        )
        return {
            target: key.digest
            for target, key in builder.keys_for_case("gen", None, targets).items()
            if key.cacheable
        }

    base = keys({})
    if not base:
        raise OracleFailure(
            "store-invalidation", f"no cacheable row on {generated.system.name!r}"
        )
    times = config.injection_times_ms
    relevant = {
        "seed": config.seed + 1,
        "duration_ms": config.duration_ms + 1,
        "injection_times_ms": (*times[:-1], times[-1] + 1),
        "error_models": (*config.error_models[:-1], StuckAtZero(0)),
        "fast_forward": not config.fast_forward,
    }
    invariant = {
        "reuse_golden_prefix": not config.reuse_golden_prefix,
        "backend": "batched" if config.backend == "reference" else "reference",
        "static_prune": not config.static_prune,
    }
    for name, value in {**relevant, **invariant}.items():
        changed = keys({name: value})
        kept = [target for target in base if changed.get(target) == base[target]]
        wrong = kept if name in relevant else sorted(set(base) - set(kept))
        if wrong:
            verb = "keeps" if name in relevant else "changes"
            raise OracleFailure(
                "store-invalidation",
                f"changing {name} {verb} the store key of {len(wrong)} of "
                f"{len(base)} row(s) on {generated.system.name!r}, "
                f"e.g. {wrong[0]}",
            )


# ---------------------------------------------------------------------------
# Adaptive stopping (generated systems)
# ---------------------------------------------------------------------------


def check_adaptive_soundness(
    generated: GeneratedSystem,
    campaign: VerifyCampaign,
    analytical: PermeabilityMatrix,
    ci_width: float = 0.2,
) -> None:
    """The confidence-driven campaign stops early without lying.

    Runs the campaign exhaustively and adaptively (same seed, same
    grid) and asserts the contract of :mod:`repro.adaptive`:

    - every sampled adaptive outcome is byte-identical to the
      exhaustive outcome at the same grid coordinates (the sequential
      controller only *selects*, it never perturbs a run);
    - every live target retires, with ``1 <= n_trials <= n_grid``;
    - the recorded stopping half-width of each retired target agrees
      with the Wilson half-width recomputed from its achieved counts;
    - targets retired for ``confidence`` actually meet the configured
      interval width;
    - the achieved Wilson interval of every output arc contains the
      analytical permeability (XOR-mask systems measure exactly, so
      containment is necessary, not merely probable);
    - the adaptive estimate matrix is still complete.
    """
    cases = {"gen": None}
    base = campaign.to_config(reuse=True, fast_forward=True)
    exhaustive = InjectionCampaign(
        generated.system, generated.run_factory, cases, base
    ).execute()
    adaptive_config = dataclasses.replace(base, adaptive=True, ci_width=ci_width)
    adaptive = InjectionCampaign(
        generated.system, generated.run_factory, cases, adaptive_config
    ).execute()
    name = generated.system.name

    by_coord = {
        (
            outcome.case_id,
            outcome.module,
            outcome.input_signal,
            outcome.scheduled_time_ms,
            outcome.error_model,
        ): outcome
        for outcome in exhaustive
    }
    for outcome in adaptive:
        coord = (
            outcome.case_id,
            outcome.module,
            outcome.input_signal,
            outcome.scheduled_time_ms,
            outcome.error_model,
        )
        reference = by_coord.get(coord)
        if reference is None:
            raise OracleFailure(
                "adaptive-soundness",
                f"adaptive run sampled {coord} outside the exhaustive "
                f"grid of {name!r}",
            )
        if reference.to_jsonable() != outcome.to_jsonable():
            raise OracleFailure(
                "adaptive-soundness",
                f"adaptive outcome at {coord} differs from the "
                f"exhaustive outcome on {name!r}",
            )

    rows = adaptive.adaptive_rows()
    live_targets = {(o.module, o.input_signal) for o in exhaustive}
    retired = {(row.module, row.input_signal) for row in rows}
    if retired != live_targets:
        raise OracleFailure(
            "adaptive-soundness",
            f"retired targets {sorted(retired)} != campaign targets "
            f"{sorted(live_targets)} on {name!r}",
        )
    n_grid = len(cases) * base.runs_per_target()
    for row in rows:
        if row.n_grid != n_grid or not 1 <= row.n_trials <= row.n_grid:
            raise OracleFailure(
                "adaptive-soundness",
                f"retired target {(row.module, row.input_signal)} of "
                f"{name!r} reports {row.n_trials}/{row.n_grid} trials "
                f"against a grid of {n_grid}",
            )

    measured = estimate_matrix(
        adaptive, require_complete=campaign.targets is None
    )
    counts = pair_trial_counts(measured)
    outputs_of = {
        (module, input_signal): sorted(
            output
            for (m, i, output) in counts
            if (m, i) == (module, input_signal)
        )
        for (module, input_signal, _) in counts
    }
    for row in rows:
        achieved_half = 0.0
        for output in outputs_of.get((row.module, row.input_signal), ()):
            n_errors, n_injections = counts[
                (row.module, row.input_signal, output)
            ]
            lo, hi = wilson_interval(n_errors, n_injections)
            achieved_half = max(achieved_half, (hi - lo) / 2)
            expected = analytical.get_or_none(
                row.module, row.input_signal, output
            )
            if expected is None:
                raise OracleFailure(
                    "adaptive-soundness",
                    f"no analytical value for arc "
                    f"{(row.module, row.input_signal, output)} of {name!r}",
                )
            if not lo - EXACT_ATOL <= expected <= hi + EXACT_ATOL:
                raise OracleFailure(
                    "adaptive-soundness",
                    f"retired interval ({lo}, {hi}) of arc "
                    f"{(row.module, row.input_signal, output)} excludes "
                    f"the analytical permeability {expected} on {name!r}",
                )
        if abs(achieved_half - row.half_width) > EXACT_ATOL:
            raise OracleFailure(
                "adaptive-soundness",
                f"recorded stopping half-width {row.half_width} of "
                f"{(row.module, row.input_signal)} disagrees with the "
                f"achieved counts ({achieved_half}) on {name!r}",
            )
        if row.reason == "confidence" and not achieved_half < (
            ci_width + EXACT_ATOL
        ):
            raise OracleFailure(
                "adaptive-soundness",
                f"target {(row.module, row.input_signal)} retired for "
                f"confidence at half-width {achieved_half} >= requested "
                f"{ci_width} on {name!r}",
            )


# ---------------------------------------------------------------------------
# Metamorphic relations (analysis-level, generated systems)
# ---------------------------------------------------------------------------


def check_dead_sink_invariance(
    generated: GeneratedSystem, analytical: PermeabilityMatrix
) -> None:
    """Adding a dead sink never changes pre-existing exposures."""
    system = generated.system
    base_modules = all_module_exposures(PermeabilityGraph(analytical))
    base_signals = signal_exposures_for_matrix(analytical)

    victim = system.system_outputs[0]
    sink = ModuleSpec(
        name="DEAD_SINK",
        inputs=(victim,),
        outputs=("dead_sink_out",),
        description="metamorphic probe: consumes but feeds nothing",
    )
    mutated_system = SystemModel(
        name=system.name,
        modules=[*system.modules.values(), sink],
        system_inputs=system.system_inputs,
        system_outputs=system.system_outputs,
        signals=list(system.signals.values()),
        validate=False,  # the sink's output is genuinely dangling
    )
    mutated = PermeabilityMatrix(mutated_system)
    for (module, input_signal, output_signal), estimate in analytical.items():
        mutated.set(module, input_signal, output_signal, estimate.value)
    mutated.set("DEAD_SINK", victim, "dead_sink_out", 0.7)

    new_modules = all_module_exposures(PermeabilityGraph(mutated))
    for name, base in base_modules.items():
        after = new_modules[name]
        if (after.exposure, after.nonweighted_exposure) != (
            base.exposure,
            base.nonweighted_exposure,
        ):
            raise OracleFailure(
                "metamorphic-dead-sink",
                f"module exposure of {name!r} changed after adding a dead "
                f"sink: {base} -> {after}",
            )
    new_signals = signal_exposures_for_matrix(mutated)
    for name, base_value in base_signals.items():
        if abs(new_signals[name] - base_value) > EXACT_ATOL:
            raise OracleFailure(
                "metamorphic-dead-sink",
                f"signal exposure of {name!r} changed after adding a dead "
                f"sink: {base_value} -> {new_signals[name]}",
            )


def check_prerr_scaling(
    generated: GeneratedSystem,
    analytical: PermeabilityMatrix,
    factor: float = 0.5,
) -> None:
    """Scaling Pr(err) by ``factor`` rescales adjusted weights linearly."""
    spec = generated.spec
    scaled_spec = dataclasses.replace(
        spec,
        error_probabilities={
            name: value * factor
            for name, value in spec.error_probabilities.items()
        },
    )
    scaled_system = GeneratedSystem(scaled_spec).system
    trees = build_all_backtrack_trees(analytical)
    for tree in trees.values():
        for path in paths_of_backtrack_tree(tree):
            source = path.source
            base_p = generated.system.signal(source).error_probability
            scaled_p = scaled_system.signal(source).error_probability
            if base_p is None:
                if scaled_p is not None:
                    raise OracleFailure(
                        "metamorphic-prerr-scaling",
                        f"signal {source!r} gained a Pr(err) from scaling",
                    )
                continue
            if abs(scaled_p - factor * base_p) > EXACT_ATOL:
                raise OracleFailure(
                    "metamorphic-prerr-scaling",
                    f"Pr(err) of {source!r} scaled to {scaled_p}, expected "
                    f"{factor * base_p}",
                )
            base_weight = path.adjusted_weight(base_p)
            scaled_weight = path.adjusted_weight(scaled_p)
            if abs(scaled_weight - factor * base_weight) > EXACT_ATOL:
                raise OracleFailure(
                    "metamorphic-prerr-scaling",
                    f"adjusted weight of path {path.signals} scaled to "
                    f"{scaled_weight}, expected {factor * base_weight}",
                )


# ---------------------------------------------------------------------------
# Entry point for generated systems
# ---------------------------------------------------------------------------


def verify_generated(
    generated: GeneratedSystem,
    campaign: VerifyCampaign | None = None,
    backends: tuple[str, ...] | None = None,
) -> OracleReport:
    """Full oracle pass over one generated system.

    Differential campaign checks plus the analysis-level metamorphic
    relations.  Raises :class:`OracleFailure` on any violation.
    """
    if campaign is None:
        campaign = default_campaign(generated)
    analytical = generated.analytical_matrix(campaign.n_bits)
    report, result = differential_oracle(
        generated.system,
        generated.run_factory,
        {"gen": None},
        campaign,
        analytical=analytical,
        backends=backends,
    )
    measured = estimate_matrix(result, require_complete=campaign.targets is None)
    check_static_containment(generated, campaign, measured, analytical)
    check_incremental_parity(generated, campaign)
    check_store_invalidation(generated, campaign)
    check_adaptive_soundness(generated, campaign, analytical)
    check_dead_sink_invariance(generated, analytical)
    check_prerr_scaling(generated, analytical)
    return dataclasses.replace(
        report,
        checks=(
            *report.checks,
            "static-containment",
            "incremental-parity",
            "store-invalidation",
            "adaptive-soundness",
            "metamorphic-dead-sink",
            "metamorphic-prerr-scaling",
        ),
    )
