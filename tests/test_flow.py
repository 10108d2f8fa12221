"""Tests for the static bit-flow permeability analysis (repro.flow).

Four layers:

* the interval domain and matrix container (validation, serialisation);
* transfer-mask derivation and the per-arc analysis on hand-built
  systems with stub XOR modules (point bounds, ⊤ fallback, pruning,
  cross-module-cycle widening, R013/R014 findings, SARIF);
* property tests against generated executable systems — static bounds
  are exact-tight on pure-XOR behaviours, contain every measured
  permeability, and ``static_prune`` campaigns reproduce the unpruned
  ``estimate_matrix()`` byte-for-byte on both simulation backends;
* observability integration — the ``ArcsPruned`` event, ``prune.*``
  counters, the summarize line and the dashboard reducer's parity.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings

from repro.flow import (
    BoundsInterval,
    StaticBoundsMatrix,
    analyse_run,
    analyse_system,
    derive_module_flows,
    flow_report,
    flow_rules,
)
from repro.flow.analysis import _on_cross_module_cycle
from repro.flow.bounds import TOP, UnknownArcError
from repro.injection.campaign import InjectionCampaign
from repro.injection.error_models import BitFlip, RandomReplacement, bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.model.builder import SystemBuilder
from repro.report.sarif import validate_sarif
from repro.verify.generators import generate_system
from repro.verify.oracles import default_campaign

from tests.strategies import generated_executable_systems


class StubXorModule:
    """Minimal vectorizability contract: a fixed ``vector_plan``."""

    def __init__(self, plan):
        self._plan = tuple(plan)

    def vector_plan(self):
        return self._plan


def build_chain_system(width: int = 8):
    """ext -> M0 -> s0 -> M1 -> out, all signals ``width`` bits."""
    builder = SystemBuilder("flow-chain")
    for name in ("ext", "s0", "out"):
        builder.add_signal(name, width=width)
    builder.add_module("M0", inputs=["ext"], outputs=["s0"])
    builder.add_module("M1", inputs=["s0"], outputs=["out"])
    builder.mark_system_input("ext")
    builder.mark_system_output("out")
    return builder.build()


# ---------------------------------------------------------------------------
# Interval domain and matrix container
# ---------------------------------------------------------------------------


class TestBoundsInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundsInterval(-0.1, 0.5)
        with pytest.raises(ValueError):
            BoundsInterval(0.6, 0.5)
        with pytest.raises(ValueError):
            BoundsInterval(0.5, 1.5)

    def test_classification(self):
        assert TOP.is_top and not TOP.exact and not TOP.proves_zero
        point = BoundsInterval(0.25, 0.25)
        assert point.exact and not point.is_top
        zero = BoundsInterval(0.0, 0.0)
        assert zero.proves_zero and zero.exact

    def test_contains(self):
        interval = BoundsInterval(0.25, 0.75)
        assert interval.contains(0.25)
        assert interval.contains(0.75)
        assert not interval.contains(0.8)
        assert interval.contains(0.75 + 1e-12)

    def test_str(self):
        assert str(BoundsInterval(0.75, 0.75)) == "=0.7500"
        assert str(TOP) == "[0.0000, 1.0000]"


class TestStaticBoundsMatrix:
    def test_rejects_unknown_arcs(self):
        system = build_chain_system()
        matrix = StaticBoundsMatrix(system)
        with pytest.raises(UnknownArcError):
            matrix.set("M0", "ext", "out", TOP)
        with pytest.raises(UnknownArcError):
            matrix.get("M0", "ext", "s0")  # valid pair, not yet assigned

    def test_completeness_and_round_trip(self):
        system = build_chain_system()
        matrix = StaticBoundsMatrix(system)
        matrix.set("M0", "ext", "s0", BoundsInterval(0.5, 0.5))
        assert not matrix.is_complete()
        assert matrix.missing_pairs() == (("M1", "s0", "out"),)
        matrix.set("M1", "s0", "out", TOP)
        assert matrix.is_complete()
        rebuilt = StaticBoundsMatrix.from_jsonable(matrix.to_jsonable(), system)
        assert list(rebuilt.items()) == list(matrix.items())

    def test_violations_against_measured(self):
        system = build_chain_system()
        matrix = StaticBoundsMatrix(system)
        matrix.set("M0", "ext", "s0", BoundsInterval(0.0, 0.25))
        from repro.core.permeability import PermeabilityMatrix

        measured = PermeabilityMatrix(system)
        measured.set("M0", "ext", "s0", 0.5)
        assert not matrix.contains_matrix(measured)
        assert "M0" in matrix.violations(measured)[0]
        measured = PermeabilityMatrix(system)
        measured.set("M0", "ext", "s0", 0.25)
        assert matrix.contains_matrix(measured)


# ---------------------------------------------------------------------------
# Transfer-mask derivation and the per-arc analysis
# ---------------------------------------------------------------------------


class TestDeriveModuleFlows:
    def test_stub_modules_are_exact_and_missing_are_top(self):
        system = build_chain_system()
        flows = derive_module_flows(
            system, {"M0": StubXorModule((("s0", (("ext", 0x0F),)),))}
        )
        assert flows["M0"].exact
        assert flows["M0"].mask("ext", "s0") == 0x0F
        assert not flows["M1"].exact
        with pytest.raises(ValueError):
            flows["M1"].mask("s0", "out")

    def test_no_instances_means_all_top(self):
        system = build_chain_system()
        flows = derive_module_flows(system)
        assert all(not flow.exact for flow in flows.values())


class TestFlowAnalysis:
    def test_point_bounds_from_exact_masks(self):
        system = build_chain_system(width=8)
        analysis = analyse_system(
            system,
            modules={
                "M0": StubXorModule((("s0", (("ext", 0x0F),)),)),
                "M1": StubXorModule((("out", (("s0", 0xFF),)),)),
            },
        )
        assert analysis.bounds.get("M0", "ext", "s0") == BoundsInterval(0.5, 0.5)
        assert analysis.bounds.get("M1", "s0", "out") == BoundsInterval(1.0, 1.0)
        assert analysis.dead_input_bits("M0", "ext") == 0xF0
        assert analysis.live_input_bits("M1", "s0") == 0xFF

    def test_zero_mask_row_is_prunable_and_r013(self):
        system = build_chain_system(width=8)
        analysis = analyse_system(
            system,
            modules={
                "M0": StubXorModule((("s0", (("ext", 0),)),)),
                "M1": StubXorModule((("out", (("s0", 0xFF),)),)),
            },
        )
        assert analysis.bounds.get("M0", "ext", "s0").proves_zero
        assert analysis.prunable_targets() == (("M0", "ext"),)
        report = flow_report(analysis)
        codes = {d.code for d in report.findings}
        assert "R013" in codes
        # The fully-dead row is R013's finding, not R014's.
        assert not any(
            d.location.module == "M0"
            for d in report.findings
            if d.code == "R014"
        )

    def test_partially_dead_bits_are_r014(self):
        system = build_chain_system(width=8)
        analysis = analyse_system(
            system,
            modules={
                "M0": StubXorModule((("s0", (("ext", 0x0F),)),)),
                "M1": StubXorModule((("out", (("s0", 0xFF),)),)),
            },
        )
        report = flow_report(analysis)
        r014 = [d for d in report.findings if d.code == "R014"]
        assert len(r014) == 1
        assert "4-7" in r014[0].message  # the dead high nibble

    def test_top_modules_are_never_prunable(self):
        analysis = analyse_system(build_chain_system())
        assert analysis.bounds.get("M0", "ext", "s0").is_top
        assert analysis.prunable_targets() == ()
        assert not flow_report(analysis).findings

    def test_restricted_error_band_tightens_bounds(self):
        system = build_chain_system(width=8)
        modules = {
            "M0": StubXorModule((("s0", (("ext", 0x0F),)),)),
            "M1": StubXorModule((("out", (("s0", 0xFF),)),)),
        }
        only_dead_bit = analyse_system(
            system, modules=modules, error_models=(BitFlip(bit=7),)
        )
        assert only_dead_bit.prunable_targets() == (("M0", "ext"),)
        opaque_model = analyse_system(
            system, modules=modules, error_models=(RandomReplacement(),)
        )
        assert opaque_model.bounds.get("M0", "ext", "s0") == TOP
        assert opaque_model.prunable_targets() == ()

    def test_cross_module_cycle_detection(self):
        builder = SystemBuilder("wide-cycle")
        builder.add_module("M1", inputs=["ext", "s2"], outputs=["s1"])
        builder.add_module("M2", inputs=["s1"], outputs=["s2", "out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        system = builder.build()
        assert _on_cross_module_cycle(system, "M1")
        assert _on_cross_module_cycle(system, "M2")
        chain = build_chain_system()
        assert not _on_cross_module_cycle(chain, "M0")
        assert not _on_cross_module_cycle(chain, "M1")

    def test_cross_module_cycle_widens_to_upper_bound(self):
        builder = SystemBuilder("wide-cycle")
        for name in ("ext", "s1", "s2", "out"):
            builder.add_signal(name, width=8)
        builder.add_module("M1", inputs=["ext", "s2"], outputs=["s1"])
        builder.add_module("M2", inputs=["s1"], outputs=["s2", "out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        system = builder.build()
        analysis = analyse_system(
            system,
            modules={
                "M1": StubXorModule(
                    (("s1", (("ext", 0xFF), ("s2", 0xFF))),)
                ),
                "M2": StubXorModule(
                    (("s2", (("s1", 0xFF),)), ("out", (("s1", 0x0F),)))
                ),
            },
        )
        # The loop makes within-module closures upper bounds only: the
        # low nibble surely escapes via the direct arc, the rest may
        # return through the cycle, so the interval is widened, sound
        # (lo <= hi) and never a false zero.
        arc = analysis.bounds.get("M2", "s1", "out")
        assert arc.lo == pytest.approx(0.5)
        assert arc.hi == 1.0
        assert analysis.prunable_targets() == ()

    def test_exposure_bounds_on_chain(self):
        system = build_chain_system(width=8)
        analysis = analyse_system(
            system,
            modules={
                "M0": StubXorModule((("s0", (("ext", 0x0F),)),)),
                "M1": StubXorModule((("out", (("s0", 0xFF),)),)),
            },
        )
        exposure = analysis.exposure_bounds()
        interval = exposure[("ext", "out")]
        # Only the low nibble of ext can ever reach out.
        assert interval.hi == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


class TestFlowReport:
    def _analysis(self):
        return analyse_run(generate_system(7).build_run())

    def test_render_text_sections(self):
        report = flow_report(self._analysis())
        text = report.render_text()
        assert "static bit-flow analysis" in text
        assert "transfer masks" in text
        assert "exposure (system input -> system output)" in text

    def test_json_round_trip(self):
        report = flow_report(self._analysis())
        data = json.loads(report.to_json())
        assert data["schema_version"] == 1
        assert data["system"] == report.system_name
        assert data["bounds"]["entries"]
        assert {entry["input"] for entry in data["exposure"]}

    def test_sarif_is_valid_and_flow_branded(self):
        report = flow_report(self._analysis())
        log = report.to_sarif()
        validate_sarif(log)
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-flow"
        assert {rule["id"] for rule in driver["rules"]} == {"R013", "R014"}
        assert "STATIC_ANALYSIS" in driver["rules"][0]["helpUri"]

    def test_flow_rules_registry(self):
        assert [rule.code for rule in flow_rules()] == ["R013", "R014"]


# ---------------------------------------------------------------------------
# Properties against generated executable systems
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(generated_executable_systems())
def test_bounds_exact_on_pure_xor_systems(gen):
    campaign = default_campaign(gen)
    analysis = analyse_run(
        gen.build_run(),
        error_models=tuple(bit_flip_models(campaign.n_bits)),
    )
    bounds = analysis.bounds
    assert bounds.is_complete()
    analytical = gen.analytical_matrix(campaign.n_bits)
    for (module, i, o), interval in bounds.items():
        assert interval.exact
        assert interval.lo == pytest.approx(
            analytical.get(module, i, o), abs=1e-12
        )


@settings(max_examples=6, deadline=None)
@given(generated_executable_systems())
def test_measured_within_bounds_and_prune_parity(gen):
    campaign = default_campaign(gen)
    # A narrow error band makes whole rows provably dead more often,
    # so the pruning path is actually exercised.
    models = (BitFlip(bit=0),)
    analysis = analyse_run(gen.build_run(), error_models=models)
    for backend in ("reference", "batched"):
        config = dataclasses.replace(
            campaign.to_config(reuse=True, fast_forward=True, backend=backend),
            error_models=models,
        )
        result = InjectionCampaign(
            gen.system, gen.run_factory, {"gen": None}, config
        ).execute()
        measured = estimate_matrix(result)
        assert analysis.bounds.contains_matrix(measured), (
            analysis.bounds.violations(measured)
        )
        pruned_result = InjectionCampaign(
            gen.system,
            gen.run_factory,
            {"gen": None},
            dataclasses.replace(config, static_prune=True),
        ).execute()
        assert set(pruned_result.pruned_targets()) == set(
            analysis.prunable_targets()
        )
        assert (
            estimate_matrix(pruned_result).to_jsonable()
            == measured.to_jsonable()
        )


def test_pruned_campaign_observability_round_trip(tmp_path):
    """ArcsPruned flows through events, metrics, summary and reducer."""
    from repro.obs import CampaignObserver
    from repro.obs.dash.reducer import CampaignStateReducer, validate_snapshot
    from repro.obs.events import ArcsPruned, read_events, validate_events
    from repro.obs.summary import render_summary, summarize_events

    gen = generate_system(0)
    campaign = default_campaign(gen)
    config = dataclasses.replace(
        campaign.to_config(reuse=True, fast_forward=True),
        error_models=(BitFlip(bit=0),),
        static_prune=True,
    )
    events_path = tmp_path / "events.jsonl"
    observer = CampaignObserver.to_files(
        events_path=str(events_path), with_metrics=True, system=gen.system
    )
    result = InjectionCampaign(
        gen.system, gen.run_factory, {"gen": None}, config, observer=observer
    ).execute()
    observer.close()
    assert result.n_pruned_runs() > 0

    assert validate_events(events_path) > 0
    pruned_events = [
        parsed.event
        for parsed in read_events(events_path)
        if isinstance(parsed.event, ArcsPruned)
    ]
    assert len(pruned_events) == 1
    event = pruned_events[0]
    assert set(event.targets) == set(result.pruned_targets())
    assert (
        len(event.targets) * event.n_injections_per_target
        == result.n_pruned_runs()
    )

    metrics = observer.metrics
    assert metrics.counter("prune.targets").value == len(event.targets)
    assert (
        metrics.counter("prune.runs_skipped").value == result.n_pruned_runs()
    )

    summary = summarize_events(read_events(events_path))
    assert summary.counts["prune.targets"] == len(event.targets)
    assert summary.counts["prune.runs_skipped"] == result.n_pruned_runs()
    assert "static pruning:" in render_summary(summary)

    reducer = CampaignStateReducer.from_events_file(events_path)
    snapshot = reducer.snapshot()
    validate_snapshot(snapshot)
    assert snapshot["counters"]["pruned"] == result.n_pruned_runs()
    assert snapshot["counters"]["n_runs"] == len(result)
    assert snapshot["progress"]["done"] == snapshot["progress"]["total"]
    # The reducer's live matrix folds pruned rows in exactly as the
    # post-hoc estimator does.
    assert reducer.matrix_jsonable() == estimate_matrix(result).to_jsonable()


def test_prune_actually_skips_runs_and_counts_stay_complete():
    gen = generate_system(0)  # seed 0 prunes 3 targets under bit-0 flips
    campaign = default_campaign(gen)
    config = dataclasses.replace(
        campaign.to_config(reuse=True, fast_forward=True),
        error_models=(BitFlip(bit=0),),
        static_prune=True,
    )
    run = InjectionCampaign(gen.system, gen.run_factory, {"gen": None}, config)
    result = run.execute()
    assert result.n_pruned_runs() > 0
    assert len(result) + result.n_pruned_runs() == run.total_runs()
    counts = result.pair_counts()
    for module, signal in result.pruned_targets():
        for output in gen.system.module(module).outputs:
            entry = counts[(module, signal, output)]
            assert entry.n_errors == 0
            assert entry.n_injections == config.runs_per_target()
