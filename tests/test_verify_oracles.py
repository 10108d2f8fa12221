"""Tests for the differential oracle and its metamorphic relations."""

from __future__ import annotations

import pytest

from repro.core.permeability import PermeabilityEstimate, PermeabilityMatrix
from repro.injection.estimator import pair_trial_counts
from repro.injection.outcomes import PairCounts
from repro.verify import (
    GeneratedSystem,
    OracleFailure,
    VerifyCampaign,
    default_campaign,
    generate_system,
    verify_generated,
)
from repro.store import UnitKeyBuilder
from repro.verify.oracles import (
    check_dead_sink_invariance,
    check_prerr_scaling,
    check_store_invalidation,
)

from tests.verify_cases import (
    prunable_triple,
    small_passing_triple,
    unfired_trap_triple,
)

ALL_CHECKS = (
    "strategy-identity",
    "obs-vs-estimator",
    "exact-agreement",
    "ci-sanity",
    "ci-containment",
    "static-containment",
    "incremental-parity",
    "store-invalidation",
    "adaptive-soundness",
    "metamorphic-dead-sink",
    "metamorphic-prerr-scaling",
)


def _feedback_seed() -> int:
    for seed in range(10):
        if generate_system(seed).has_feedback:
            return seed
    raise AssertionError("no feedback topology in the first 10 seeds")


class TestOraclePasses:
    def test_small_triple_passes_every_check(self):
        spec, campaign = small_passing_triple()
        report = verify_generated(GeneratedSystem(spec), campaign)
        assert report.checks == ALL_CHECKS
        assert not report.has_feedback
        assert report.n_runs > 0

    def test_feedback_topology_passes(self):
        generated = generate_system(_feedback_seed())
        report = verify_generated(generated)
        assert report.has_feedback
        assert report.checks == ALL_CHECKS

    def test_pruned_rows_pass_every_check(self):
        from repro.flow import analyse_run

        spec, campaign = prunable_triple()
        generated = GeneratedSystem(spec)
        config = campaign.to_config(reuse=False, fast_forward=False)
        analysis = analyse_run(
            generated.run_factory(None), error_models=config.error_models
        )
        assert analysis.prunable_targets() == (("M1", "in1"),)
        assert verify_generated(generated, campaign).checks == ALL_CHECKS

    def test_report_render_mentions_strategies(self):
        spec, campaign = small_passing_triple()
        report = verify_generated(GeneratedSystem(spec), campaign)
        assert "4 strategies" in report.render()
        assert "acyclic" in report.render()


class TestOracleCatchesBugs:
    def test_unfired_trap_fails_exact_agreement(self):
        spec, campaign = unfired_trap_triple()
        with pytest.raises(OracleFailure) as excinfo:
            verify_generated(GeneratedSystem(spec), campaign)
        assert excinfo.value.check == "exact-agreement"
        assert "[exact-agreement]" in str(excinfo.value)

    def test_reducer_ignoring_pruned_rows_is_caught(self, monkeypatch):
        from repro.obs.dash import CampaignStateReducer
        from repro.obs.events import ArcsPruned

        original = CampaignStateReducer.feed_parsed

        def skip_pruned(self, parsed):
            if not isinstance(parsed.event, ArcsPruned):
                original(self, parsed)

        monkeypatch.setattr(CampaignStateReducer, "feed_parsed", skip_pruned)
        spec, campaign = prunable_triple()
        with pytest.raises(OracleFailure) as excinfo:
            verify_generated(GeneratedSystem(spec), campaign)
        assert excinfo.value.check == "obs-vs-estimator"

    def test_uninspected_batched_divergence_is_caught(self, monkeypatch):
        """A kernel GRC bug on lanes without traces fails strategy-identity
        although every inspected strategy agrees."""
        batched = pytest.importorskip("repro.simulation.batched")
        run_batch = batched._run_batch

        def late_divergences(context, plan, lanes, duration_ms):
            results = run_batch(context, plan, lanes, duration_ms)
            if not context.keep_traces:
                for run, _ in results.values():
                    run.first_divergence_ms = {
                        signal: None for signal in run.first_divergence_ms
                    }
            return results

        monkeypatch.setattr(batched, "_run_batch", late_divergences)
        spec, campaign = small_passing_triple()
        with pytest.raises(OracleFailure) as excinfo:
            verify_generated(GeneratedSystem(spec), campaign)
        assert excinfo.value.check == "strategy-identity"
        assert "without an inspector" in str(excinfo.value)

    def test_biased_point_estimate_is_caught(self, monkeypatch):
        """An off-by-one in n_err/n_inj escapes the Wilson CI at n~16 but
        not the exact-agreement check."""
        original = PermeabilityEstimate.from_counts.__func__

        def biased(cls, n_errors, n_injections):
            honest = original(cls, n_errors, n_injections)
            return PermeabilityEstimate(
                value=min(1.0, (n_errors + 1) / n_injections),
                n_injections=honest.n_injections,
                n_errors=honest.n_errors,
            )

        monkeypatch.setattr(
            PermeabilityEstimate, "from_counts", classmethod(biased)
        )
        spec, campaign = small_passing_triple()
        with pytest.raises(OracleFailure) as excinfo:
            verify_generated(GeneratedSystem(spec), campaign)
        assert excinfo.value.check == "exact-agreement"

    def test_malformed_wilson_interval_is_caught(self, monkeypatch):
        def broken(self, z=1.96):
            return (min(1.0, self.value + 0.01), 1.0)

        monkeypatch.setattr(PermeabilityEstimate, "wilson_interval", broken)
        spec, campaign = small_passing_triple()
        with pytest.raises(OracleFailure) as excinfo:
            verify_generated(GeneratedSystem(spec), campaign)
        assert excinfo.value.check == "ci-sanity"


class TestStoreInvalidation:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_keys_follow_the_config(self, seed):
        generated = generate_system(seed)
        check_store_invalidation(generated, default_campaign(generated))

    @pytest.mark.parametrize("field", ["duration_ms", "injection_times_ms"])
    def test_key_blind_to_a_relevant_field_is_caught(self, monkeypatch, field):
        """A warm store would answer a campaign of another duration."""
        init = UnitKeyBuilder.__init__

        def blind(self, system, run_factory, config):
            init(self, system, run_factory, config)
            del self._base["config"][field]

        monkeypatch.setattr(UnitKeyBuilder, "__init__", blind)
        generated = generate_system(0)
        with pytest.raises(OracleFailure) as excinfo:
            check_store_invalidation(generated, default_campaign(generated))
        assert excinfo.value.check == "store-invalidation"
        assert f"changing {field} keeps" in str(excinfo.value)

    def test_key_on_an_invariant_field_is_caught(self, monkeypatch):
        """Keying the backend would split one result across two keys."""
        init = UnitKeyBuilder.__init__

        def keyed(self, system, run_factory, config):
            init(self, system, run_factory, config)
            self._base["config"]["backend"] = config.backend

        monkeypatch.setattr(UnitKeyBuilder, "__init__", keyed)
        generated = generate_system(0)
        with pytest.raises(OracleFailure, match="changing backend changes"):
            check_store_invalidation(generated, default_campaign(generated))


class TestMetamorphicRelations:
    def test_relations_hold_on_feedback_topology(self):
        generated = generate_system(_feedback_seed())
        campaign = default_campaign(generated)
        analytical = generated.analytical_matrix(campaign.n_bits)
        check_dead_sink_invariance(generated, analytical)
        check_prerr_scaling(generated, analytical)
        check_prerr_scaling(generated, analytical, factor=0.25)


class TestVerifyCampaign:
    def test_round_trips_without_targets(self):
        campaign = VerifyCampaign(
            duration_ms=20, injection_times_ms=(3, 9), n_bits=4, seed=5
        )
        assert VerifyCampaign.from_jsonable(campaign.to_jsonable()) == campaign

    def test_round_trips_with_targets(self):
        campaign = VerifyCampaign(
            duration_ms=20,
            injection_times_ms=(3,),
            n_bits=2,
            seed=5,
            targets=(("M0", "in0"), ("M1", "s0_0")),
        )
        assert VerifyCampaign.from_jsonable(campaign.to_jsonable()) == campaign

    def test_default_campaign_leaves_post_injection_headroom(self):
        generated = generate_system(0)
        campaign = default_campaign(generated)
        slack = campaign.duration_ms - max(campaign.injection_times_ms)
        assert slack >= 3 * generated.spec.n_slots
        assert 1 <= campaign.n_bits <= 8


class TestCountPlumbing:
    def test_pair_trial_counts_rejects_analytical_matrix(self):
        spec, _ = small_passing_triple()
        matrix = PermeabilityMatrix(GeneratedSystem(spec).system)
        matrix.set("M0", "in0", "out0", 0.5)
        with pytest.raises(ValueError, match="trial counts"):
            pair_trial_counts(matrix)

    def test_pair_trial_counts_exposes_raw_counts(self):
        spec, _ = small_passing_triple()
        matrix = PermeabilityMatrix(GeneratedSystem(spec).system)
        matrix.set_counts("M0", "in0", "out0", n_errors=3, n_injections=12)
        assert pair_trial_counts(matrix) == {("M0", "in0", "out0"): (3, 12)}

    def test_arc_counts_wilson_matches_estimate(self):
        arc = PairCounts(
            module="M0",
            input_signal="in0",
            output_signal="out0",
            n_injections=16,
            n_errors=8,
        )
        expected = PermeabilityEstimate.from_counts(8, 16).wilson_interval()
        assert arc.wilson_interval() == expected

    def test_arc_counts_wilson_uninformative_without_injections(self):
        arc = PairCounts(module="M0", input_signal="in0", output_signal="out0")
        assert arc.wilson_interval() == (0.0, 1.0)
