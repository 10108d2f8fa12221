"""Determinism guarantees of checkpointed campaign execution.

The checkpoint/restore layer promises that resumed runs are
*byte-for-byte identical* to full re-runs: every trace sample, final
signal value and telemetry float.  These tests assert that promise for

* raw runtime checkpoints on the toy chain, the closed-loop arrestment
  system and the two-node configuration (both of which contain feedback
  loops: CLOCK's ``ms_slot_nbr`` and CALC's ``i``);
* whole campaigns across the serial naive, serial checkpointed and
  grid-sharded parallel execution paths, including the full injected
  trace sets via the inspector hook;
* stateful-module snapshot/restore round trips (property-based).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrestment import build_arrestment_run
from repro.arrestment.dist_s import DistanceSensorModule
from repro.arrestment.pres_s import PressureSensorModule
from repro.arrestment.testcases import ArrestmentTestCase
from repro.arrestment.twonode import build_twonode_run
from repro.injection.campaign import CampaignConfig, InjectionCampaign, _CaseContext
from repro.injection.error_models import BitFlip, RandomBitFlip
from repro.injection.traps import InputInjectionTrap
from repro.model.errors import CampaignError, SimulationError
from repro.simulation.snapshot import Snapshotable, restore_state, snapshot_state

from tests.conftest import build_toy_model, build_toy_run, toy_factory


def assert_identical_results(a, b) -> None:
    """Byte-for-byte equality of two RunResults."""
    assert a.duration_ms == b.duration_ms
    assert a.traces.to_mapping() == b.traces.to_mapping()
    assert a.final_signals == b.final_signals
    assert a.telemetry == b.telemetry


# ---------------------------------------------------------------------------
# Runtime checkpoint/restore
# ---------------------------------------------------------------------------


class TestRuntimeCheckpoints:
    DURATION = 300
    TIMES = (0, 40, 133)

    @pytest.mark.parametrize(
        "build",
        [build_toy_run, build_arrestment_run, build_twonode_run],
        ids=["toy", "arrestment", "twonode"],
    )
    def test_resumed_runs_bit_identical(self, build):
        runner = build()
        full = runner.run(self.DURATION)
        golden = runner.run_with_checkpoints(self.DURATION, self.TIMES)
        assert_identical_results(golden.result, full)
        assert sorted(golden.checkpoints) == sorted(self.TIMES)
        for time_ms, checkpoint in golden.checkpoints.items():
            assert checkpoint.time_ms == time_ms
            resumed = runner.run_from(checkpoint, golden)
            assert_identical_results(resumed, full)

    def test_checkpoint_survives_multiple_restores(self):
        """The same checkpoint restores identically any number of times."""
        runner = build_arrestment_run()
        full = runner.run(self.DURATION)
        golden = runner.run_with_checkpoints(self.DURATION, [100])
        checkpoint = golden.checkpoints[100]
        for _ in range(3):
            assert_identical_results(runner.run_from(checkpoint, golden), full)

    def test_injected_suffix_matches_full_injected_run(self):
        """An IR resumed from a checkpoint equals the full IR, trap and all."""
        runner = build_arrestment_run()
        golden = runner.run_with_checkpoints(self.DURATION, [100])

        def trap():
            return InputInjectionTrap.for_system(
                runner.system, "V_REG", "SetValue", 100, BitFlip(14)
            )

        full_trap = trap()
        runner.add_read_interceptor(full_trap)
        full = runner.run(self.DURATION)
        runner.clear_hooks()

        resumed_trap = trap()
        runner.add_read_interceptor(resumed_trap)
        resumed = runner.run_from(golden.checkpoints[100], golden)
        runner.clear_hooks()

        assert_identical_results(resumed, full)
        assert resumed_trap.fired_at_ms == full_trap.fired_at_ms
        assert resumed_trap.injected_value == full_trap.injected_value

    def test_checkpoints_picklable(self):
        """Checkpoints ship across process boundaries for grid sharding."""
        import pickle

        runner = build_arrestment_run()
        full = runner.run(self.DURATION)
        golden = runner.run_with_checkpoints(self.DURATION, [100])
        revived = pickle.loads(pickle.dumps(golden.checkpoints[100]))
        assert_identical_results(runner.run_from(revived, golden), full)

    def test_pickled_checkpoint_digests_like_the_golden_run(self):
        """A checkpoint that crossed a process boundary still reconverges.

        Pickling breaks the sharing of objects inside the state, so the
        state digest must not depend on object identity: one frame
        stepped from the revived checkpoint digests equal to the Golden
        Run's frame.
        """
        import pickle

        runner = build_arrestment_run()
        golden = runner.run_with_checkpoints(1000, [500], frame_digests=True)
        runner.restore(pickle.loads(pickle.dumps(golden.checkpoints[500])))
        runner.step_ms()
        assert runner._state_digest() == golden.digests.at(500)

    def test_run_from_rejects_past_duration(self):
        """A checkpoint must lie inside the Golden Run it resumes on."""
        runner = build_toy_run()
        golden = runner.run_with_checkpoints(50, [30])
        shorter = runner.run_with_checkpoints(30, ())
        with pytest.raises(SimulationError):
            runner.run_from(golden.checkpoints[30], shorter)

    def test_checkpoint_times_validated(self):
        runner = build_toy_run()
        with pytest.raises(SimulationError):
            runner.run_with_checkpoints(50, [50])
        with pytest.raises(SimulationError):
            runner.run_with_checkpoints(50, [-1])

    def test_foreign_checkpoint_rejected(self):
        """A checkpoint from a different system does not restore."""
        toy = build_toy_run()
        golden = toy.run_with_checkpoints(50, [10])
        arrestment = build_arrestment_run()
        with pytest.raises(SimulationError):
            arrestment.restore(golden.checkpoints[10])

    def test_hooks_installed_property(self):
        runner = build_toy_run()
        assert not runner.hooks_installed
        runner.add_read_interceptor(
            InputInjectionTrap.for_system(
                runner.system, "FILT", "src", 5, BitFlip(3)
            )
        )
        assert runner.hooks_installed
        runner.clear_hooks()
        assert not runner.hooks_installed


# ---------------------------------------------------------------------------
# Campaign-level equivalence: naive / checkpointed / grid-sharded
# ---------------------------------------------------------------------------


def outcome_records(result):
    return [
        (o.case_id, o.module, o.input_signal, o.scheduled_time_ms,
         o.error_model, o.fired_at_ms, o.comparison.first_divergence_ms)
        for o in result
    ]


class TestCampaignEquivalence:
    def toy_campaign(self, reuse: bool) -> InjectionCampaign:
        return InjectionCampaign(
            build_toy_model(),
            toy_factory,
            {"a": None, "b": None},
            CampaignConfig(
                duration_ms=40,
                injection_times_ms=(5, 21),
                error_models=(BitFlip(15), BitFlip(2), RandomBitFlip()),
                seed=11,
                reuse_golden_prefix=reuse,
            ),
        )

    def arrestment_campaign(self, reuse: bool) -> InjectionCampaign:
        # Feedback-loop coverage: CLOCK reads its own slot counter and
        # CALC's checkpoint index i is both input and output.
        return InjectionCampaign(
            build_arrestment_run(ArrestmentTestCase(14000, 60)).system,
            build_arrestment_run,
            {"nominal": ArrestmentTestCase(14000, 60)},
            CampaignConfig(
                duration_ms=250,
                injection_times_ms=(40, 170),
                error_models=(BitFlip(14), BitFlip(0)),
                targets=(
                    ("CLOCK", "ms_slot_nbr"),
                    ("CALC", "i"),
                    ("V_REG", "SetValue"),
                ),
                seed=5,
                reuse_golden_prefix=reuse,
            ),
        )

    @pytest.mark.parametrize("make", ["toy_campaign", "arrestment_campaign"])
    def test_checkpointed_identical_to_naive(self, make):
        build = getattr(self, make)
        naive_traces, ckpt_traces = [], []
        naive = build(False).execute(
            inspector=lambda o, ir, g: naive_traces.append(ir.traces.to_mapping())
        )
        checkpointed = build(True).execute(
            inspector=lambda o, ir, g: ckpt_traces.append(ir.traces.to_mapping())
        )
        assert outcome_records(checkpointed) == outcome_records(naive)
        # Full injected trace sets, not just the GRC verdicts.
        assert ckpt_traces == naive_traces

    @pytest.mark.parametrize("make", ["toy_campaign", "arrestment_campaign"])
    def test_grid_sharded_identical_to_naive(self, make):
        build = getattr(self, make)
        naive = build(False).execute()
        sharded = build(True).execute_parallel(max_workers=2)
        assert outcome_records(sharded) == outcome_records(naive)

    def test_dirty_runtime_rejected(self):
        """The campaign refuses to arm a trap on a runtime with leaked hooks."""
        campaign = self.toy_campaign(True)
        runner = build_toy_run()
        runner.add_read_interceptor(
            InputInjectionTrap.for_system(
                runner.system, "FILT", "src", 5, BitFlip(3)
            )
        )
        _, golden = campaign._golden_for_case("a", None)
        context = _CaseContext(
            campaign._system, campaign.config, runner, golden,
            [("FILT", "src", 5, 0)],
        )
        (point,) = context.injection_points()
        with pytest.raises(CampaignError):
            context.run_reference(point)

    def test_skipped_ms_accounting(self):
        campaign = self.toy_campaign(True)
        # 2 cases x 2 targets x 3 models x (5 + 21) skipped ms.
        assert campaign.simulated_ms_skipped() == 2 * 2 * 3 * 26
        assert campaign.simulated_ms_total() == campaign.total_runs() * 40
        assert self.toy_campaign(False).simulated_ms_skipped() == 0


# ---------------------------------------------------------------------------
# Stateful-module snapshot round trips (property-based)
# ---------------------------------------------------------------------------


samples16 = st.integers(min_value=0, max_value=0xFFFF)


class TestSnapshotRoundTrip:
    @given(st.lists(samples16, min_size=1, max_size=40),
           st.lists(samples16, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_pres_s_restore_resumes_identically(self, warmup, tail):
        """snapshot → diverge → restore → replay gives identical outputs."""
        module = PressureSensorModule()
        module.reset()
        for t, sample in enumerate(warmup):
            module.activate({"ADC": sample}, t)
        state = snapshot_state(module)

        reference = [
            module.activate({"ADC": sample}, len(warmup) + t)
            for t, sample in enumerate(tail)
        ]
        # Diverge arbitrarily, then rewind.
        module.activate({"ADC": 0xDEAD & 0xFFFF}, 999)
        restore_state(module, state)
        replayed = [
            module.activate({"ADC": sample}, len(warmup) + t)
            for t, sample in enumerate(tail)
        ]
        assert replayed == reference

    @given(st.lists(st.tuples(samples16, samples16, samples16),
                    min_size=1, max_size=40),
           st.lists(st.tuples(samples16, samples16, samples16),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_dist_s_restore_resumes_identically(self, warmup, tail):
        module = DistanceSensorModule()
        module.reset()

        def feed(rows, offset):
            return [
                module.activate(
                    {"PACNT": p, "TIC1": c, "TCNT": t}, offset + index
                )
                for index, (p, c, t) in enumerate(rows)
            ]

        feed(warmup, 0)
        state = snapshot_state(module)
        reference = feed(tail, len(warmup))
        feed([(1, 2, 3)] * 5, 900)  # diverge
        restore_state(module, state)
        assert feed(tail, len(warmup)) == reference

    def test_arrestment_modules_are_snapshotable(self):
        """Every module of both configurations implements the protocol."""
        from repro.arrestment.system import build_arrestment_modules
        from repro.arrestment.twonode import build_twonode_modules

        for module in build_arrestment_modules() + build_twonode_modules():
            assert isinstance(module, Snapshotable), module.name
            state = module.state_dict()
            module.load_state_dict(state)

    def test_deepcopy_fallback_round_trip(self):
        """Objects without the protocol go through the deepcopy fallback."""

        class Plain:
            def __init__(self) -> None:
                self.history = [1, 2]
                self.value = 7

        obj = Plain()
        state = snapshot_state(obj)
        obj.history.append(3)
        obj.value = 0
        restore_state(obj, state)
        assert obj.history == [1, 2] and obj.value == 7
        # The snapshot must not alias restored containers.
        obj.history.append(9)
        restore_state(obj, state)
        assert obj.history == [1, 2]
