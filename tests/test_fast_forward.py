"""Reconvergence fast-forward: equivalence proofs and runtime behaviour.

The headline promise of fast-forward is *byte-identity*: a campaign run
with :attr:`CampaignConfig.fast_forward` enabled must produce exactly
the results of one that simulates every IR to the end — full trace
sets, outcome classification, divergence times, final signals and
telemetry.  The property-based tests below assert that promise across
random injection times, bit positions and targets on both the
single-node arrestment system and the two-node configuration; the
remaining tests pin the runtime mechanics (splice correctness,
checkpoint resume from the Golden Run's prefix, the armed-trap guard,
lifetime fields).
"""

from __future__ import annotations

from array import array
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrestment import build_arrestment_model, build_arrestment_run
from repro.arrestment.testcases import ArrestmentTestCase
from repro.arrestment.twonode import build_twonode_model, build_twonode_run
from repro.injection.campaign import CampaignConfig, InjectionCampaign, _CaseContext
from repro.injection.error_models import BitFlip
from repro.injection.golden_run import GoldenRun
from repro.injection.latency import lifetime_statistics, render_lifetime_table
from repro.injection.traps import InputInjectionTrap
from repro.model.errors import SimulationError
from repro.obs import CampaignObserver
from repro.obs.events import read_events
from repro.obs.summary import render_summary, summarize_events
from repro.simulation.runtime import RunCheckpoint, RunResult, StateMemo
from repro.simulation.traces import SignalTrace, TraceSet

from tests.conftest import build_toy_model, build_toy_run, toy_factory

DURATION = 120


def _targets(model):
    return tuple(
        (module, signal)
        for module in model.module_names()
        for signal in model.module(module).inputs
    )


ARRESTMENT_TARGETS = _targets(build_arrestment_model())
TWONODE_TARGETS = _targets(build_twonode_model())


def _single_run_campaign(model, factory, target, time_ms, bit, fast_forward):
    """One-IR campaign capturing the injection run's full traces."""
    config = CampaignConfig(
        duration_ms=DURATION,
        injection_times_ms=(time_ms,),
        error_models=(BitFlip(bit),),
        targets=(target,),
        seed=42,
        fast_forward=fast_forward,
        lint=False,
    )
    campaign = InjectionCampaign(model, factory, {"tc": None}, config)
    captured: list = []
    result = campaign.execute(
        inspector=lambda outcome, injected, golden: captured.append(injected)
    )
    (outcome,) = list(result)
    (injected,) = captured
    return outcome, injected


def _assert_equivalent(ff, naive):
    """Fast-forwarded (outcome, run) matches the fully-simulated pair."""
    ff_outcome, ff_run = ff
    naive_outcome, naive_run = naive
    assert ff_run.traces.to_mapping() == naive_run.traces.to_mapping()
    assert ff_run.final_signals == naive_run.final_signals
    assert ff_run.telemetry == naive_run.telemetry
    assert ff_outcome.fired_at_ms == naive_outcome.fired_at_ms
    assert (
        ff_outcome.comparison.first_divergence_ms
        == naive_outcome.comparison.first_divergence_ms
    )
    assert (
        ff_outcome.comparison.diverged_signals()
        == naive_outcome.comparison.diverged_signals()
    )
    # Only the fast-forward path measures lifetimes ...
    assert naive_outcome.reconverged_at_ms is None
    assert naive_outcome.frames_fast_forwarded == 0
    # ... and when it does, the fields must be mutually consistent.
    if ff_outcome.reconverged:
        assert ff_outcome.reconverged_at_ms is not None
        assert 0 <= ff_outcome.reconverged_at_ms < DURATION
        assert (
            ff_outcome.frames_fast_forwarded
            == DURATION - 1 - ff_outcome.reconverged_at_ms
        )
        if ff_outcome.fired:
            assert ff_outcome.reconverged_at_ms >= ff_outcome.fired_at_ms
            assert ff_outcome.error_lifetime_ms == (
                ff_outcome.reconverged_at_ms - ff_outcome.fired_at_ms
            )
        # A spliced run is sample-identical to its Golden Run from the
        # reconvergence instant on — so it cannot carry a divergence
        # after that instant.
        for time in ff_outcome.comparison.first_divergence_ms.values():
            assert time is None or time <= ff_outcome.reconverged_at_ms


class TestEquivalenceProperties:
    """FF-enabled campaigns are byte-identical to fully-simulated ones."""

    @settings(max_examples=12, deadline=None)
    @given(
        target_index=st.integers(0, len(ARRESTMENT_TARGETS) - 1),
        time_ms=st.integers(0, DURATION - 1),
        bit=st.integers(0, 15),
    )
    def test_arrestment(self, target_index, time_ms, bit):
        target = ARRESTMENT_TARGETS[target_index]
        ff = _single_run_campaign(
            build_arrestment_model(), build_arrestment_run, target,
            time_ms, bit, fast_forward=True,
        )
        naive = _single_run_campaign(
            build_arrestment_model(), build_arrestment_run, target,
            time_ms, bit, fast_forward=False,
        )
        _assert_equivalent(ff, naive)

    @settings(max_examples=12, deadline=None)
    @given(
        target_index=st.integers(0, len(TWONODE_TARGETS) - 1),
        time_ms=st.integers(0, DURATION - 1),
        bit=st.integers(0, 15),
    )
    def test_twonode(self, target_index, time_ms, bit):
        target = TWONODE_TARGETS[target_index]
        ff = _single_run_campaign(
            build_twonode_model(), build_twonode_run, target,
            time_ms, bit, fast_forward=True,
        )
        naive = _single_run_campaign(
            build_twonode_model(), build_twonode_run, target,
            time_ms, bit, fast_forward=False,
        )
        _assert_equivalent(ff, naive)


# ---------------------------------------------------------------------------
# Toy-chain campaigns: whole-campaign parity and measured lifetimes
# ---------------------------------------------------------------------------


def toy_campaign(**overrides) -> InjectionCampaign:
    config = dict(
        duration_ms=40,
        injection_times_ms=(4, 11, 23),
        error_models=(BitFlip(15), BitFlip(3)),
        seed=7,
    )
    config.update(overrides)
    return InjectionCampaign(
        build_toy_model(), toy_factory, {"c0": None}, CampaignConfig(**config)
    )


def outcome_records(result):
    return [
        (o.case_id, o.module, o.input_signal, o.scheduled_time_ms,
         o.error_model, o.fired_at_ms, o.comparison.first_divergence_ms)
        for o in result
    ]


class TestToyCampaigns:
    def test_campaign_parity_and_reconvergence(self):
        ff = toy_campaign().execute()
        naive = toy_campaign(fast_forward=False).execute()
        assert outcome_records(ff) == outcome_records(naive)
        # The toy chain is stateless: every injected error dies within
        # a frame or two, so every fired IR must reconverge.
        assert ff.n_reconverged() == ff.n_fired()
        assert ff.reconverged_fraction() > 0
        assert ff.frames_fast_forwarded_total() > 0
        assert naive.n_reconverged() == 0
        assert naive.frames_fast_forwarded_total() == 0

    def test_masked_error_has_zero_lifetime(self):
        """A FILT low-byte flip never leaves the corrupted read."""
        result = toy_campaign(
            targets=(("FILT", "src"),), error_models=(BitFlip(3),)
        ).execute()
        for outcome in result:
            assert outcome.fired
            assert outcome.error_lifetime_ms == 0
            assert outcome.reconverged_at_ms == outcome.fired_at_ms

    def test_lifetime_statistics(self):
        result = toy_campaign().execute()
        stats = lifetime_statistics(result)
        assert set(stats) == {("FILT", "src"), ("AMP", "filt")}
        filt = stats[("FILT", "src")]
        assert filt.n_samples == result.n_fired() - stats[("AMP", "filt")].n_samples
        assert filt.n_censored == 0
        assert filt.observed_fraction == 1.0
        assert filt.min_ms >= 0
        assert filt.max_ms >= filt.min_ms
        table = render_lifetime_table(stats)
        assert "FILT: src" in table
        assert "reconvergence" in table

    def test_without_fast_forward_all_censored(self):
        result = toy_campaign(fast_forward=False).execute()
        stats = lifetime_statistics(result)
        for entry in stats.values():
            assert entry.n_samples == 0
            assert entry.observed_fraction == 0.0
        table = render_lifetime_table(stats)
        assert "-" in table


# ---------------------------------------------------------------------------
# Runtime mechanics
# ---------------------------------------------------------------------------


def record_golden(runner, duration_ms, times=()):
    """Golden Run with digests, as the campaign records it."""
    return runner.run_with_checkpoints(
        duration_ms, times, frame_digests=True, case_id="tc"
    )


def golden_of(samples, duration_ms, digests=None):
    """A Golden Run over hand-made traces, without checkpoints."""
    traces = TraceSet(SignalTrace(signal, column) for signal, column in samples.items())
    result = RunResult(
        traces=traces,
        duration_ms=duration_ms,
        final_signals={signal: column[-1] for signal, column in samples.items()},
    )
    return GoldenRun(case_id="tc", result=result, digests=digests)


class _PassthroughTrap:
    """A read interceptor with no ``fired`` attribute: never 'done'."""

    def on_read(self, module, signal, value, now_ms):
        return value


class TestRuntimeFastForward:
    def test_uninjected_run_reconverges_immediately(self):
        runner = build_toy_run()
        golden = record_golden(runner, 50)
        replay = runner.run(50, golden)
        assert replay.reconverged_at_ms == 0
        assert replay.frames_fast_forwarded == 49
        assert replay.traces.to_mapping() == golden.result.traces.to_mapping()
        assert replay.final_signals == golden.result.final_signals
        assert replay.telemetry == golden.result.telemetry

    def test_reference_without_digests_disables_fast_forward(self):
        runner = build_toy_run()
        golden = runner.run_with_checkpoints(50, ())
        assert golden.digests is None
        replay = runner.run(50, golden)
        assert replay.reconverged_at_ms is None
        assert replay.frames_fast_forwarded == 0
        assert replay.traces.to_mapping() == golden.result.traces.to_mapping()

    def test_armed_hook_blocks_splice(self):
        """An inert hook without ``fired`` keeps fast-forward disarmed."""
        runner = build_toy_run()
        golden = record_golden(runner, 50)
        runner.add_read_interceptor(_PassthroughTrap())
        try:
            replay = runner.run(50, golden)
        finally:
            runner.clear_hooks()
        assert replay.reconverged_at_ms is None
        assert replay.frames_fast_forwarded == 0
        assert replay.traces.to_mapping() == golden.result.traces.to_mapping()

    def test_resume_takes_its_prefix_from_the_golden_run(self):
        """A checkpoint holds state only; the Golden Run supplies the
        prefix, with or without the digests that enable fast-forward."""
        runner = build_toy_run()
        golden = record_golden(runner, 50, times=(20,))
        assert {f.name for f in fields(RunCheckpoint)} == {
            "time_ms", "store", "clock", "environment", "modules",
        }
        for reference in (golden, replace(golden, digests=None)):
            resumed = runner.run_from(golden.checkpoints[20], reference)
            assert resumed.traces.to_mapping() == golden.result.traces.to_mapping()
            assert resumed.final_signals == golden.result.final_signals

    def test_duration_mismatch_rejected(self):
        runner = build_toy_run()
        golden = record_golden(runner, 50)
        with pytest.raises(SimulationError):
            runner.run(60, golden)

    def test_signal_mismatch_rejected(self):
        runner = build_toy_run()
        golden = record_golden(runner, 50, times=(20,))
        for digests in (golden.digests, None):
            other = golden_of({"ghost": array("q", [0] * 50)}, 50, digests)
            if digests is not None:
                with pytest.raises(SimulationError):
                    runner.run(50, other)
            with pytest.raises(SimulationError):
                runner.run_from(golden.checkpoints[20], other)

    def test_reference_validates_sample_lengths(self):
        with pytest.raises(SimulationError):
            golden_of({"a": array("q", [0, 1])}, 5)
        digests = record_golden(build_toy_run(), 4).digests
        with pytest.raises(SimulationError):
            golden_of({"a": array("q", range(5))}, 5, digests)

    def test_suffix_and_prefix_round_trip(self):
        golden = golden_of({"a": array("q", range(10))}, 10)
        prefix = golden.prefix_array("a", 4)
        assert isinstance(prefix, array) and list(prefix) == [0, 1, 2, 3]
        suffix = array("q")
        suffix.frombytes(golden.suffix_bytes("a", 4))
        assert list(prefix) + list(suffix) == list(range(10))


# ---------------------------------------------------------------------------
# The state memo: fast-forward onto earlier runs of the batch
# ---------------------------------------------------------------------------

#: A CALC.stopped flip at 500 ms whatever its bit: every bit but 0 reaches
#: the state bit 0 reached at the first lookup after it (600 ms).
MEMO_DURATION = 2000
MEMO_TARGET = ("CALC", "stopped", 500)
MEMO_CASES = {"case": ArrestmentTestCase(mass_kg=14000.0, velocity_ms=60.0)}


def _memo_campaign(observer=None, **overrides):
    """Two CALC inputs at two instants, both bytes' bits: most runs
    take a bit-0 run's outcome."""
    config = CampaignConfig(
        duration_ms=MEMO_DURATION,
        injection_times_ms=(500, 1000),
        error_models=(BitFlip(0), BitFlip(4), BitFlip(12)),
        targets=(("CALC", "stopped"), ("CALC", "slow_speed")),
        seed=3,
        **overrides,
    )
    return InjectionCampaign(
        build_arrestment_model(), build_arrestment_run, MEMO_CASES, config,
        observer=observer,
    )


class _CountingMemo(StateMemo):
    """A memo counting its lookups."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def lookup(self, digest):
        self.lookups += 1
        return super().lookup(digest)


@pytest.fixture(scope="module")
def arrestment_golden():
    runner = build_arrestment_run(MEMO_CASES["case"])
    golden = record_golden(runner, MEMO_DURATION, times=(MEMO_TARGET[2],))
    return runner, golden


def _inject(runner, golden, bit, memo=None, hook=None):
    """One CALC.stopped injection run resumed from its checkpoint."""
    module, signal, time_ms = MEMO_TARGET
    runner.add_read_interceptor(
        InputInjectionTrap.for_system(
            runner.system, module, signal, time_ms, BitFlip(bit)
        )
    )
    if hook is not None:
        runner.add_read_interceptor(hook)
    try:
        return runner.run_from(golden.checkpoints[time_ms], golden, memo)
    finally:
        runner.clear_hooks()


def _memo_view(result, golden):
    """What a memo run carries, from a run with traces or without."""
    divergences = result.first_divergence_ms
    if divergences is None:
        divergences = result.traces.first_divergences(golden.traces)
    return (
        divergences,
        result.reconverged_at_ms,
        result.frames_fast_forwarded,
        result.final_signals,
        result.telemetry,
    )


class TestStateMemo:
    def test_second_run_takes_the_first_runs_outcome(self, arrestment_golden):
        runner, golden = arrestment_golden
        memo = StateMemo()
        donor = _inject(runner, golden, 0, memo)
        assert donor.traces is None and len(memo) > 0
        assert memo.hits == 0
        spliced = _inject(runner, golden, 4, memo)
        assert spliced.traces is None
        assert memo.hits == 1
        assert memo.frames == MEMO_DURATION - 1 - 600 - spliced.frames_fast_forwarded
        for bit, result in ((0, donor), (4, spliced)):
            full = _inject(runner, golden, bit)
            assert full.traces is not None and full.first_divergence_ms is None
            assert _memo_view(result, golden) == _memo_view(full, golden)
        # Some signal first diverges after the hit: only the donor's
        # next divergence can tell when.
        assert any(
            at is not None and at > 600
            for at in spliced.first_divergence_ms.values()
        )

    def test_not_consulted_while_a_hook_is_live(self, arrestment_golden):
        runner, golden = arrestment_golden
        memo = _CountingMemo()
        for bit in (0, 4):
            result = _inject(runner, golden, bit, memo, hook=_PassthroughTrap())
            full = _inject(runner, golden, bit)
            assert _memo_view(result, golden) == _memo_view(full, golden)
        assert memo.lookups == 0 and len(memo) == 0 and memo.hits == 0

    def test_not_consulted_without_golden_digests(self, arrestment_golden):
        runner, golden = arrestment_golden
        bare = replace(golden, digests=None)
        memo = _CountingMemo()
        for bit in (0, 4):
            result = _inject(runner, bare, bit, memo)
            assert result.traces is not None
            assert result.first_divergence_ms is None
            assert result.reconverged_at_ms is None
        assert memo.lookups == 0 and memo.hits == 0

    def test_case_context_memo_follows_fast_forward_and_inspector(self):
        campaign = _memo_campaign(fast_forward=True)
        runner, golden = campaign._golden_for_case("case", MEMO_CASES["case"])
        spec = [("CALC", "stopped", 500, 0)]
        config = campaign.config
        context = _CaseContext(campaign._system, config, runner, golden, spec)
        assert isinstance(context.memo, StateMemo)
        for context in (
            _CaseContext(
                campaign._system, config, runner, golden, spec, keep_traces=True
            ),
            _CaseContext(
                campaign._system, config, runner, replace(golden, digests=None),
                spec,
            ),
        ):
            assert context.memo is None

    def test_campaign_records_equal_with_and_without_inspector(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=str(events_path), with_metrics=True
        )
        bare = _memo_campaign(observer=observer).execute()
        observer.close()
        runs = []
        inspected = _memo_campaign().execute(
            inspector=lambda outcome, injected, golden: runs.append(injected)
        )
        assert all(run.traces is not None for run in runs)
        assert [o.to_jsonable() for o in bare] == [
            o.to_jsonable() for o in inspected
        ]
        metrics = observer.metrics.to_dict()
        hits = metrics["fast_forward.memo_hits"]["value"]
        assert hits > 0 and metrics["fast_forward.memo_frames"]["value"] > 0
        text = render_summary(summarize_events(read_events(events_path)))
        assert f"state memo: {hits} runs took an earlier run's outcome" in text
