"""The SimulationBackend protocol and the batched lane kernel.

The batched backend's contract is byte-identity with the reference
frame-stepping runtime: same traces, same outcomes, same reconvergence
instants, in the same grid order.  These tests pin that contract on
generated XOR-mask systems (fully vectorized), mixed systems with an
opaque module (scalar per-lane fallback), the arrestment plant (full
per-run reference fallback) and hypothesis-drawn random systems.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.campaign import CampaignConfig, CampaignError, InjectionCampaign
from repro.injection.error_models import BitFlip, DoubleBitFlip, StuckAtOne
from repro.model.errors import SimulationError
from repro.simulation.backend import (
    ReferenceBackend,
    SimulationBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
)
from repro.verify.generators import (
    GeneratedModule,
    GeneratedSystem,
    GeneratedSystemSpec,
    generate_system,
)
from repro.verify.oracles import default_campaign, run_digest

from .strategies import generated_executable_systems

np = pytest.importorskip("numpy")

import repro.simulation.batched as batched  # noqa: E402 — needs numpy
from repro.simulation.batched import (  # noqa: E402 — needs numpy
    BatchedBackend,
    _apply,
    _CasePlan,
    pack_state_row,
    unpack_state_row,
)


def _mixed_system(seed: int = 13) -> GeneratedSystem:
    """A generated system with every other module hidden from the vectorizer."""
    base = generate_system(seed)
    modules = tuple(
        dataclasses.replace(m, opaque=(index % 2 == 1))
        for index, m in enumerate(base.spec.modules)
    )
    return GeneratedSystem(dataclasses.replace(base.spec, modules=modules))


def _campaign(generated, backend, observer=None, **overrides):
    config = CampaignConfig(
        duration_ms=overrides.pop("duration_ms", 200),
        injection_times_ms=overrides.pop("injection_times_ms", (30, 110)),
        error_models=overrides.pop(
            "error_models", (BitFlip(0), BitFlip(3), DoubleBitFlip(1, 2))
        ),
        seed=5,
        backend=backend,
        **overrides,
    )
    return InjectionCampaign(
        generated.system, generated.run_factory, ["case"], config, observer=observer
    )


def _collect(generated, backend, **overrides):
    """Every (outcome, RunResult) pair of a campaign, in grid order."""
    pairs = []
    _campaign(generated, backend, **overrides).execute(
        inspector=lambda outcome, injected, golden: pairs.append(
            (outcome, injected)
        )
    )
    return pairs


def _assert_identical(reference, batched):
    assert len(reference) == len(batched)
    for (ref_out, ref_run), (bat_out, bat_run) in zip(reference, batched):
        key = (
            ref_out.module,
            ref_out.input_signal,
            ref_out.scheduled_time_ms,
            ref_out.error_model,
        )
        assert key == (
            bat_out.module,
            bat_out.input_signal,
            bat_out.scheduled_time_ms,
            bat_out.error_model,
        ), "grid order diverged"
        assert ref_out.fired_at_ms == bat_out.fired_at_ms, key
        assert ref_out.comparison.first_divergence_ms == (
            bat_out.comparison.first_divergence_ms
        ), key
        assert ref_run.reconverged_at_ms == bat_run.reconverged_at_ms, key
        assert ref_run.frames_fast_forwarded == (
            bat_run.frames_fast_forwarded
        ), key
        assert ref_run.final_signals == bat_run.final_signals, key
        assert ref_run.telemetry == bat_run.telemetry, key
        assert run_digest(ref_run) == run_digest(bat_run), key


# ---------------------------------------------------------------------------
# Lane packing
# ---------------------------------------------------------------------------


class TestLanePacking:
    def test_pack_unpack_round_trip(self):
        signals = ("a", "b", "c")
        values = {"a": 7, "b": 0, "c": 0xFFFF}
        row = pack_state_row(values, signals)
        assert row.dtype == np.int64
        assert row.shape == (3,)
        assert unpack_state_row(row, signals) == values

    def test_unpack_returns_python_ints(self):
        row = pack_state_row({"a": 3}, ("a",))
        value = unpack_state_row(row, ("a",))["a"]
        assert type(value) is int  # numpy ints break state digests

    def test_pack_respects_signal_order(self):
        row = pack_state_row({"b": 2, "a": 1}, ("a", "b"))
        assert list(row) == [1, 2]


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("reference", "batched")

    def test_get_backend_instances(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("batched"), BatchedBackend)
        assert isinstance(get_backend("batched"), SimulationBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError, match="warp-drive"):
            get_backend("warp-drive")
        assert issubclass(UnknownBackendError, SimulationError)

    def test_campaign_config_rejects_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown simulation backend"):
            CampaignConfig(
                duration_ms=100,
                injection_times_ms=(10,),
                error_models=(BitFlip(0),),
                backend="warp-drive",
            )

    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batched")
        config = CampaignConfig(
            duration_ms=100,
            injection_times_ms=(10,),
            error_models=(BitFlip(0),),
        )
        assert config.backend == "batched"

    def test_explicit_backend_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batched")
        config = CampaignConfig(
            duration_ms=100,
            injection_times_ms=(10,),
            error_models=(BitFlip(0),),
            backend="reference",
        )
        assert config.backend == "reference"


# ---------------------------------------------------------------------------
# Byte-identity with the reference runtime
# ---------------------------------------------------------------------------


class TestBatchedIdentity:
    def test_fully_vectorized_system(self):
        generated = generate_system(seed=7)
        _assert_identical(
            _collect(generated, "reference"), _collect(generated, "batched")
        )

    def test_mixed_opaque_modules_use_scalar_fallback(self):
        generated = _mixed_system()
        _assert_identical(
            _collect(generated, "reference"), _collect(generated, "batched")
        )

    def test_non_xor_models_fall_back_per_run(self):
        generated = generate_system(seed=7)
        models = (BitFlip(0), StuckAtOne(1))  # StuckAtOne is not XOR-able
        _assert_identical(
            _collect(generated, "reference", error_models=models),
            _collect(generated, "batched", error_models=models),
        )

    def test_without_fast_forward(self):
        generated = generate_system(seed=3)
        _assert_identical(
            _collect(generated, "reference", fast_forward=False),
            _collect(generated, "batched", fast_forward=False),
        )

    def test_without_prefix_reuse(self):
        generated = generate_system(seed=3)
        overrides = dict(reuse_golden_prefix=False, fast_forward=False)
        _assert_identical(
            _collect(generated, "reference", **overrides),
            _collect(generated, "batched", **overrides),
        )

    def test_arrestment_full_fallback(self):
        """A non-lane-invariant environment routes every run to reference."""
        from repro.arrestment import build_arrestment_model, build_arrestment_run
        from repro.arrestment.testcases import ArrestmentTestCase

        def run(backend):
            config = CampaignConfig(
                duration_ms=1500,
                injection_times_ms=(400, 900),
                error_models=(BitFlip(0), BitFlip(4)),
                seed=9,
                backend=backend,
            )
            campaign = InjectionCampaign(
                build_arrestment_model(),
                build_arrestment_run,
                {"case": ArrestmentTestCase(mass_kg=14000.0, velocity_ms=60.0)},
                config,
            )
            pairs = []
            campaign.execute(
                inspector=lambda o, injected, g: pairs.append((o, injected))
            )
            return pairs

        _assert_identical(run("reference"), run("batched"))

    def test_per_lane_retirement_matches_reference_and_splices_golden(self):
        """Lanes retire individually; retired traces end on the golden suffix."""
        generated = generate_system(seed=7)
        reference = _collect(generated, "reference")
        batched = _collect(generated, "batched")
        _assert_identical(reference, batched)
        retirements = {
            run.reconverged_at_ms
            for _, run in batched
            if run.reconverged_at_ms is not None
        }
        assert len(retirements) > 1, (
            "workload too easy: every reconverging lane retired at the "
            "same frame, so per-lane retirement was not exercised"
        )
        golden = generated.build_run().run(200)
        for _, run in batched:
            if run.reconverged_at_ms is None:
                continue
            for signal in run.traces.signals:
                suffix = run.traces[signal].samples[run.reconverged_at_ms + 1:]
                assert suffix == (
                    golden.traces[signal].samples[run.reconverged_at_ms + 1:]
                )

    @settings(max_examples=10, deadline=None)
    @given(generated_executable_systems(), st.integers(0, 2**8))
    def test_random_systems_are_backend_invariant(self, generated, seed):
        campaign = default_campaign(generated)
        overrides = dict(
            duration_ms=campaign.duration_ms,
            injection_times_ms=campaign.injection_times_ms,
            error_models=tuple(
                BitFlip(bit) for bit in range(min(4, campaign.n_bits))
            ),
        )
        _assert_identical(
            _collect(generated, "reference", **overrides),
            _collect(generated, "batched", **overrides),
        )


# ---------------------------------------------------------------------------
# Composed slot maps
# ---------------------------------------------------------------------------


def _plan(generated: GeneratedSystem) -> _CasePlan:
    runner = generated.build_run()
    golden = runner.run_with_checkpoints(8, ())
    runner.reset()
    return _CasePlan(runner, golden)


def _random_lanes(plan: _CasePlan, n_lanes: int, seed: int) -> np.ndarray:
    """A signal-major lane state with every value inside its width."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.integers(0, plan.wmask[signal], size=n_lanes, endpoint=True)
            for signal in plan.signals
        ]
    ).astype(np.int64)


def _slot_system() -> GeneratedSystem:
    """Four slots covering every kind the kernel distinguishes.

    Slot 0 runs MA then MB: MB reads ``a``, written earlier in the same
    slot, and its own output ``b`` (a self-loop); ``a`` is 5 bits wide,
    so MA's mask is cut by the width.  Slots 1 and 3 are empty.  Slot 2
    adds the opaque MC, so its frames always step module by module.
    """
    modules = (
        GeneratedModule(
            name="MA",
            inputs=("x_in",),
            outputs=("a",),
            masks={"x_in": {"a": 0xFFB6}},
            period_ms=2,
        ),
        GeneratedModule(
            name="MB",
            inputs=("a", "b"),
            outputs=("b",),
            masks={"a": {"b": 0x1D}, "b": {"b": 0xF0F3}},
            period_ms=2,
        ),
        GeneratedModule(
            name="MC",
            inputs=("b", "x_in"),
            outputs=("c",),
            masks={"b": {"c": 0x0FF1}, "x_in": {"c": 0x3C07}},
            period_ms=4,
            phase=2,
            opaque=True,
        ),
    )
    return GeneratedSystem(
        GeneratedSystemSpec(
            name="slot-kinds",
            seed=0,
            n_slots=4,
            env_seed=77,
            widths={"x_in": 16, "a": 5, "b": 16, "c": 12},
            system_inputs=("x_in",),
            system_outputs=("b", "c"),
            modules=modules,
        )
    )


class TestComposedSlotMaps:
    @settings(max_examples=40, deadline=None)
    @given(
        generated_executable_systems(),
        st.integers(1, 17),
        st.integers(0, 2**32 - 1),
    )
    def test_slot_map_equals_module_maps_in_sequence(
        self, generated, n_lanes, seed
    ):
        plan = _plan(generated)
        state = _random_lanes(plan, n_lanes, seed)
        for slot, order in enumerate(plan.dispatch):
            expected = state.copy()
            for name in order:
                _apply(plan.module_maps[name], expected)
            composed = state.copy()
            _apply(plan.slot_maps[slot], composed)
            assert np.array_equal(composed, expected), (slot, order)

    @settings(max_examples=40, deadline=None)
    @given(
        generated_executable_systems(),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_module_map_equals_activate(self, generated, n_lanes, seed):
        plan = _plan(generated)
        state = _random_lanes(plan, n_lanes, seed)
        for name, module_map in plan.module_maps.items():
            stepped = state.copy()
            _apply(module_map, stepped)
            module = plan.runner.modules[name]
            for lane in range(n_lanes):
                values = unpack_state_row(state[:, lane], plan.signals)
                inputs = {s: values[s] for s in module.spec.inputs}
                for signal, value in module.activate(inputs, 0).items():
                    values[signal] = value & plan.wmask[signal]
                assert unpack_state_row(stepped[:, lane], plan.signals) == values

    def test_slot_kinds_of_the_hand_built_system(self):
        plan = _plan(_slot_system())
        assert plan.dispatch == (("MA", "MB"), (), ("MA", "MB", "MC"), ())
        composed, empty, per_module, _ = plan.slot_maps
        assert per_module is None
        assert empty is not None and len(empty.written) == 0
        assert [plan.signals[i] for i in composed.written] == ["a", "b"]
        # b = (x_in & 0xFFB6 & 0x1F) & 0x1D ^ (b & 0xF0F3), in one sweep.
        row = dict(zip((plan.signals[i] for i in composed.read), composed.masks[1]))
        assert row == {"x_in": 0x14, "b": 0xF0F3}

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_hand_built_slot_kinds_are_byte_identical(self, fast_forward):
        generated = _slot_system()
        overrides = dict(
            # 10 lands in the opaque slot, 11 in an empty one (the
            # module maps fire at 12, a composed slot), 13 likewise.
            injection_times_ms=(10, 11, 13, 40),
            error_models=(BitFlip(0), BitFlip(4), DoubleBitFlip(1, 2)),
            fast_forward=fast_forward,
        )
        reference = _collect(generated, "reference", **overrides)
        lanes = _collect(generated, "batched", **overrides)
        _assert_identical(reference, lanes)
        fired_slots = {
            outcome.fired_at_ms % 4 for outcome, _ in lanes if outcome.fired_at_ms
        }
        assert fired_slots == {0, 2}


def _observed_batches(generated, monkeypatch, **overrides):
    """A batched campaign's pairs, its kernel frames and its sub-batches.

    Each sub-batch is recorded as the instants of its lanes, in lane
    order.
    """
    from repro.obs import CampaignObserver

    batches = []
    run_batch = batched._run_batch

    def recording(context, plan, lanes, duration_ms):
        batches.append([point.time_ms for _, point, _ in lanes])
        return run_batch(context, plan, lanes, duration_ms)

    monkeypatch.setattr(batched, "_run_batch", recording)
    observer = CampaignObserver.to_files(
        events_path=None, with_metrics=True, system=generated.system
    )
    pairs = []
    _campaign(generated, "batched", observer=observer, **overrides).execute(
        inspector=lambda outcome, injected, golden: pairs.append(
            (outcome, injected)
        )
    )
    observer.close()
    frames = observer.metrics.histogram("kernel.batch_step.seconds").count
    return pairs, frames, batches


_MODES = pytest.mark.parametrize(
    "fast_forward, reuse",
    [(True, True), (True, False), (False, True), (False, False)],
)


class TestCaseBatches:
    """One lane batch per case: instants share frames, results do not move."""

    @_MODES
    def test_interleaved_instants_share_one_batch(
        self, monkeypatch, fast_forward, reuse
    ):
        generated = generate_system(seed=7)
        # Out of grid order on purpose; 30 and 31 fire on one frame for
        # some targets, and lanes of 30 retire long before 70 and 110.
        overrides = dict(
            injection_times_ms=(110, 30, 70, 31),
            fast_forward=fast_forward,
            reuse_golden_prefix=reuse,
        )
        pairs, frames, batches = _observed_batches(
            generated, monkeypatch, **overrides
        )
        _assert_identical(_collect(generated, "reference", **overrides), pairs)
        assert len(batches) == 1
        assert batches[0] == sorted(batches[0])
        assert any(run.reconverged_at_ms is None for _, run in pairs)
        # No lane retires everything early, so the one batch runs from
        # its start checkpoint to the end of the run.
        assert frames == 200 - (30 if reuse else 0)
        if fast_forward:
            assert any(
                run.reconverged_at_ms is not None and run.reconverged_at_ms < 70
                for _, run in pairs
            )

    @_MODES
    def test_cap_splits_one_instant_across_sub_batches(
        self, monkeypatch, fast_forward, reuse
    ):
        generated = generate_system(seed=7)
        # 7 traced signals x 200 ms x 8 bytes per lane, 27 lanes per
        # sub-batch: the 18 lanes of instant 70 straddle the two.
        monkeypatch.setattr(batched, "_MAX_HISTORY_BYTES", 27 * 7 * 200 * 8)
        overrides = dict(
            injection_times_ms=(30, 70, 110),
            fast_forward=fast_forward,
            reuse_golden_prefix=reuse,
        )
        pairs, frames, batches = _observed_batches(
            generated, monkeypatch, **overrides
        )
        _assert_identical(_collect(generated, "reference", **overrides), pairs)
        assert [len(lanes) for lanes in batches] == [27, 27]
        assert batches[0][-1] == batches[1][0] == 70
        if not fast_forward:
            # No lane retires, so each sub-batch steps to the end.
            assert frames == ((200 - 30) + (200 - 70) if reuse else 2 * 200)

    @_MODES
    def test_batch_skips_golden_frames_between_dying_instants(
        self, monkeypatch, fast_forward, reuse
    ):
        generated = generate_system(seed=6)
        assert not generated.has_feedback
        overrides = dict(
            injection_times_ms=(110, 30, 70),
            fast_forward=fast_forward,
            reuse_golden_prefix=reuse,
        )
        pairs, frames, batches = _observed_batches(
            generated, monkeypatch, **overrides
        )
        _assert_identical(_collect(generated, "reference", **overrides), pairs)
        assert len(batches) == 1
        if not fast_forward:
            assert frames == 200 - (30 if reuse else 0)
            return
        # Every error dies out before the next instant.
        last: dict[int, int] = {}
        for outcome, run in pairs:
            instant = outcome.scheduled_time_ms
            last[instant] = max(last.get(instant, -1), run.reconverged_at_ms)
        assert last[30] < 70 and last[70] < 110
        if reuse:
            # Once every fired lane has retired the batch resumes at the
            # next instant's checkpoint: only each instant's own frames.
            assert frames == sum(end + 1 - instant for instant, end in last.items())
        else:
            # Checkpoint 0 is behind every lane: no frame is skipped.
            assert frames == last[110] + 1

    @_MODES
    def test_opaque_module_keeps_one_batch_per_instant(
        self, monkeypatch, fast_forward, reuse
    ):
        generated = _mixed_system()
        overrides = dict(
            injection_times_ms=(110, 30, 70),
            fast_forward=fast_forward,
            reuse_golden_prefix=reuse,
        )
        pairs, _, batches = _observed_batches(generated, monkeypatch, **overrides)
        _assert_identical(_collect(generated, "reference", **overrides), pairs)
        assert sorted(sorted(set(lanes)) for lanes in batches) == [[30], [70], [110]]

    def test_traces_are_views_with_the_reference_bytes(self):
        generated = generate_system(seed=7)
        reference = _collect(generated, "reference")
        lanes = _collect(generated, "batched")
        for (_, ref_run), (_, bat_run) in zip(reference, lanes, strict=True):
            for trace in bat_run.traces:
                samples = trace.samples
                assert isinstance(samples, memoryview)
                assert samples.format == "q" and samples.readonly
                assert bytes(samples) == bytes(ref_run.traces[trace.signal].samples)


class TestKernelComparison:
    """The Golden Run Comparison of batched lanes runs in the kernel."""

    @settings(max_examples=12, deadline=None)
    @given(
        generated_executable_systems(),
        st.integers(0, 2**8 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_uninspected_outcomes_equal_the_reference(
        self, generated, opaque_bits, reuse, fast_forward, long_run
    ):
        """Without an inspector, lanes keep no traces: outcomes still match.

        A long run spans several block flushes and instants far apart.
        """
        modules = tuple(
            dataclasses.replace(module, opaque=bool(opaque_bits >> index & 1))
            for index, module in enumerate(generated.spec.modules)
        )
        generated = GeneratedSystem(
            dataclasses.replace(generated.spec, modules=modules)
        )
        campaign = default_campaign(generated)
        overrides = dict(
            duration_ms=700 if long_run else campaign.duration_ms,
            injection_times_ms=campaign.injection_times_ms
            + ((260, 520) if long_run else ()),
            error_models=tuple(
                BitFlip(bit) for bit in range(min(4, campaign.n_bits))
            ),
            reuse_golden_prefix=reuse,
            fast_forward=fast_forward,
        )
        outcomes = {
            backend: [
                outcome.to_jsonable()
                for outcome in _campaign(generated, backend, **overrides).execute()
            ]
            for backend in ("reference", "batched")
        }
        assert outcomes["batched"] == outcomes["reference"]

    def test_uninspected_batch_keeps_no_trace_buffer(self):
        """Without an inspector the traced peak stays below one case's
        trace buffer (lanes x traced signals x frames x 8 bytes)."""
        import tracemalloc

        generated = generate_system(seed=7)
        overrides = dict(
            duration_ms=2000,
            injection_times_ms=(100, 1000),
            error_models=tuple(BitFlip(bit) for bit in range(8)),
        )

        def peak(inspector):
            campaign = _campaign(generated, "batched", **overrides)
            tracemalloc.start()
            try:
                result = campaign.execute(inspector=inspector)
                return len(result), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n_runs, untraced = peak(None)
        buffer_bytes = n_runs * len(generated.build_run().trace_signals) * 2000 * 8
        _, traced = peak(lambda outcome, injected, golden: None)
        assert traced > buffer_bytes, "the measurement misses the trace buffer"
        assert untraced < buffer_bytes


class TestHistoryCap:
    @pytest.mark.parametrize("reuse", [True, False])
    def test_history_counts_frames_from_the_batch_start(self, monkeypatch, reuse):
        """The cap counts a sub-batch's whole trace buffer, from frame 0.

        Whichever checkpoint the batch resumes from, its buffer holds
        every frame of every lane's traces.
        """
        cap = 1 << 20
        monkeypatch.setattr(batched, "_MAX_HISTORY_BYTES", cap)
        sizes = []
        run_batch = batched._run_batch

        def recording(context, plan, lanes, duration_ms):
            sizes.append(len(lanes) * len(plan.trace_signals) * duration_ms * 8)
            return run_batch(context, plan, lanes, duration_ms)

        monkeypatch.setattr(batched, "_run_batch", recording)
        generated = generate_system(3)
        overrides = dict(
            duration_ms=2000,
            injection_times_ms=(100, 1500),
            error_models=tuple(BitFlip(bit) for bit in range(8)),
            reuse_golden_prefix=reuse,
        )
        lanes = _collect(generated, "batched", **overrides)
        assert len(sizes) > 2
        assert max(sizes) <= cap
        _assert_identical(_collect(generated, "reference", **overrides), lanes)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestBackendObservability:
    def _execute(self, backend):
        from repro.obs import CampaignObserver

        generated = generate_system(seed=7)
        observer = CampaignObserver.to_files(
            events_path=None, with_metrics=True, system=generated.system
        )
        campaign = InjectionCampaign(
            generated.system,
            generated.run_factory,
            ["case"],
            CampaignConfig(
                duration_ms=120,
                injection_times_ms=(30,),
                error_models=(BitFlip(0), BitFlip(1)),
                seed=5,
                backend=backend,
            ),
            observer=observer,
        )
        campaign.execute()
        return observer

    def test_backend_selected_event_and_manifest(self):
        observer = self._execute("batched")
        events = observer.events._sink.events()
        types = [parsed.type_name for parsed in events]
        assert types[0] == "CampaignStarted"
        assert types[1] == "BackendSelected"
        assert events[1].event.backend == "batched"
        assert events[0].event.manifest["backend"] == "batched"

    def test_backend_participates_in_config_hash(self):
        reference = self._execute("reference")
        batched = self._execute("batched")
        hashes = {
            obs.events._sink.events()[0].event.manifest["config_hash"]
            for obs in (reference, batched)
        }
        assert len(hashes) == 2

    def test_kernel_metrics_recorded(self):
        metrics = self._execute("batched").metrics
        assert metrics.counter("kernel.lanes.retired").value > 0
        assert metrics.histogram("kernel.batch_step.seconds").count > 0

    def test_fallback_counter_on_arrestment(self):
        from repro.arrestment import build_arrestment_model, build_arrestment_run
        from repro.arrestment.testcases import ArrestmentTestCase
        from repro.obs import CampaignObserver

        system = build_arrestment_model()
        observer = CampaignObserver.to_files(
            events_path=None, with_metrics=True, system=system
        )
        InjectionCampaign(
            system,
            build_arrestment_run,
            {"case": ArrestmentTestCase(mass_kg=14000.0, velocity_ms=60.0)},
            CampaignConfig(
                duration_ms=800,
                injection_times_ms=(300,),
                error_models=(BitFlip(0),),
                backend="batched",
            ),
            observer=observer,
        ).execute()
        assert observer.metrics.counter("kernel.fallback.runs").value > 0
