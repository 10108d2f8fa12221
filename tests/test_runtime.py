"""Unit tests for the runtime (signal store, dispatch, hooks, tracing)."""

from __future__ import annotations

import pytest

from repro.injection.error_models import BitFlip
from repro.injection.traps import InputInjectionTrap
from repro.model.errors import SimulationError, UnknownSignalError
from repro.model.module import SoftwareModule
from repro.simulation.runtime import SignalStore, SimulationRun
from repro.simulation.scheduler import SlotSchedule

from tests.conftest import AmpModule, FiltModule, PassThrough, RampEnvironment


class TestSignalStore:
    def test_initial_values(self, toy_model):
        store = SignalStore(toy_model)
        assert store.read("src") == 0

    def test_write_wraps_to_width(self, toy_model):
        store = SignalStore(toy_model)
        store.write("src", 0x1_2345)
        assert store.read("src") == 0x2345

    def test_unknown_signal_read(self, toy_model):
        with pytest.raises(UnknownSignalError):
            SignalStore(toy_model).read("ghost")

    def test_unknown_signal_write(self, toy_model):
        with pytest.raises(UnknownSignalError):
            SignalStore(toy_model).write("ghost", 1)

    def test_reset(self, toy_model):
        store = SignalStore(toy_model)
        store.write("src", 99)
        store.reset()
        assert store.read("src") == 0

    def test_snapshot_is_a_copy(self, toy_model):
        store = SignalStore(toy_model)
        snapshot = store.snapshot()
        store.write("src", 1)
        assert snapshot["src"] == 0


class TestSimulationRunConstruction:
    def test_duplicate_module_instance_rejected(self, toy_model):
        with pytest.raises(SimulationError):
            SimulationRun(
                system=toy_model,
                modules=[FiltModule(), FiltModule()],
                schedule=SlotSchedule(1),
                environment=RampEnvironment(),
            )

    def test_undeclared_module_rejected(self, toy_model):
        class Rogue(FiltModule):
            def __init__(self):
                super().__init__()
                object.__setattr__(self._spec, "name", "ROGUE")

        schedule = SlotSchedule(1)
        with pytest.raises(SimulationError):
            SimulationRun(
                system=toy_model,
                modules=[Rogue()],
                schedule=schedule,
                environment=RampEnvironment(),
            )

    def test_scheduled_module_needs_instance(self, toy_model):
        schedule = SlotSchedule(1)
        schedule.assign_every_slot("FILT")
        schedule.assign_every_slot("AMP")
        with pytest.raises(SimulationError):
            SimulationRun(
                system=toy_model,
                modules=[FiltModule()],
                schedule=schedule,
                environment=RampEnvironment(),
            )

    def test_unknown_slot_signal_rejected(self, toy_model):
        schedule = SlotSchedule(1)
        with pytest.raises(UnknownSignalError):
            SimulationRun(
                system=toy_model,
                modules=[FiltModule(), AmpModule()],
                schedule=schedule,
                environment=RampEnvironment(),
                slot_signal="ghost",
            )

    def test_unknown_trace_signal_rejected(self, toy_model):
        with pytest.raises(UnknownSignalError):
            SimulationRun(
                system=toy_model,
                modules=[FiltModule(), AmpModule()],
                schedule=SlotSchedule(1),
                environment=RampEnvironment(),
                trace_signals=["ghost"],
            )


class TestExecution:
    def test_dataflow_through_chain(self, toy_run):
        result = toy_run.run(10)
        # Ramp step 3: at millisecond t (0-based) src = 3*(t+1).
        assert result.traces["src"][4] == 15
        assert result.traces["filt"][4] == 15 & 0xFF00
        assert result.traces["out"][4] == 15 & 0xFF00

    def test_trace_lengths(self, toy_run):
        result = toy_run.run(25)
        assert result.duration_ms == 25
        assert result.traces.duration_ms == 25
        for trace in result.traces:
            assert len(trace) == 25

    def test_runs_are_independent(self, toy_run):
        first = toy_run.run(20)
        second = toy_run.run(20)
        assert first.traces["out"].samples == second.traces["out"].samples

    def test_final_signals_snapshot(self, toy_run):
        result = toy_run.run(10)
        assert result.final_signals["src"] == 30

    def test_telemetry_passthrough(self, toy_run):
        result = toy_run.run(10)
        assert result.telemetry == {"value": 30.0}

    def test_zero_duration_rejected(self, toy_run):
        with pytest.raises(SimulationError):
            toy_run.run(0)

    def test_trace_subset(self, toy_model):
        schedule = SlotSchedule(1)
        schedule.assign_every_slot("FILT")
        schedule.assign_every_slot("AMP")
        run = SimulationRun(
            system=toy_model,
            modules=[FiltModule(), AmpModule()],
            schedule=schedule,
            environment=RampEnvironment(),
            trace_signals=["out"],
        )
        result = run.run(5)
        assert result.traces.signals == ("out",)

    @pytest.mark.parametrize("hooked", [False, True], ids=["compiled", "generic"])
    def test_undeclared_output_write_rejected(self, toy_model, hooked):
        class Leaky(FiltModule):
            def activate(self, inputs, now_ms):
                return {"out": 1}  # not FILT's output

        run = _filt_run(toy_model, Leaky(), hooked)
        with pytest.raises(SimulationError, match="undeclared output 'out'"):
            run.run(1)

    @pytest.mark.parametrize("hooked", [False, True], ids=["compiled", "generic"])
    @pytest.mark.parametrize("returned", [(), (1, 2), 5])
    def test_positional_result_of_wrong_shape_rejected(
        self, toy_model, hooked, returned
    ):
        class Misshapen(PositionalFilt):
            def activate_values(self, src, now_ms):
                return returned

        run = _filt_run(toy_model, Misshapen(), hooked)
        with pytest.raises(SimulationError, match="module 'FILT' returned"):
            run.run(1)

    def test_module_without_an_entry_rejected_on_instantiation(self):
        class Inert(SoftwareModule):
            pass

        with pytest.raises(TypeError, match="neither activate"):
            Inert(FiltModule().spec)

    @pytest.mark.parametrize("hooked", [False, True], ids=["compiled", "generic"])
    def test_positional_none_leaves_the_output_unchanged(self, toy_model, hooked):
        class EveryOtherFrame(PositionalFilt):
            def activate_values(self, src, now_ms):
                return (None,) if now_ms % 2 else (src,)

        result = _filt_run(toy_model, EveryOtherFrame(), hooked).run(6)
        # src = 3 * (t + 1); odd frames keep the previous frame's value.
        assert list(result.traces["filt"].samples) == [3, 3, 9, 9, 15, 15]

    def test_positional_module_derives_activate(self):
        module = PositionalFilt()
        assert module.is_positional()
        assert not FiltModule().is_positional()
        assert module.activate({"src": 0x1234}, 0) == {"filt": 0x1200}


class PositionalFilt(SoftwareModule):
    """FILT through the positional entry."""

    def __init__(self):
        super().__init__(FiltModule().spec)

    def activate_values(self, src, now_ms):
        return (src & 0xFF00,)


def _filt_run(toy_model, filt, hooked):
    """``filt`` and AMP on the toy chain, optionally on the generic loop."""
    schedule = SlotSchedule(1)
    schedule.assign_every_slot("FILT")
    run = SimulationRun(
        system=toy_model,
        modules=[filt, AmpModule()],
        schedule=schedule,
        environment=RampEnvironment(),
    )
    if hooked:
        run.add_read_interceptor(PassThrough())
    return run


class TestHooks:
    def test_read_interceptor_is_consumer_scoped(self, toy_run):
        class ForceValue:
            def on_read(self, module, signal, value, now_ms):
                if module == "AMP" and signal == "filt":
                    return 0xAA00
                return value

        toy_run.add_read_interceptor(ForceValue())
        result = toy_run.run(5)
        # AMP saw the forced value; the stored filt signal did not.
        assert result.traces["out"][3] == 0xAA00
        assert result.traces["filt"][3] != 0xAA00

    def test_clear_hooks(self, toy_run):
        class Bomb:
            def on_read(self, module, signal, value, now_ms):
                raise AssertionError("should have been cleared")

        toy_run.add_read_interceptor(Bomb())
        toy_run.clear_hooks()
        toy_run.run(3)  # must not raise

    def test_interceptors_chain_in_order(self, toy_run):
        class Add1:
            def on_read(self, module, signal, value, now_ms):
                return value + 1 if module == "AMP" else value

        class Double:
            def on_read(self, module, signal, value, now_ms):
                return value * 2 if module == "AMP" else value

        toy_run.add_read_interceptor(Add1())
        toy_run.add_read_interceptor(Double())
        result = toy_run.run(1)
        # src=3 -> filt=0; AMP reads (0+1)*2 = 2.
        assert result.traces["out"][0] == 2

    def test_fired_input_trap_gets_no_further_calls(self, toy_run):
        frames_called = []

        class CountingTrap(InputInjectionTrap):
            def on_read(self, module, signal, value, now_ms):
                frames_called.append(now_ms)
                return super().on_read(module, signal, value, now_ms)

        trap = CountingTrap("AMP", "filt", 3, BitFlip(15))
        toy_run.add_read_interceptor(trap)
        toy_run.run(10)
        assert trap.fired_at_ms == 3
        # Called on every read up to the firing frame, never after it.
        assert frames_called == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_hook_without_fired_is_called_on_every_read(self, toy_run):
        reads = []

        class Logger:
            def on_read(self, module, signal, value, now_ms):
                reads.append((now_ms, module, signal))
                return value

        # A one-shot trap firing early must not take the logger with it.
        toy_run.add_read_interceptor(InputInjectionTrap("AMP", "filt", 1, BitFlip(0)))
        toy_run.add_read_interceptor(Logger())
        toy_run.run(6)
        assert reads == [
            (t, module, signal)
            for t in range(6)
            for module, signal in (("FILT", "src"), ("AMP", "filt"))
        ]

    def test_unfired_interceptors_chain_in_order_around_a_fired_one(
        self, toy_run
    ):
        class Add1:
            def on_read(self, module, signal, value, now_ms):
                return value + 1 if module == "AMP" else value

        class Double:
            def on_read(self, module, signal, value, now_ms):
                return value * 2 if module == "AMP" else value

        toy_run.add_read_interceptor(Add1())
        toy_run.add_read_interceptor(InputInjectionTrap("AMP", "filt", 0, BitFlip(4)))
        toy_run.add_read_interceptor(Double())
        result = toy_run.run(3)
        # src=3 -> filt=0 at frame 0: AMP reads ((0+1)^16)*2 = 34.
        assert result.traces["out"][0] == 34
        # Afterwards the fired trap is gone and the chain is (filt+1)*2.
        filt = result.traces["filt"]
        assert [result.traces["out"][t] for t in (1, 2)] == [
            (filt[t] + 1) * 2 for t in (1, 2)
        ]

    def test_hooks_installed_until_cleared(self, toy_run):
        trap = InputInjectionTrap("FILT", "src", 0, BitFlip(0))
        toy_run.add_read_interceptor(trap)
        toy_run.run(3)
        assert trap.fired
        assert toy_run.hooks_installed
        toy_run.clear_hooks()
        assert not toy_run.hooks_installed


class TestSlotSignalDispatch:
    def test_slot_driven_by_signal(self):
        """A module whose slot counter it corrupts reschedules itself."""
        from repro.arrestment import build_arrestment_run

        run = build_arrestment_run()
        result = run.run(21)
        # ms_slot_nbr cycles 1..0 (incremented each ms, mod 7).
        slots = list(result.traces["ms_slot_nbr"].samples[:14])
        assert slots == [(t + 1) % 7 for t in range(14)]
