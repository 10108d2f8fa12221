"""Unit tests for injection traps and Golden Run Comparison."""

from __future__ import annotations

import pytest

from repro.injection.error_models import BitFlip
from repro.injection.golden_run import GoldenRun, compare_to_golden_run
from repro.injection.traps import InputInjectionTrap

from tests.conftest import build_toy_model, build_toy_run


class TestInputInjectionTrap:
    def test_fires_once_at_first_matching_read(self):
        trap = InputInjectionTrap("AMP", "filt", 5, BitFlip(15))
        run = build_toy_run()
        run.add_read_interceptor(trap)
        result = run.run(10)
        assert trap.fired
        assert trap.fired_at_ms == 5
        assert trap.injected_value == trap.original_value ^ 0x8000
        # Only millisecond 5 is affected on the output.
        golden = build_toy_run().run(10)
        diffs = [
            t
            for t in range(10)
            if result.traces["out"][t] != golden.traces["out"][t]
        ]
        assert diffs == [5]

    def test_does_not_touch_store(self):
        trap = InputInjectionTrap("AMP", "filt", 2, BitFlip(15))
        run = build_toy_run()
        run.add_read_interceptor(trap)
        result = run.run(6)
        golden = build_toy_run().run(6)
        assert result.traces["filt"].samples == golden.traces["filt"].samples

    def test_module_scoping(self):
        """A trap on FILT's input never perturbs what AMP reads directly."""
        trap = InputInjectionTrap("FILT", "src", 3, BitFlip(0))
        run = build_toy_run()
        run.add_read_interceptor(trap)
        run.run(6)
        assert trap.fired
        assert trap.fired_at_ms == 3

    def test_for_system_validates_input(self):
        model = build_toy_model()
        with pytest.raises(Exception):
            InputInjectionTrap.for_system(model, "AMP", "src", 0, BitFlip(0))

    def test_for_system_takes_width(self):
        model = build_toy_model()
        trap = InputInjectionTrap.for_system(model, "AMP", "filt", 0, BitFlip(0))
        assert trap.width == 16

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            InputInjectionTrap("AMP", "filt", -1, BitFlip(0))

    def test_unfired_when_time_beyond_run(self):
        trap = InputInjectionTrap("AMP", "filt", 100, BitFlip(0))
        run = build_toy_run()
        run.add_read_interceptor(trap)
        run.run(10)
        assert not trap.fired
        assert trap.fired_at_ms is None


class TestGoldenRunComparison:
    def test_error_free_comparison(self):
        golden = GoldenRun("case", build_toy_run().run(10))
        injected = build_toy_run().run(10)
        comparison = compare_to_golden_run(golden, injected)
        assert comparison.error_free()
        assert comparison.diverged_signals() == ()

    def test_detects_divergence_with_time(self):
        golden = GoldenRun("case", build_toy_run().run(10))
        run = build_toy_run()
        run.add_read_interceptor(InputInjectionTrap("AMP", "filt", 6, BitFlip(15)))
        comparison = compare_to_golden_run(golden, run.run(10))
        assert comparison.diverged("out")
        assert comparison.divergence_time("out") == 6
        assert not comparison.diverged("filt")
        assert not comparison.diverged("src")

    def test_diverged_signals_ordered_by_time(self):
        golden = GoldenRun("case", build_toy_run().run(10))
        run = build_toy_run()
        run.add_read_interceptor(InputInjectionTrap("FILT", "src", 2, BitFlip(15)))
        comparison = compare_to_golden_run(golden, run.run(10))
        # FILT passes the flipped high bit on and AMP reads it in the
        # same millisecond; the stored src itself stays untouched.
        assert comparison.diverged_signals() == ("filt", "out")
        assert comparison.divergence_time("filt") == 2
        assert comparison.divergence_time("out") == 2
        assert not comparison.diverged("src")

    def test_latency(self):
        golden = GoldenRun("case", build_toy_run().run(10))
        run = build_toy_run()
        run.add_read_interceptor(InputInjectionTrap("AMP", "filt", 6, BitFlip(15)))
        comparison = compare_to_golden_run(golden, run.run(10))
        assert comparison.latency_ms("out", 6) == 0
        assert comparison.latency_ms("filt", 6) is None

    def test_unknown_signal_rejected(self):
        golden = GoldenRun("case", build_toy_run().run(5))
        comparison = compare_to_golden_run(golden, build_toy_run().run(5))
        with pytest.raises(Exception):
            comparison.diverged("ghost")

    def test_case_id_carried(self):
        golden = GoldenRun("case-7", build_toy_run().run(5))
        comparison = compare_to_golden_run(golden, build_toy_run().run(5))
        assert comparison.case_id == "case-7"
        override = compare_to_golden_run(golden, build_toy_run().run(5), case_id="x")
        assert override.case_id == "x"

    def test_golden_run_accessors(self):
        golden = GoldenRun("case", build_toy_run().run(5))
        assert golden.duration_ms == 5
        assert len(golden.signal_trace("out")) == 5
