"""Unit tests for the simulation substrate (clock, scheduler)."""

from __future__ import annotations

import pytest

from repro.model.errors import ScheduleError
from repro.simulation.scheduler import SlotSchedule
from repro.simulation.simtime import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance_ms() == 1
        assert clock.advance_ms(9) == 10
        assert clock.now_ms == 10

    def test_ticks(self):
        clock = SimClock(ticks_per_ms=2000)
        clock.advance_ms(3)
        assert clock.now_ticks == 6000

    def test_reset(self):
        clock = SimClock()
        clock.advance_ms(5)
        clock.reset()
        assert clock.now_ms == 0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_ms(-1)

    def test_bad_tick_rate_rejected(self):
        with pytest.raises(ValueError):
            SimClock(ticks_per_ms=0)


class TestSlotSchedule:
    def test_assign_and_dispatch(self):
        schedule = SlotSchedule(n_slots=7)
        schedule.assign_every_slot("CLOCK")
        schedule.assign("PRES_S", [1])
        schedule.add_background("CALC")
        assert schedule.modules_for_slot(0) == ("CLOCK",)
        assert schedule.modules_for_slot(1) == ("CLOCK", "PRES_S")
        assert schedule.dispatch_order(1) == ("CLOCK", "PRES_S", "CALC")

    def test_slot_wraps_modulo(self):
        schedule = SlotSchedule(n_slots=7)
        schedule.assign("X", [3])
        assert schedule.modules_for_slot(10) == ("X",)
        assert schedule.modules_for_slot(0xFFFF) == schedule.modules_for_slot(
            0xFFFF % 7
        )

    def test_assign_period(self):
        schedule = SlotSchedule(n_slots=6)
        schedule.assign_period("M", period_ms=3, phase=1)
        assert schedule.modules_for_slot(1) == ("M",)
        assert schedule.modules_for_slot(4) == ("M",)
        assert schedule.modules_for_slot(0) == ()

    def test_assign_period_must_divide(self):
        with pytest.raises(ScheduleError):
            SlotSchedule(n_slots=7).assign_period("M", period_ms=3)

    def test_assign_period_phase_bound(self):
        with pytest.raises(ScheduleError):
            SlotSchedule(n_slots=6).assign_period("M", period_ms=3, phase=3)

    def test_double_assignment_rejected(self):
        schedule = SlotSchedule()
        schedule.assign("M", [0])
        with pytest.raises(ScheduleError):
            schedule.assign("M", [0])

    def test_double_background_rejected(self):
        schedule = SlotSchedule()
        schedule.add_background("CALC")
        with pytest.raises(ScheduleError):
            schedule.add_background("CALC")

    def test_bad_slot_rejected(self):
        with pytest.raises(ScheduleError):
            SlotSchedule(n_slots=7).assign("M", [7])

    def test_zero_slots_rejected(self):
        with pytest.raises(ScheduleError):
            SlotSchedule(n_slots=0)

    def test_all_modules_deduplicated(self):
        schedule = SlotSchedule(n_slots=2)
        schedule.assign_every_slot("A")
        schedule.assign("B", [1])
        schedule.add_background("C")
        assert schedule.all_modules() == ("A", "B", "C")

    def test_describe(self):
        schedule = SlotSchedule(n_slots=2)
        schedule.assign("A", [0])
        text = schedule.describe()
        assert "slot 0: A" in text
        assert "slot 1: (idle)" in text
