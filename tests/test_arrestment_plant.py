"""Unit tests for the arrestment plant physics and sensor models."""

from __future__ import annotations

import pytest

from repro.arrestment.constants import PULSES_PER_METRE
from repro.arrestment.plant import ArrestmentPlant, PlantConfig
from repro.arrestment.system import build_arrestment_model
from repro.model.errors import UnknownSignalError
from repro.model.module import ModuleSpec
from repro.model.system import SystemModel
from repro.simulation.runtime import SignalStore


@pytest.fixture()
def store() -> SignalStore:
    return SignalStore(build_arrestment_model())


def make_plant(**overrides) -> ArrestmentPlant:
    defaults = dict(mass_kg=14000.0, velocity_ms=60.0)
    defaults.update(overrides)
    return ArrestmentPlant(PlantConfig(**defaults))


class TestPlantConfig:
    def test_defaults_valid(self):
        PlantConfig()

    def test_invalid_mass(self):
        with pytest.raises(ValueError):
            PlantConfig(mass_kg=0)

    def test_invalid_velocity(self):
        with pytest.raises(ValueError):
            PlantConfig(velocity_ms=-1)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PlantConfig(drum_radius_m=0)

    def test_invalid_hydraulics(self):
        with pytest.raises(ValueError):
            PlantConfig(valve_time_constant_s=0)

    def test_invalid_tick_rate(self):
        with pytest.raises(ValueError, match="ticks_per_ms"):
            PlantConfig(ticks_per_ms=0)


class TestFreeRoll:
    def test_coasting_without_brake(self, store):
        """With the valve shut, only rolling drag slows the aircraft."""
        plant = make_plant()
        for t in range(1000):
            plant.before_software(t, store)
            plant.after_software(t, store)
        assert plant.velocity_ms == pytest.approx(60.0 - 0.05, abs=0.01)
        assert plant.position_m == pytest.approx(60.0, rel=0.01)

    def test_pulse_train_matches_distance(self, store):
        plant = make_plant()
        for t in range(500):
            plant.before_software(t, store)
        expected = plant.position_m * PULSES_PER_METRE
        assert store.read("PACNT") == pytest.approx(expected, abs=1)

    def test_tcnt_advances_2000_per_ms(self, store):
        plant = make_plant()
        plant.before_software(0, store)
        first = store.read("TCNT")
        plant.before_software(1, store)
        assert (store.read("TCNT") - first) & 0xFFFF == 2000

    def test_tic1_lags_tcnt_by_subms_offset(self, store):
        plant = make_plant()
        for t in range(10):
            plant.before_software(t, store)
        gap = (store.read("TCNT") - store.read("TIC1")) & 0xFFFF
        # At 60 m/s a pulse arrives roughly every 0.52 ms.
        assert 0 <= gap <= 2000


class TestBraking:
    def test_full_brake_stops_aircraft(self, store):
        plant = make_plant()
        store.write("TOC2", 0xFFFF)
        for t in range(20000):
            plant.before_software(t, store)
            plant.after_software(t, store)
            if plant.is_stopped:
                break
        assert plant.is_stopped
        telemetry = plant.telemetry()
        assert telemetry["stop_time_ms"] >= 0
        assert telemetry["peak_decel_ms2"] > 5.0

    def test_heavier_aircraft_decelerates_less(self, store):
        def decel_after(mass: float) -> float:
            plant = make_plant(mass_kg=mass)
            local = SignalStore(build_arrestment_model())
            local.write("TOC2", 0xFFFF)
            for t in range(2000):
                plant.before_software(t, local)
                plant.after_software(t, local)
            return 60.0 - plant.velocity_ms

        assert decel_after(8000.0) > decel_after(20000.0)

    def test_pressure_follows_first_order_lag(self, store):
        plant = make_plant()
        store.write("TOC2", 0xFFFF)
        plant.after_software(0, store)
        pressures = []
        for t in range(200):
            plant.before_software(t, store)
            pressures.append(plant.pressure_pa)
        # Monotone rise toward supply with ~63% at tau = 50 ms.
        assert pressures[49] == pytest.approx(20e6 * 0.63, rel=0.05)
        assert all(b >= a for a, b in zip(pressures, pressures[1:]))

    def test_adc_tracks_pressure(self, store):
        plant = make_plant()
        store.write("TOC2", 0x8000)
        plant.after_software(0, store)
        for t in range(1000):
            plant.before_software(t, store)
        adc_physical = store.read("ADC") / 0xFFFF * 20e6
        assert adc_physical == pytest.approx(plant.pressure_pa, rel=0.01)

    def test_no_motion_after_stop(self, store):
        plant = make_plant(velocity_ms=1.0)
        store.write("TOC2", 0xFFFF)
        plant.after_software(0, store)
        for t in range(5000):
            plant.before_software(t, store)
        position = plant.position_m
        for t in range(5000, 5100):
            plant.before_software(t, store)
        assert plant.position_m == position
        assert plant.velocity_ms == 0.0


def store_lacking(missing: str) -> SignalStore:
    """A store over a system that declares every plant signal but one."""
    inputs = tuple(
        name for name in ("PACNT", "TIC1", "TCNT", "ADC") if name != missing
    )
    outputs = ("OUT",) if missing == "TOC2" else ("TOC2",)
    system = SystemModel(
        "partial",
        [ModuleSpec("SW", inputs, outputs)],
        system_inputs=inputs,
        system_outputs=outputs,
        validate=False,
    )
    return SignalStore(system)


class TestUnknownSignals:
    @pytest.mark.parametrize("missing", ["PACNT", "TIC1", "TCNT", "ADC"])
    def test_missing_input_register_raises_from_before_software(self, missing):
        plant = make_plant()
        with pytest.raises(UnknownSignalError) as excinfo:
            plant.before_software(0, store_lacking(missing))
        assert excinfo.value.name == missing

    def test_missing_toc2_raises_from_after_software(self):
        plant = make_plant()
        store = store_lacking("TOC2")
        plant.before_software(0, store)
        with pytest.raises(UnknownSignalError) as excinfo:
            plant.after_software(0, store)
        assert excinfo.value.name == "TOC2"


class TestReset:
    def test_reset_restores_engagement_state(self, store):
        plant = make_plant()
        store.write("TOC2", 0xFFFF)
        plant.after_software(0, store)
        for t in range(500):
            plant.before_software(t, store)
        plant.reset()
        assert plant.velocity_ms == 60.0
        assert plant.position_m == 0.0
        assert plant.pressure_pa == 0.0
        telemetry = plant.telemetry()
        assert telemetry["pulses_emitted"] == 0.0
        assert telemetry["stop_time_ms"] == -1.0

    def test_runs_are_reproducible(self):
        def trace(plant: ArrestmentPlant) -> list[int]:
            local = SignalStore(build_arrestment_model())
            samples = []
            for t in range(300):
                plant.before_software(t, local)
                samples.append(local.read("PACNT"))
            return samples

        plant = make_plant()
        first = trace(plant)
        plant.reset()
        second = trace(plant)
        assert first == second
