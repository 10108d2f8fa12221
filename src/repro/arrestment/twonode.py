"""The two-node master/slave arrestment configuration (paper Fig. 6).

"In the real system, there are two nodes; a master node calculating the
desired pressure to be applied, and a slave node receiving the desired
pressure from the master.  Each node controls one of the rotating
drums."  The paper's experiment removed the slave; this module restores
it, exercising the framework on the distributed configuration the
system model of Section 3 explicitly includes ("distributed software
functions resident on either single or distributed hardware nodes").

Additional software:

* ``COMM`` — the master→slave set-point link: forwards ``SetValue`` as
  ``SetValueS`` with a one-cycle transmission delay (a double-buffered
  mailbox, the classic field-bus pattern);
* ``PRES_S_S`` / ``V_REG_S`` / ``PRES_A_S`` — the slave's own pressure
  chain on its drum, instantiated from the same behavioural classes
  under slave signal names (``ADCS``, ``InValueS``, ``OutValueS``,
  ``TOC2S``).

The plant becomes a :class:`TwoDrumPlant`: each cable end has its own
valve, pressure state and transducer; the aircraft is retarded by the
sum of both drum forces.  The rotation sensors stay on the master drum
(both ends see the same cable run-out).

System inputs: ``PACNT``, ``TIC1``, ``TCNT``, ``ADC``, ``ADCS``.
System outputs: ``TOC2``, ``TOC2S``.  10 modules, 30 input/output pairs.
"""

from __future__ import annotations

from typing import Mapping

from repro.arrestment import constants
from repro.arrestment.calc import CALC_SPEC, CalcModule
from repro.arrestment.clock import CLOCK_SPEC, ClockModule
from repro.arrestment.dist_s import DIST_S_SPEC, DistanceSensorModule
from repro.arrestment.plant import PlantConfig
from repro.arrestment.pres_a import PRES_A_SPEC, PressureActuatorModule
from repro.arrestment.pres_s import PRES_S_SPEC, PressureSensorModule
from repro.arrestment.system import ARRESTMENT_SIGNALS
from repro.arrestment.testcases import ArrestmentTestCase
from repro.arrestment.v_reg import V_REG_SPEC, ValveRegulatorModule
from repro.model.module import ModuleSpec, SoftwareModule
from repro.model.signal import SignalSpec
from repro.model.system import SystemModel
from repro.simulation.runtime import SignalStore, SimulationRun
from repro.simulation.scheduler import SlotSchedule

__all__ = [
    "COMM_SPEC",
    "CommLinkModule",
    "TwoDrumPlant",
    "build_twonode_model",
    "twonode_schedule",
    "build_twonode_modules",
    "build_twonode_run",
]

COMM_SPEC = ModuleSpec(
    name="COMM",
    inputs=("SetValue",),
    outputs=("SetValueS",),
    description="Master-to-slave set-point link (one-cycle mailbox delay)",
    period_ms=7,
)

#: Slave-side instances of the pressure chain, renamed per node.
PRES_S_S_SPEC = ModuleSpec(
    name="PRES_S_S",
    inputs=("ADCS",),
    outputs=("InValueS",),
    description="Slave pressure transducer conditioning",
    period_ms=7,
)
V_REG_S_SPEC = ModuleSpec(
    name="V_REG_S",
    inputs=("SetValueS", "InValueS"),
    outputs=("OutValueS",),
    description="Slave PI pressure regulator",
    period_ms=7,
)
PRES_A_S_SPEC = ModuleSpec(
    name="PRES_A_S",
    inputs=("OutValueS",),
    outputs=("TOC2S",),
    description="Slave valve drive",
    period_ms=7,
)

#: Additional slave-side signals.
TWONODE_EXTRA_SIGNALS: tuple[SignalSpec, ...] = (
    SignalSpec("SetValueS", description="Set point received over the link"),
    SignalSpec("ADCS", description="Slave pressure transducer conversion"),
    SignalSpec("InValueS", description="Slave conditioned pressure"),
    SignalSpec("OutValueS", description="Slave valve drive command"),
    SignalSpec("TOC2S", description="Slave output-compare register"),
)


class CommLinkModule(SoftwareModule):
    """The master→slave set-point mailbox.

    Transmits the set point with a one-activation (7 ms) delay: the
    value written to the slave is the one sampled on the *previous*
    activation, modelling the field-bus transmission frame.
    """

    def __init__(self) -> None:
        super().__init__(COMM_SPEC)
        self.reset()

    def reset(self) -> None:
        self._in_flight = 0

    def state_dict(self) -> dict:
        return {"in_flight": self._in_flight}

    def load_state_dict(self, state: dict) -> None:
        self._in_flight = state["in_flight"]

    def activate(self, inputs: Mapping[str, int], now_ms: int) -> Mapping[str, int]:
        delivered = self._in_flight
        self._in_flight = inputs["SetValue"]
        return {"SetValueS": delivered}


def build_twonode_model() -> SystemModel:
    """The distributed topology: 10 modules, 30 pairs, 2 system outputs."""
    return SystemModel(
        name="arrestment-twonode",
        modules=[
            CLOCK_SPEC,
            DIST_S_SPEC,
            PRES_S_SPEC,
            CALC_SPEC,
            V_REG_SPEC,
            PRES_A_SPEC,
            COMM_SPEC,
            PRES_S_S_SPEC,
            V_REG_S_SPEC,
            PRES_A_S_SPEC,
        ],
        system_inputs=["PACNT", "TIC1", "TCNT", "ADC", "ADCS"],
        system_outputs=["TOC2", "TOC2S"],
        signals=ARRESTMENT_SIGNALS + TWONODE_EXTRA_SIGNALS,
        description=(
            "Master/slave arrestment configuration (paper Fig. 6): the "
            "master computes the set point, the slave receives it over "
            "the COMM link and controls the second drum"
        ),
    )


def twonode_schedule() -> SlotSchedule:
    """The 7-slot schedule extended with the link and the slave chain."""
    schedule = SlotSchedule(n_slots=constants.N_SLOTS)
    schedule.assign_every_slot("CLOCK")
    schedule.assign_every_slot("DIST_S")
    schedule.assign("PRES_S", [1])
    schedule.assign("PRES_S_S", [2])
    schedule.assign("V_REG", [3])
    schedule.assign("COMM", [3])
    schedule.assign("V_REG_S", [4])
    schedule.assign("PRES_A", [5])
    schedule.assign("PRES_A_S", [6])
    schedule.add_background("CALC")
    return schedule


def build_twonode_modules() -> list[SoftwareModule]:
    """Fresh behavioural instances of all ten modules."""
    return [
        ClockModule(),
        DistanceSensorModule(),
        PressureSensorModule(),
        CalcModule(),
        ValveRegulatorModule(),
        PressureActuatorModule(),
        CommLinkModule(),
        PressureSensorModule(spec=PRES_S_S_SPEC),
        ValveRegulatorModule(spec=V_REG_S_SPEC),
        PressureActuatorModule(spec=PRES_A_S_SPEC),
    ]


class TwoDrumPlant:
    """Two independently braked cable ends retarding one aircraft.

    Mirrors :class:`repro.arrestment.plant.ArrestmentPlant` with one
    pressure/valve/transducer state per drum.  Both ends see the same
    cable run-out, so the rotation sensors stay on the master drum.
    The hardware registers are plain 16-bit ``int`` fields, as in
    :class:`~repro.arrestment.plant.ArrestmentPlant`.
    """

    def __init__(self, config: PlantConfig) -> None:
        self._config = config
        self.reset()

    def reset(self) -> None:
        config = self._config
        self._position_m = 0.0
        self._velocity_ms = config.velocity_ms
        self._pressure_pa = [0.0, 0.0]  # master, slave
        self._valve_fraction = [0.0, 0.0]
        self._pulse_position = 0.0
        self._pulses_emitted = 0
        self._peak_decel_ms2 = 0.0
        self._stop_time_ms: int | None = None
        self._tcnt = 0
        self._pacnt = 0
        self._tic1 = 0
        self._adc_master = 0
        self._adc_slave = 0

    def state_dict(self) -> dict:
        """Complete two-drum physical state, including the registers."""
        return {
            "position_m": self._position_m,
            "velocity_ms": self._velocity_ms,
            "pressure_pa": list(self._pressure_pa),
            "valve_fraction": list(self._valve_fraction),
            "pulse_position": self._pulse_position,
            "pulses_emitted": self._pulses_emitted,
            "peak_decel_ms2": self._peak_decel_ms2,
            "stop_time_ms": self._stop_time_ms,
            "tcnt": {"value": self._tcnt},
            "pacnt": {"value": self._pacnt},
            "tic1": {"value": self._tic1},
            "adc_master": {"value": self._adc_master},
            "adc_slave": {"value": self._adc_slave},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed two-drum state bit-for-bit."""
        self._position_m = state["position_m"]
        self._velocity_ms = state["velocity_ms"]
        self._pressure_pa = list(state["pressure_pa"])
        self._valve_fraction = list(state["valve_fraction"])
        self._pulse_position = state["pulse_position"]
        self._pulses_emitted = state["pulses_emitted"]
        self._peak_decel_ms2 = state["peak_decel_ms2"]
        self._stop_time_ms = state["stop_time_ms"]
        self._tcnt = state["tcnt"]["value"]
        self._pacnt = state["pacnt"]["value"]
        self._tic1 = state["tic1"]["value"]
        self._adc_master = state["adc_master"]["value"]
        self._adc_slave = state["adc_slave"]["value"]

    # -- Environment protocol ------------------------------------------

    def before_software(self, now_ms: int, store: SignalStore) -> None:
        self._integrate_one_ms(now_ms)
        store.write("PACNT", self._pacnt)
        store.write("TIC1", self._tic1)
        store.write("TCNT", self._tcnt)
        store.write("ADC", self._adc_master)
        store.write("ADCS", self._adc_slave)

    def after_software(self, now_ms: int, store: SignalStore) -> None:
        self._valve_fraction[0] = store.read("TOC2") / 0xFFFF
        self._valve_fraction[1] = store.read("TOC2S") / 0xFFFF

    def telemetry(self) -> dict[str, float]:
        return {
            "position_m": self._position_m,
            "velocity_ms": self._velocity_ms,
            "pressure_master_pa": self._pressure_pa[0],
            "pressure_slave_pa": self._pressure_pa[1],
            "peak_decel_ms2": self._peak_decel_ms2,
            "stop_time_ms": float(
                self._stop_time_ms if self._stop_time_ms is not None else -1
            ),
            "pulses_emitted": float(self._pulses_emitted),
        }

    # -- physics --------------------------------------------------------

    @property
    def velocity_ms(self) -> float:
        return self._velocity_ms

    @property
    def position_m(self) -> float:
        return self._position_m

    def _brake_force_n(self) -> float:
        config = self._config
        torque = config.brake_torque_per_pa * (
            self._pressure_pa[0] + self._pressure_pa[1]
        )
        # One drum per cable end: the per-drum count is already encoded
        # in summing the two pressures.
        return torque / config.drum_radius_m

    def _integrate_one_ms(self, now_ms: int) -> None:
        import math

        config = self._config
        dt = 1.0e-3
        alpha = dt / config.valve_time_constant_s
        for end in (0, 1):
            target = config.supply_pressure_pa * self._valve_fraction[end]
            self._pressure_pa[end] += (target - self._pressure_pa[end]) * alpha

        start_position = self._pulse_position
        if self._velocity_ms > 0.0:
            decel = self._brake_force_n() / config.mass_kg + config.rolling_decel_ms2
            self._peak_decel_ms2 = max(self._peak_decel_ms2, decel)
            new_velocity = self._velocity_ms - decel * dt
            if new_velocity <= 0.0:
                new_velocity = 0.0
                if self._stop_time_ms is None:
                    self._stop_time_ms = now_ms
            self._position_m += 0.5 * (self._velocity_ms + new_velocity) * dt
            self._velocity_ms = new_velocity
            self._pulse_position = self._position_m * config.pulses_per_metre

        self._tcnt = (self._tcnt + config.ticks_per_ms) & 0xFFFF
        end_pulses = math.floor(self._pulse_position)
        new_pulses = end_pulses - self._pulses_emitted
        if new_pulses > 0:
            self._pacnt = (self._pacnt + new_pulses) & 0xFFFF
            advance = self._pulse_position - start_position
            if advance > 0.0:
                fraction = (end_pulses - start_position) / advance
                fraction = min(1.0, max(0.0, fraction))
            else:  # pragma: no cover - defensive
                fraction = 1.0
            ticks_ago = round((1.0 - fraction) * config.ticks_per_ms)
            self._tic1 = (self._tcnt - ticks_ago) & 0xFFFF
            self._pulses_emitted = end_pulses

        # Pressure transducers: each converter spans 0 Pa to supply, clipped.
        supply_pa = config.supply_pressure_pa
        self._adc_master = round(
            min(1.0, max(0.0, self._pressure_pa[0] / supply_pa)) * 0xFFFF
        )
        self._adc_slave = round(
            min(1.0, max(0.0, self._pressure_pa[1] / supply_pa)) * 0xFFFF
        )


def build_twonode_run(
    case: ArrestmentTestCase | None = None,
    plant_config: PlantConfig | None = None,
    trace_signals: tuple[str, ...] | None = None,
) -> SimulationRun:
    """A complete executable two-node closed loop."""
    if plant_config is None:
        if case is None:
            case = ArrestmentTestCase(mass_kg=14000.0, velocity_ms=60.0)
        plant_config = PlantConfig(mass_kg=case.mass_kg, velocity_ms=case.velocity_ms)
    system = build_twonode_model()
    return SimulationRun(
        system=system,
        modules=build_twonode_modules(),
        schedule=twonode_schedule(),
        environment=TwoDrumPlant(plant_config),
        slot_signal="ms_slot_nbr",
        trace_signals=trace_signals,
    )
