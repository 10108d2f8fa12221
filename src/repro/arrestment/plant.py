"""The arrestment plant: aircraft, cable drums, hydraulics and sensors.

The paper ported the original environment simulator ("the simulator
handles the rotating drum and the incoming aircraft", Section 7.1) so
that the desktop software experienced the identical environment.  This
module is our equivalent: a deterministic physical simulation that

* integrates the aircraft/cable/drum longitudinal dynamics under the
  hydraulic brake force,
* models the first-order valve/line lag between the commanded valve
  opening (``TOC2``) and the applied pressure,
* generates the tooth-wheel pulse train into the ``PACNT`` pulse
  accumulator with edge-accurate ``TIC1`` input capture against the
  free-running ``TCNT`` timer, and
* quantises the applied pressure into the ``ADC`` register.

It implements the :class:`repro.simulation.runtime.Environment`
protocol; the runtime calls :meth:`ArrestmentPlant.before_software` once
per millisecond before dispatching the software and
:meth:`ArrestmentPlant.after_software` afterwards to latch the actuator
command.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from repro.arrestment import constants
from repro.model.errors import UnknownSignalError
from repro.simulation.runtime import SignalStore

__all__ = ["PlantConfig", "ArrestmentPlant"]

#: The input registers the plant drives, in the order it writes them.
_INPUT_REGISTERS = ("PACNT", "TIC1", "TCNT", "ADC")
#: Integration step [s]: the plant advances one 1 ms frame per call.
_DT_S = 1.0e-3
#: 16-bit register wrap (and the ADC's full-scale conversion result).
_REGISTER_MASK = 0xFFFF


@dataclass(frozen=True)
class PlantConfig:
    """Physical parameters of one arrestment scenario.

    The defaults reproduce the standard plant; ablation studies override
    individual fields.
    """

    #: Aircraft mass at engagement [kg].
    mass_kg: float = 14000.0
    #: Engagement velocity [m/s].
    velocity_ms: float = 60.0
    #: Tape-drum radius [m].
    drum_radius_m: float = constants.DRUM_RADIUS_M
    #: Tooth-wheel pulses per metre of cable run-out.
    pulses_per_metre: float = constants.PULSES_PER_METRE
    #: Hydraulic supply pressure (ADC full scale) [Pa].
    supply_pressure_pa: float = constants.SUPPLY_PRESSURE_PA
    #: Brake torque per pascal, per drum [N·m/Pa].
    brake_torque_per_pa: float = constants.BRAKE_TORQUE_PER_PA
    #: Number of braked cable ends.
    n_drums: int = constants.N_DRUMS
    #: Valve/line first-order time constant [s].
    valve_time_constant_s: float = constants.VALVE_TIME_CONSTANT_S
    #: Constant rolling/aero deceleration while moving [m/s²].
    rolling_decel_ms2: float = constants.ROLLING_DECEL_MS2
    #: Hardware timer ticks per millisecond.
    ticks_per_ms: int = constants.TICKS_PER_MS

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ValueError("mass_kg must be positive")
        if self.velocity_ms < 0:
            raise ValueError("velocity_ms cannot be negative")
        if self.drum_radius_m <= 0 or self.pulses_per_metre <= 0:
            raise ValueError("geometry parameters must be positive")
        if self.supply_pressure_pa <= 0 or self.valve_time_constant_s <= 0:
            raise ValueError("hydraulic parameters must be positive")
        if self.ticks_per_ms < 1:
            raise ValueError("ticks_per_ms must be >= 1")


class ArrestmentPlant:
    """Deterministic closed-loop environment for the arrestment system.

    Signal naming follows the paper's Fig. 8: the plant owns the
    hardware registers ``PACNT``, ``TIC1``, ``TCNT`` and ``ADC`` (the
    system inputs) and consumes ``TOC2`` (the system output).

    The registers are plain 16-bit ``int`` fields with the semantics of
    :mod:`repro.simulation.registers`: ``TCNT`` free-runs at
    ``ticks_per_ms``, ``PACNT`` accumulates pulses, ``TIC1`` latches
    ``TCNT`` at the last pulse edge and ``ADC`` quantises the pressure
    with clipping.  Every instance attribute is plain data, so the
    result store can fingerprint the plant exactly.
    """

    def __init__(self, config: PlantConfig) -> None:
        self._config = config
        # Constants of the 1 ms step, read once.
        self._step = (
            _DT_S / config.valve_time_constant_s,
            config.supply_pressure_pa,
            config.brake_torque_per_pa,
            config.n_drums,
            config.drum_radius_m,
            config.mass_kg,
            config.rolling_decel_ms2,
            config.pulses_per_metre,
            config.ticks_per_ms,
        )
        self.reset()

    # ------------------------------------------------------------------
    # Environment protocol
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Restore the physical state to the moment of cable engagement."""
        self._position_m = 0.0
        self._velocity_ms = self._config.velocity_ms
        self._pressure_pa = 0.0
        self._valve_fraction = 0.0
        self._pulse_position = 0.0  # cable run-out in tooth-wheel pulses
        self._pulses_emitted = 0
        self._peak_decel_ms2 = 0.0
        self._stop_time_ms: int | None = None
        self._tcnt = 0
        self._pacnt = 0
        self._tic1 = 0
        self._adc = 0

    def state_dict(self) -> dict:
        """Complete physical state, including the hardware registers."""
        return {
            "position_m": self._position_m,
            "velocity_ms": self._velocity_ms,
            "pressure_pa": self._pressure_pa,
            "valve_fraction": self._valve_fraction,
            "pulse_position": self._pulse_position,
            "pulses_emitted": self._pulses_emitted,
            "peak_decel_ms2": self._peak_decel_ms2,
            "stop_time_ms": self._stop_time_ms,
            "tcnt": {"value": self._tcnt},
            "pacnt": {"value": self._pacnt},
            "tic1": {"value": self._tic1},
            "adc": {"value": self._adc},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed physical state bit-for-bit."""
        self._position_m = state["position_m"]
        self._velocity_ms = state["velocity_ms"]
        self._pressure_pa = state["pressure_pa"]
        self._valve_fraction = state["valve_fraction"]
        self._pulse_position = state["pulse_position"]
        self._pulses_emitted = state["pulses_emitted"]
        self._peak_decel_ms2 = state["peak_decel_ms2"]
        self._stop_time_ms = state["stop_time_ms"]
        self._tcnt = state["tcnt"]["value"]
        self._pacnt = state["pacnt"]["value"]
        self._tic1 = state["tic1"]["value"]
        self._adc = state["adc"]["value"]

    def before_software(self, now_ms: int, store: SignalStore) -> None:
        """Integrate 1 ms of physics and refresh the input registers.

        One flat step on locals.  Do not reorder a float expression:
        that changes results in the last bits, and
        ``tests/data/arrestment_golden_pins.json`` pins them exactly.
        """
        (
            alpha,
            supply_pa,
            torque_per_pa,
            n_drums,
            drum_radius_m,
            mass_kg,
            rolling_decel,
            pulses_per_metre,
            ticks_per_ms,
        ) = self._step

        # Valve/line lag toward the commanded fraction of supply pressure.
        pressure = self._pressure_pa
        pressure += (supply_pa * self._valve_fraction - pressure) * alpha
        self._pressure_pa = pressure

        # Longitudinal dynamics under the brake force of every drum.
        start_position = pulse_position = self._pulse_position
        velocity = self._velocity_ms
        if velocity > 0.0:
            decel = (
                n_drums * (torque_per_pa * pressure) / drum_radius_m / mass_kg
                + rolling_decel
            )
            if decel > self._peak_decel_ms2:
                self._peak_decel_ms2 = decel
            new_velocity = velocity - decel * _DT_S
            if new_velocity <= 0.0:
                new_velocity = 0.0
                if self._stop_time_ms is None:
                    self._stop_time_ms = now_ms
            # Trapezoidal position update for a smoother pulse train.
            position = self._position_m + 0.5 * (velocity + new_velocity) * _DT_S
            self._position_m = position
            self._velocity_ms = new_velocity
            self._pulse_position = pulse_position = position * pulses_per_metre

        # Tooth-wheel pulse train into PACNT, edge capture of TCNT in TIC1.
        tcnt = self._tcnt = (self._tcnt + ticks_per_ms) & _REGISTER_MASK
        end_pulses = floor(pulse_position)
        new_pulses = end_pulses - self._pulses_emitted
        if new_pulses > 0:
            self._pacnt = (self._pacnt + new_pulses) & _REGISTER_MASK
            advance = pulse_position - start_position
            if advance > 0.0:
                # Fraction of the millisecond at which the last edge fell.
                fraction = (end_pulses - start_position) / advance
                fraction = fraction if fraction > 0.0 else 0.0
                fraction = fraction if fraction < 1.0 else 1.0
            else:  # pragma: no cover - defensive; advance>0 when pulses>0
                fraction = 1.0
            ticks_ago = round((1.0 - fraction) * ticks_per_ms)
            self._tic1 = (tcnt - ticks_ago) & _REGISTER_MASK
            self._pulses_emitted = end_pulses

        # Pressure transducer: the converter spans 0 Pa to supply, clipped.
        fraction = pressure / supply_pa
        fraction = fraction if fraction > 0.0 else 0.0
        fraction = fraction if fraction < 1.0 else 1.0
        self._adc = round(fraction * _REGISTER_MASK) & _REGISTER_MASK

        # Refresh the input registers, wrapped as SignalStore.write wraps.
        values = store._values
        masks = store._masks
        try:
            values["PACNT"] = self._pacnt & masks["PACNT"]
            values["TIC1"] = self._tic1 & masks["TIC1"]
            values["TCNT"] = tcnt & masks["TCNT"]
            values["ADC"] = self._adc & masks["ADC"]
        except KeyError:
            missing = next(name for name in _INPUT_REGISTERS if name not in masks)
            raise UnknownSignalError(missing) from None

    def after_software(self, now_ms: int, store: SignalStore) -> None:
        """Latch the valve command written to ``TOC2``."""
        try:
            raw = store._values["TOC2"]
        except KeyError:
            raise UnknownSignalError("TOC2") from None
        self._valve_fraction = raw / 0xFFFF

    def telemetry(self) -> dict[str, float]:
        """Physical quantities for reporting (invisible to the software)."""
        return {
            "position_m": self._position_m,
            "velocity_ms": self._velocity_ms,
            "pressure_pa": self._pressure_pa,
            "valve_fraction": self._valve_fraction,
            "peak_decel_ms2": self._peak_decel_ms2,
            "stop_time_ms": float(
                self._stop_time_ms if self._stop_time_ms is not None else -1
            ),
            "pulses_emitted": float(self._pulses_emitted),
        }

    # ------------------------------------------------------------------
    # Physical state
    # ------------------------------------------------------------------

    @property
    def config(self) -> PlantConfig:
        return self._config

    @property
    def position_m(self) -> float:
        """Cable run-out / aircraft position along the runway."""
        return self._position_m

    @property
    def velocity_ms(self) -> float:
        """Current aircraft velocity."""
        return self._velocity_ms

    @property
    def pressure_pa(self) -> float:
        """Currently applied hydraulic pressure."""
        return self._pressure_pa

    @property
    def is_stopped(self) -> bool:
        """Whether the aircraft has come to rest."""
        return self._velocity_ms <= 0.0
