"""CALC: the set-point calculation module (background task).

Paper description (Section 7.1): "CALC uses ``mscnt``, ``pulscnt``,
``slow_speed`` and ``stopped`` to calculate a set point value for the
pressure valves, ``SetValue``, at six predefined checkpoints along the
runway.  The checkpoints are detected by comparing the current
``pulscnt`` with pre-defined pulscnt-values corresponding to the various
checkpoints.  The current checkpoint is stored in ``i``.  Period = n/a
(background task, runs when other modules are dormant)."

``i`` is both an output and an input of CALC — the module feedback the
paper's trees treat specially (Figs. 10 and 12).

Set-point law
-------------
At checkpoint *i* the module estimates the current velocity from the
pulse count and millisecond clock deltas since the previous checkpoint,

.. math:: v_q = 256 \\cdot \\Delta pulscnt / \\Delta mscnt

(pulses per millisecond in Q8 fixed point), computes the deceleration
required to stop within the remaining runway,
:math:`a = v^2 / (2 d_{rem})`, and commands the hydraulic pressure that
produces this deceleration for a nominal-mass aircraft:

.. math:: SetValue = G \\cdot v_q^2 / d_{rem}

with the integer gain ``G`` =
:data:`~repro.arrestment.constants.SETPOINT_GAIN` pre-computed from the
plant constants:

``G = (m_nom * r / (2 k)) / P_supply * 65535 * (ppm / (2 * 256**2)) * 10**6 / ppm**2``

which collapses to ``G ≈ 734`` for the default plant.  While
``slow_speed`` holds, a gentle constant pull
(:data:`~repro.arrestment.constants.SLOW_SET_VALUE`) is commanded; once
``stopped`` holds, the pressure is released entirely.
"""

from __future__ import annotations

from typing import Sequence

from repro.arrestment.constants import (
    CHECKPOINT_PULSES,
    MIN_REMAINING_PULSES,
    SETPOINT_GAIN,
    SLOW_SET_VALUE,
    TOTAL_PULSES,
)
from repro.model.module import BACKGROUND, ModuleSpec, SoftwareModule

__all__ = ["CALC_SPEC", "CalcModule"]

CALC_SPEC = ModuleSpec(
    name="CALC",
    inputs=("i", "mscnt", "pulscnt", "slow_speed", "stopped"),
    outputs=("i", "SetValue"),
    description="Checkpoint detection and pressure set-point calculation",
    period_ms=BACKGROUND,
)


class CalcModule(SoftwareModule):
    """Behavioural implementation of CALC."""

    def __init__(
        self,
        checkpoints: Sequence[int] = CHECKPOINT_PULSES,
        total_pulses: int = TOTAL_PULSES,
        gain: int = SETPOINT_GAIN,
        slow_set_value: int = SLOW_SET_VALUE,
        min_remaining: int = MIN_REMAINING_PULSES,
    ) -> None:
        super().__init__(CALC_SPEC)
        if not checkpoints:
            raise ValueError("at least one checkpoint is required")
        self._checkpoints = tuple(checkpoints)
        self._total_pulses = total_pulses
        self._gain = gain
        self._slow_set_value = slow_set_value
        self._min_remaining = min_remaining
        self.reset()

    def reset(self) -> None:
        #: pulscnt/mscnt at the previously passed checkpoint, for the
        #: velocity estimate.  Engagement counts as checkpoint "zero".
        self._prev_pulscnt = 0
        self._prev_mscnt = 0

    def state_dict(self) -> dict:
        return {
            "prev_pulscnt": self._prev_pulscnt,
            "prev_mscnt": self._prev_mscnt,
        }

    def load_state_dict(self, state: dict) -> None:
        self._prev_pulscnt = state["prev_pulscnt"]
        self._prev_mscnt = state["prev_mscnt"]

    def activate_values(
        self, i: int, mscnt: int, pulscnt: int, slow_speed: int, stopped: int,
        now_ms: int,
    ) -> tuple[int, int | None]:
        if stopped != 0:
            # Arrestment complete: release the pressure.
            return i, 0
        if slow_speed != 0:
            # Final phase: constant gentle pull.
            return i, self._slow_set_value

        if i < len(self._checkpoints) and pulscnt >= self._checkpoints[i]:
            set_value = self._set_point(mscnt, pulscnt)
            self._prev_pulscnt = pulscnt
            self._prev_mscnt = mscnt
            return i + 1, set_value
        # Between checkpoints the previous set point holds (SetValue is
        # intentionally not rewritten).
        return i, None

    def _set_point(self, mscnt: int, pulscnt: int) -> int:
        """The checkpoint set-point law (see the module docstring)."""
        delta_pulses = pulscnt - self._prev_pulscnt
        delta_ms = mscnt - self._prev_mscnt
        if delta_pulses < 1:
            delta_pulses = 1
        if delta_ms < 1:
            delta_ms = 1
        v_q = (delta_pulses * 256) // delta_ms
        remaining = self._total_pulses - pulscnt
        if remaining < self._min_remaining:
            remaining = self._min_remaining
        set_value = self._gain * v_q * v_q // remaining
        return min(0xFFFF, set_value)
