"""V_REG: the pressure valve regulator.

Closes the pressure loop: compares the set point ``SetValue`` from CALC
with the measured pressure ``InValue`` from PRES_S and computes the
valve drive command ``OutValue``.  Period = 7 ms.

The regulator is a fixed-point PI controller with anti-windup clamping:

* proportional term ``KP * error``;
* integral term accumulating ``error >> KI_SHIFT`` per activation,
  clamped to the drive range so saturation does not wind up.

Because every activation recomputes the drive from both inputs, errors
on either input permeate to ``OutValue`` with high probability — the
paper measured 0.884 (``SetValue``) and 0.920 (``InValue``) here.
"""

from __future__ import annotations

from repro.arrestment.constants import VREG_KI_SHIFT, VREG_KP
from repro.model.module import ModuleSpec, SoftwareModule

__all__ = ["V_REG_SPEC", "ValveRegulatorModule"]

V_REG_SPEC = ModuleSpec(
    name="V_REG",
    inputs=("SetValue", "InValue"),
    outputs=("OutValue",),
    description="PI pressure regulator driving the valve command",
    period_ms=7,
)

#: Valve drive range (16-bit unsigned).
_DRIVE_MAX = 0xFFFF


class ValveRegulatorModule(SoftwareModule):
    """Behavioural implementation of V_REG.

    ``spec`` may rename the ports (the two-node configuration runs a
    second instance on the slave); the first input is the set point,
    the second the measurement, the single output the drive command.
    """

    def __init__(
        self,
        kp: int = VREG_KP,
        ki_shift: int = VREG_KI_SHIFT,
        spec: ModuleSpec = V_REG_SPEC,
    ) -> None:
        if spec.n_inputs != 2 or spec.n_outputs != 1:
            raise ValueError("a valve regulator needs 2 inputs and 1 output")
        super().__init__(spec)
        if kp < 0:
            raise ValueError("kp must be >= 0")
        if ki_shift < 0:
            raise ValueError("ki_shift must be >= 0")
        self._kp = kp
        self._ki_shift = ki_shift
        self.reset()

    def reset(self) -> None:
        self._integral = 0

    def state_dict(self) -> dict:
        return {"integral": self._integral}

    def load_state_dict(self, state: dict) -> None:
        self._integral = state["integral"]

    def activate_values(
        self, set_point: int, measurement: int, now_ms: int
    ) -> tuple[int]:
        error = set_point - measurement
        self._integral += error >> self._ki_shift if error >= 0 else -((-error) >> self._ki_shift)
        # Anti-windup: the integral alone may never exceed the drive range.
        if self._integral > _DRIVE_MAX:
            self._integral = _DRIVE_MAX
        elif self._integral < 0:
            self._integral = 0
        drive = self._kp * error + self._integral
        if drive < 0:
            drive = 0
        elif drive > _DRIVE_MAX:
            drive = _DRIVE_MAX
        return (drive,)
