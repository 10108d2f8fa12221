"""PRES_A: the pressure actuator drive module.

Transfers the regulator's drive command ``OutValue`` into the hardware
output-compare register ``TOC2`` that generates the valve drive pulse
width.  Period = 7 ms.

The drive electronics resolve fewer bits than the 16-bit command word;
PRES_A therefore quantises the command
(:data:`~repro.arrestment.constants.TOC2_QUANT_MASK` drops the least
significant bits).  Errors in the dropped bits consequently do not
permeate, which is why the paper measured a permeability below 1
(0.860) for this pass-through module.
"""

from __future__ import annotations

from repro.arrestment.constants import TOC2_QUANT_MASK
from repro.model.module import ModuleSpec, SoftwareModule

__all__ = ["PRES_A_SPEC", "PressureActuatorModule"]

PRES_A_SPEC = ModuleSpec(
    name="PRES_A",
    inputs=("OutValue",),
    outputs=("TOC2",),
    description="Valve drive: quantised transfer of OutValue into TOC2",
    period_ms=7,
)


class PressureActuatorModule(SoftwareModule):
    """Behavioural implementation of PRES_A.

    ``spec`` may rename the ports (the two-node configuration runs a
    second instance on the slave).
    """

    def __init__(
        self,
        quant_mask: int = TOC2_QUANT_MASK,
        spec: ModuleSpec = PRES_A_SPEC,
    ) -> None:
        if spec.n_inputs != 1 or spec.n_outputs != 1:
            raise ValueError("a pressure actuator needs 1 input and 1 output")
        super().__init__(spec)
        self._quant_mask = quant_mask

    def state_dict(self) -> dict:
        return {}  # stateless pass-through

    def load_state_dict(self, state: dict) -> None:
        pass

    def activate_values(self, drive: int, now_ms: int) -> tuple[int]:
        return (drive & self._quant_mask,)
