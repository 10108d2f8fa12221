"""PRES_S: the pressure sensor conditioning module.

Paper description (Section 7.1): "PRES_S reads the pressure that is
actually being applied by the pressure valves, using ``ADC`` from the
internal A/D-converter.  This value is provided in ``InValue``.
Period = 7 ms."

The paper measured this module's single input/output pair as completely
non-permeable (:math:`P^{PRES\\_S} = 0.000`, OB3) — its signal
conditioning rejects single corrupted samples.  Under an exact Golden
Run Comparison (Section 7.3) that requires two properties at once:

1. **value robustness** — one corrupted sample must not change the
   reported value.  PRES_S votes with a *median of the last five raw
   samples*: a single outlier can shift the median only by the local
   sample spread, and the output is quantised to a coarse grid
   (:data:`~repro.arrestment.constants.PRES_QUANT` counts), so a
   sub-spread shift almost never crosses a grid boundary.
2. **timing robustness** — the *instant* at which ``InValue`` changes
   must not depend on the data.  PRES_S therefore refreshes its output
   on a fixed schedule (every
   :data:`~repro.arrestment.constants.PRES_UPDATE_PERIOD`-th
   activation), never on a level/dead-band trigger whose crossing time
   a corrupted sample could advance or delay.

Together these reproduce the paper's finding: high-order bits fall
outside the median window, low-order bits vanish in the quantisation,
and no bit can move the update schedule.  The pressure loop tolerates
the coarse, slightly stale measurement easily (the valve lag dominates).
"""

from __future__ import annotations

from repro.arrestment.constants import PRES_QUANT, PRES_UPDATE_PERIOD
from repro.model.module import ModuleSpec, SoftwareModule

__all__ = ["PRES_S_SPEC", "PressureSensorModule"]

PRES_S_SPEC = ModuleSpec(
    name="PRES_S",
    inputs=("ADC",),
    outputs=("InValue",),
    description="Pressure conditioning: median-of-5 voting, quantised, "
    "time-triggered output refresh",
    period_ms=7,
)


def _median5(values: list[int]) -> int:
    """Median of exactly five values."""
    return sorted(values)[2]


class PressureSensorModule(SoftwareModule):
    """Behavioural implementation of PRES_S."""

    def __init__(
        self,
        quant: int = PRES_QUANT,
        update_period: int = PRES_UPDATE_PERIOD,
        spec: ModuleSpec = PRES_S_SPEC,
    ) -> None:
        if spec.n_inputs != 1 or spec.n_outputs != 1:
            raise ValueError("a pressure sensor needs 1 input and 1 output")
        super().__init__(spec)
        if quant < 1:
            raise ValueError("quant must be >= 1")
        if update_period < 1:
            raise ValueError("update_period must be >= 1")
        self._quant = quant
        self._update_period = update_period
        self.reset()

    def reset(self) -> None:
        self._initialised = False
        self._history: list[int] = [0, 0, 0, 0, 0]
        self._activation = 0
        self._in_value = 0

    def state_dict(self) -> dict:
        return {
            "initialised": self._initialised,
            "history": list(self._history),
            "activation": self._activation,
            "in_value": self._in_value,
        }

    def load_state_dict(self, state: dict) -> None:
        self._initialised = state["initialised"]
        self._history = list(state["history"])
        self._activation = state["activation"]
        self._in_value = state["in_value"]

    def _quantise(self, value: int) -> int:
        return ((value + self._quant // 2) // self._quant) * self._quant

    def activate_values(self, sample: int, now_ms: int) -> tuple[int]:
        if not self._initialised:
            self._history = [sample] * 5
            self._in_value = self._quantise(sample)
            self._initialised = True
            return (self._in_value,)

        self._history = self._history[1:] + [sample]
        self._activation += 1
        if self._activation % self._update_period == 0:
            self._in_value = self._quantise(_median5(self._history))
        return (self._in_value,)
