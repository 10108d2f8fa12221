"""CLOCK: the millisecond clock and slot counter module.

Paper description (Section 7.1): "CLOCK provides a millisecond-clock,
``mscnt``.  The system operates in seven 1-ms-slots. ... The signal
``ms_slot_nbr`` tells the module scheduler the current execution slot.
Period = 1 ms."

``mscnt`` is derived from private internal state (a hardware millisecond
interrupt count), so it is unaffected by errors on ``ms_slot_nbr``.  The
slot counter, in contrast, is incremented *from its own previous value*
(the classic embedded ``slot = (slot + 1) % N`` idiom), so an error in
``ms_slot_nbr`` persists indefinitely — the source of the paper's
:math:`P^{CLOCK} = 1.000` feedback permeability.
"""

from __future__ import annotations

from repro.arrestment.constants import N_SLOTS
from repro.model.module import ModuleSpec, SoftwareModule

__all__ = ["CLOCK_SPEC", "ClockModule"]

CLOCK_SPEC = ModuleSpec(
    name="CLOCK",
    inputs=("ms_slot_nbr",),
    outputs=("mscnt", "ms_slot_nbr"),
    description="Millisecond clock and execution-slot counter",
    period_ms=1,
)


class ClockModule(SoftwareModule):
    """Behavioural implementation of CLOCK."""

    def __init__(self, n_slots: int = N_SLOTS) -> None:
        super().__init__(CLOCK_SPEC)
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self._n_slots = n_slots
        self._mscnt = 0

    def reset(self) -> None:
        self._mscnt = 0

    def state_dict(self) -> dict:
        return {"mscnt": self._mscnt}

    def load_state_dict(self, state: dict) -> None:
        self._mscnt = state["mscnt"]

    def activate_values(self, ms_slot_nbr: int, now_ms: int) -> tuple[int, int]:
        self._mscnt = mscnt = (self._mscnt + 1) & 0xFFFF
        return mscnt, (ms_slot_nbr + 1) % self._n_slots
