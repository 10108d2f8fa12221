"""Compiled slot dispatch against the generic frame loop.

A frame with no live read interceptor runs the slot's compiled
straight-line function; a frame with one runs the generic loop.  A
pass-through interceptor without a ``fired`` attribute keeps the
generic loop on every frame, so each test runs the same experiment both
ways and requires byte-identical results.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings

from repro.arrestment import build_arrestment_run
from repro.arrestment.twonode import build_twonode_run
from repro.injection.error_models import BitFlip
from repro.injection.traps import InputInjectionTrap
from repro.model.builder import SystemBuilder
from repro.model.module import ModuleSpec, SoftwareModule
from repro.simulation.runtime import RunResult, SimulationRun
from repro.simulation.scheduler import SlotSchedule

from tests.conftest import PassThrough
from tests.strategies import generated_executable_systems


def result_bytes(result: RunResult) -> bytes:
    """Everything a :class:`RunResult` records, as one byte string."""
    return pickle.dumps(
        (
            [(trace.signal, bytes(trace.samples)) for trace in result.traces],
            result.duration_ms,
            result.final_signals,
            result.telemetry,
            result.reconverged_at_ms,
            result.frames_fast_forwarded,
        )
    )


def assert_paths_agree(build, duration_ms: int, *hooks) -> None:
    """``build()`` runs identically on the compiled and the generic path."""
    compiled = build()
    generic = build()
    for hook in hooks:
        compiled.add_read_interceptor(hook())
        generic.add_read_interceptor(hook())
    generic.add_read_interceptor(PassThrough())
    assert result_bytes(compiled.run(duration_ms)) == result_bytes(
        generic.run(duration_ms)
    )


class TestParity:
    def test_arrestment(self):
        assert_paths_agree(build_arrestment_run, 8000)

    def test_arrestment_after_a_trap_fires(self):
        def trap():
            return InputInjectionTrap("V_REG", "SetValue", 700, BitFlip(12))

        assert_paths_agree(build_arrestment_run, 3000, trap)

    def test_twonode(self):
        # Renamed-port PRES_S/V_REG/PRES_A instances beside the
        # mapping-based CommLinkModule.
        assert_paths_agree(build_twonode_run, 6000)

    @settings(max_examples=25, deadline=None)
    @given(generated=generated_executable_systems())
    def test_generated_systems(self, generated):
        assert_paths_agree(generated.build_run, 60)


# ---------------------------------------------------------------------------
# Awkward names
# ---------------------------------------------------------------------------

SOURCE = "s'r\"c{}\\\n"
MIDDLE = "m{0}'\\n\"\n"
SINK = "o}{'\"\\"
FIRST = "A'\"{x}\\\n"
SECOND = "B}{'\\\"\n#"


class PositionalCopy(SoftwareModule):
    def activate_values(self, value, now_ms):
        return (value ^ 0x0F0F,)


class MappingCopy(SoftwareModule):
    def activate(self, inputs, now_ms):
        return {self.spec.outputs[0]: inputs[self.spec.inputs[0]] + now_ms}


class AwkwardRamp:
    def __init__(self):
        self.value = 0

    def reset(self):
        self.value = 0

    def before_software(self, now_ms, store):
        self.value = (self.value + 7) & 0xFFFF
        store.write(SOURCE, self.value)

    def after_software(self, now_ms, store):
        pass

    def telemetry(self):
        return {"value": float(self.value)}


def build_awkward_run() -> SimulationRun:
    first = ModuleSpec(FIRST, inputs=(SOURCE,), outputs=(MIDDLE,))
    second = ModuleSpec(SECOND, inputs=(MIDDLE,), outputs=(SINK,))
    builder = SystemBuilder("awkward")
    builder.add_module_spec(first)
    builder.add_module_spec(second)
    builder.mark_system_input(SOURCE)
    builder.mark_system_output(SINK)
    schedule = SlotSchedule(n_slots=2)
    schedule.assign_every_slot(first.name)
    schedule.assign(second.name, [1])
    return SimulationRun(
        system=builder.build(),
        modules=[PositionalCopy(first), MappingCopy(second)],
        schedule=schedule,
        environment=AwkwardRamp(),
    )


def test_awkward_names_construct_run_and_match_the_generic_loop():
    run = build_awkward_run()
    compile(run.dispatch_source(), "<awkward dispatch>", "exec")
    result = run.run(20)
    assert result.traces[MIDDLE][3] == (4 * 7) ^ 0x0F0F
    assert_paths_agree(build_awkward_run, 50)


# ---------------------------------------------------------------------------
# The generated source for the paper's system
# ---------------------------------------------------------------------------


# One literal block per module; the slot functions list them in
# dispatch order, with CALC (the background task) last.

CLOCK = """\
    # 'CLOCK'
    out = m0.activate_values(values['ms_slot_nbr'], now_ms)
    try:
        [o0, o1] = out
    except (TypeError, ValueError):
        raise m0.bad_values_error(out) from None
    if o0 is not None:
        values['mscnt'] = o0 & 0xffff
    if o1 is not None:
        values['ms_slot_nbr'] = o1 & 0xffff
"""

DIST_S = """\
    # 'DIST_S'
    out = m1.activate_values(values['PACNT'], values['TIC1'], values['TCNT'], now_ms)
    try:
        [o0, o1, o2] = out
    except (TypeError, ValueError):
        raise m1.bad_values_error(out) from None
    if o0 is not None:
        values['pulscnt'] = o0 & 0xffff
    if o1 is not None:
        values['slow_speed'] = o1 & 0xffff
    if o2 is not None:
        values['stopped'] = o2 & 0xffff
"""

PRES_S = """\
    # 'PRES_S'
    out = m2.activate_values(values['ADC'], now_ms)
    try:
        [o0] = out
    except (TypeError, ValueError):
        raise m2.bad_values_error(out) from None
    if o0 is not None:
        values['InValue'] = o0 & 0xffff
"""

CALC = """\
    # 'CALC'
    out = m3.activate_values(values['i'], values['mscnt'], values['pulscnt'], \
values['slow_speed'], values['stopped'], now_ms)
    try:
        [o0, o1] = out
    except (TypeError, ValueError):
        raise m3.bad_values_error(out) from None
    if o0 is not None:
        values['i'] = o0 & 0xffff
    if o1 is not None:
        values['SetValue'] = o1 & 0xffff
"""

V_REG = """\
    # 'V_REG'
    out = m4.activate_values(values['SetValue'], values['InValue'], now_ms)
    try:
        [o0] = out
    except (TypeError, ValueError):
        raise m4.bad_values_error(out) from None
    if o0 is not None:
        values['OutValue'] = o0 & 0xffff
"""

PRES_A = """\
    # 'PRES_A'
    out = m5.activate_values(values['OutValue'], now_ms)
    try:
        [o0] = out
    except (TypeError, ValueError):
        raise m5.bad_values_error(out) from None
    if o0 is not None:
        values['TOC2'] = o0 & 0xffff
"""

ARRESTMENT_DISPATCH = (
    "# slot(s) 0, 2, 4, 6\n"
    "def dispatch_0(values, now_ms):\n" + CLOCK + DIST_S + CALC + "\n"
    "# slot(s) 1\n"
    "def dispatch_1(values, now_ms):\n" + CLOCK + DIST_S + PRES_S + CALC + "\n"
    "# slot(s) 3\n"
    "def dispatch_2(values, now_ms):\n" + CLOCK + DIST_S + V_REG + CALC + "\n"
    "# slot(s) 5\n"
    "def dispatch_3(values, now_ms):\n" + CLOCK + DIST_S + PRES_A + CALC
)


def test_arrestment_dispatch_source_is_pinned():
    assert build_arrestment_run().dispatch_source() == ARRESTMENT_DISPATCH


def test_mapping_module_dispatch_source():
    # Modules without activate_values get a literal inputs mapping and
    # keep the undeclared-output check.
    run = build_awkward_run()
    assert run.dispatch_source().splitlines()[-6:] == [
        f"    # {SECOND!r}",
        f"    for signal, value in m1.activate({{{MIDDLE!r}: values[{MIDDLE!r}]}}, "
        "now_ms).items():",
        "        try:",
        "            values[signal] = value & k1[signal]",
        "        except KeyError:",
        f"            raise undeclared_output({SECOND!r}, signal) from None",
    ]
