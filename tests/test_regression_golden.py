"""Golden-run regression guard.

The whole experimental pipeline is deterministic; these checksums pin
the nominal Golden Run bit-for-bit.  If a change to the plant, the
modules or the runtime alters them, every permeability estimate in
EXPERIMENTS.md changes with it — re-baseline deliberately, never
accidentally: update the constants below *and* regenerate the
benchmark artefacts in the same change.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import pytest

from repro.arrestment import build_arrestment_run
from repro.arrestment.testcases import ArrestmentTestCase, reduced_test_cases
from repro.arrestment.twonode import build_twonode_run

NOMINAL = ArrestmentTestCase(14000, 60)

#: crc32 over ``str(trace.samples)`` of a 6000 ms nominal Golden Run.
EXPECTED_SINGLE_NODE = {
    "TOC2": 1473781555,
    "SetValue": 1331947465,
    "pulscnt": 921091045,
}
EXPECTED_TWONODE_TOC2S = 3676318770

#: Per-case pins of an 8000 ms Golden Run: every traced signal's
#: checksum, the exact telemetry and the plant's final state.
PINS_PATH = Path(__file__).parent / "data" / "arrestment_golden_pins.json"
PIN_DURATION_MS = 8000


def checksum(samples) -> int:
    # Normalise to a plain list so the checksum is independent of the
    # trace storage type (list then, array('q') now).
    return zlib.crc32(str(list(samples)).encode())


def _exact(value):
    """``value`` with every float replaced by its ``repr`` (exact bits)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def golden_pins(case: ArrestmentTestCase) -> dict:
    """The pinned facts of one case's 8000 ms Golden Run.

    Regenerate ``PINS_PATH`` (``json.dumps(..., indent=2, sort_keys=True)``
    of ``{case_id: golden_pins(case)}`` over ``reduced_test_cases()``)
    only when a change is meant to alter the plant's physics.
    """
    runner = build_arrestment_run(case)
    result = runner.run(PIN_DURATION_MS)
    return {
        "traces": {
            trace.signal: checksum(trace.samples) for trace in result.traces
        },
        "telemetry": _exact(result.telemetry),
        "plant_state": _exact(runner.environment.state_dict()),
    }


@pytest.mark.parametrize("case_id", sorted(reduced_test_cases()))
def test_plant_float_path_is_pinned_bit_for_bit(case_id):
    expected = json.loads(PINS_PATH.read_text())[case_id]
    assert len(expected["traces"]) == 14
    assert golden_pins(reduced_test_cases()[case_id]) == expected, (
        f"the {case_id} Golden Run changed — re-baseline EXPERIMENTS.md "
        "and the benchmark artefacts along with the pins"
    )


class TestGoldenRunChecksums:
    @pytest.fixture(scope="class")
    def golden(self):
        return build_arrestment_run(NOMINAL).run(6000)

    @pytest.mark.parametrize("signal", sorted(EXPECTED_SINGLE_NODE))
    def test_single_node_traces(self, golden, signal):
        assert checksum(golden.traces[signal].samples) == EXPECTED_SINGLE_NODE[
            signal
        ], (
            f"the {signal} Golden Run changed — re-baseline EXPERIMENTS.md "
            "and the benchmark artefacts along with this constant"
        )

    def test_twonode_slave_trace(self):
        result = build_twonode_run(NOMINAL).run(6000)
        assert checksum(result.traces["TOC2S"].samples) == EXPECTED_TWONODE_TOC2S

    def test_repeatability_within_session(self, golden):
        again = build_arrestment_run(NOMINAL).run(6000)
        assert again.traces["TOC2"].samples == golden.traces["TOC2"].samples
