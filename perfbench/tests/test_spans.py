"""Self-time arithmetic of the tracer on synthetic span trees."""

import pytest

from perfbench.report import layer_budget
from perfbench.spans import Span, Tracer, self_times, tail_percentile


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, None, None, "root", 0.0, 10.0),
        Span(2, 1, None, "a", 1.0, 4.0),
        Span(3, 2, None, "b", 2.0, 3.0),
        Span(4, 1, None, "c", 5.0, 9.0),
        # Overlaps its sibling: covered time is merged, not added.
        Span(5, 4, None, "d", 6.0, 8.0),
        Span(6, 4, None, "e", 7.0, 8.5),
        # Sticks out of its parent: only the inside part is covered.
        Span(7, 2, None, "f", 3.5, 4.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx(
        {1: 3.0, 2: 1.5, 3: 1.0, 4: 1.5, 5: 2.0, 6: 1.5, 7: 1.0}
    )


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_online_self_time_matches_offline_arithmetic():
    # root [0, 20]: run [1, 15] holding two restores and two folded
    # steps, then grc [16, 18] outside the run.
    clock = FakeClock([0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 16, 18, 20])
    tracer = Tracer(folded=("step",), run_names=("run",), clock=clock)
    root = tracer.enter("root")
    run = tracer.enter("run")
    restore = tracer.enter("restore")
    tracer.exit(restore)  # 2..3
    step = tracer.enter("step")
    tracer.exit(step)  # 4..6
    step = tracer.enter("step")
    tracer.exit(step)  # 7..9
    tracer.count("frames", 2)
    inner = tracer.enter("restore")
    tracer.exit(inner)  # 10..12
    tracer.exit(run)  # 1..15
    grc = tracer.enter("grc")
    tracer.exit(grc)  # 16..18
    tracer.exit(root)  # 0..20

    assert [s.name for s in tracer.spans] == [
        "restore", "restore", "run", "grc", "root"
    ]
    assert tracer.totals["step"] == [2, 4, 4]
    assert tracer.totals["run"] == [1, 14, 7]
    recorded = {s.span_id: s for s in tracer.spans}
    offline = self_times(tracer.spans)
    run_span = next(s for s in tracer.spans if s.name == "run")
    # Offline arithmetic does not see folded steps; the tracer does.
    assert tracer.totals["run"][2] == pytest.approx(offline[run_span.span_id] - 4)
    root_span = next(s for s in tracer.spans if s.name == "root")
    assert tracer.totals["root"][2] == pytest.approx(offline[root_span.span_id])
    # Every span of the run, and the GRC after it, share the run's id.
    assert {s.run_id for s in tracer.spans if s.name != "root"} == {
        run_span.span_id
    }
    assert recorded[root_span.span_id].run_id is None
    # Self times of all spans add up to the root's duration.
    total_self = sum(own for _, _, own in tracer.totals.values())
    assert total_self == pytest.approx(root_span.duration)


def test_layer_budget_rows_sum_to_wall():
    dump = {
        "totals": {
            "bench.workload": [1, 10.0, 0.5],
            "runtime.ir_run": [3, 8.0, 2.0],
            "runtime.step": [100, 5.0, 4.0],
            "arrestment.plant": [200, 1.0, 1.0],
            "injection.grc": [3, 1.5, 1.5],
            "core.tables": [4, 1.0, 1.0],
        }
    }
    rows, unattributed, wall = layer_budget(dump)
    assert rows["runtime"] == 6.0
    assert rows["arrestment"] == 1.0
    assert sum(rows.values()) + unattributed == pytest.approx(wall)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([1.0] * 19) is None
    pct, value = tail_percentile([float(i) for i in range(200)])
    assert pct == 90.0 and value == 180.0
    pct, _ = tail_percentile([float(i) for i in range(2000)])
    assert pct == 99.0
