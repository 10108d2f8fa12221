"""Integration: campaigns under observation, summaries and the obs CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main, make_progress_printer
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.obs import CampaignObserver
from repro.obs.events import (
    CampaignFinished,
    CampaignStarted,
    read_events,
    validate_events,
)
from repro.obs.summary import render_summary, summarize_events

from tests.conftest import build_toy_model, toy_factory


def build_campaign(observer=None, times=(16, 32), bits=4) -> InjectionCampaign:
    config = CampaignConfig(
        duration_ms=64,
        injection_times_ms=tuple(times),
        error_models=tuple(bit_flip_models(bits)),
        seed=2001,
    )
    return InjectionCampaign(
        build_toy_model(), toy_factory, ["c"], config, observer=observer
    )


class TestSerialObservation:
    def test_events_metrics_and_propagation(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=events_path, system=build_toy_model()
        )
        campaign = build_campaign(observer)
        result = campaign.execute()
        observer.close()

        n_events = validate_events(events_path)
        events = list(read_events(events_path))
        assert n_events == len(events)
        assert isinstance(events[0].event, CampaignStarted)
        assert isinstance(events[-1].event, CampaignFinished)
        assert events[-1].event.n_runs == len(result) == 16
        assert [parsed.seq for parsed in events] == list(range(n_events))

        metrics = observer.metrics
        assert metrics.counter("outcomes.total").value == 16
        assert metrics.counter("runs.golden").value == 1
        assert metrics.counter("runs.injection").value == 16
        assert metrics.counter("checkpoint.reused").value == 16
        assert metrics.histogram("phase.golden_run.seconds").count == 1
        assert metrics.histogram("phase.injection_run.seconds").count == 16
        assert metrics.histogram("phase.comparison.seconds").count == 16
        assert metrics.histogram("checkpoint.save.seconds").count == 2
        assert metrics.histogram("checkpoint.restore.seconds").count == 16

        # Live propagation fold agrees with the post-hoc estimator.
        observed = observer.propagation.to_matrix()
        assert observed.to_jsonable() == estimate_matrix(result).to_jsonable()

    def test_unobserved_campaign_has_no_observer(self):
        campaign = build_campaign()
        assert campaign.observer is None
        assert len(campaign.execute()) == 16


class TestParallelObservation:
    def test_parallel_matches_serial(self, tmp_path):
        serial_obs = CampaignObserver.to_files(system=build_toy_model())
        serial = build_campaign(serial_obs).execute()

        events_path = tmp_path / "events.jsonl"
        parallel_obs = CampaignObserver.to_files(
            events_path=events_path, system=build_toy_model()
        )
        parallel = build_campaign(parallel_obs).execute_parallel(
            max_workers=2
        )
        parallel_obs.close()

        # Outcome parity between the two paths, as without observation.
        assert [
            (o.module, o.input_signal, o.scheduled_time_ms, o.error_model)
            for o in parallel
        ] == [
            (o.module, o.input_signal, o.scheduled_time_ms, o.error_model)
            for o in serial
        ]
        # Merged worker metrics equal the serial per-IR tallies.
        parallel_metrics = parallel_obs.metrics
        assert parallel_metrics.counter("outcomes.total").value == 16
        assert (
            parallel_metrics.histogram("phase.injection_run.seconds").count == 16
        )
        assert parallel_metrics.counter("chunk.completed").value == 8
        # Propagation folds agree exactly across execution modes.
        assert (
            parallel_obs.propagation.to_matrix().to_jsonable()
            == serial_obs.propagation.to_matrix().to_jsonable()
        )

        validate_events(events_path)
        events = list(read_events(events_path))
        assert events[0].event.mode == "parallel"
        chunk_events = [
            parsed for parsed in events
            if parsed.type_name == "ChunkCompleted"
        ]
        assert len(chunk_events) == 8


class TestSummary:
    def test_summarize_round_trip(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=events_path, system=build_toy_model()
        )
        build_campaign(observer).execute()
        observer.close()

        summary = summarize_events(read_events(events_path))
        assert summary.total_runs == 16
        assert sum(summary.outcome_mix.values()) == 16
        assert summary.elapsed_s is not None
        # Arc denominators equal injections at the arc's location.
        for (module, signal, _output), n in summary.arc_injections.items():
            expected = 8  # 2 times x 4 bit positions per target
            assert n == expected, (module, signal)

        text = render_summary(summary)
        assert "Campaign manifest" in text
        assert "Outcome mix" in text
        assert "Phase breakdown" in text
        assert "Hottest observed propagation arcs" in text
        # AMP is the identity: its arc propagates on every fired run.
        assert "AMP.filt -> out" in text


class TestProgressPrinter:
    def test_prints_progress_and_final_line(self):
        stream = io.StringIO()
        callback = make_progress_printer(interval_s=0.0, stream=stream)
        for done in (1, 8, 16):
            callback(done, 16)
        text = stream.getvalue()
        assert "1/16 (6%" in text
        assert "16/16 (100%" in text
        assert "ETA" in text

    def test_rate_limit_suppresses_intermediate_lines(self):
        stream = io.StringIO()
        callback = make_progress_printer(interval_s=3600.0, stream=stream)
        callback(1, 16)     # always printed (first call)
        callback(2, 16)     # suppressed: inside the interval
        callback(16, 16)    # always printed (final)
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 2

    def test_phase_suffix_from_metrics(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("phase.golden_run.seconds").observe(1.0)
        stream = io.StringIO()
        callback = make_progress_printer(
            interval_s=0.0, stream=stream, metrics=registry
        )
        callback(16, 16)
        assert "GR 1.0s" in stream.getvalue()


class TestObsCli:
    @pytest.fixture()
    def events_file(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=events_path, system=build_toy_model()
        )
        build_campaign(observer).execute()
        observer.close()
        return events_path

    def test_obs_validate(self, events_file, capsys):
        assert main(["obs", "validate", str(events_file)]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_obs_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 99, "seq": 0, "ts": 0, "type": "X", "data": {}}\n')
        assert main(["obs", "validate", str(bad)]) == 1
        assert "schema version" in capsys.readouterr().err

    def test_obs_summarize(self, events_file, capsys):
        assert main(["obs", "summarize", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "Campaign manifest" in out
        assert "Outcome mix" in out

    def test_obs_summarize_with_metrics_file(
        self, events_file, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        metrics_path.write_text(
            json.dumps(
                {
                    "phase.golden_run.seconds": {
                        "type": "histogram",
                        "buckets": [1.0],
                        "counts": [1, 0],
                        "sum": 0.5,
                        "count": 1,
                        "min": 0.5,
                        "max": 0.5,
                    }
                }
            )
        )
        code = main(
            ["obs", "summarize", str(events_file), "--metrics", str(metrics_path)]
        )
        assert code == 0
        assert "Golden Run" in capsys.readouterr().out
