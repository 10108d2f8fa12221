"""The live dashboard: reducer parity, sink/server plumbing, CLI.

The core contract is exact parity between the pure event-stream
reducer and the post-hoc analyses: replaying a recorded
``events.jsonl`` through :class:`CampaignStateReducer` must reproduce
``estimate_matrix(result).to_jsonable()``, the
:func:`~repro.injection.latency.lifetime_statistics` fields and the
:class:`~repro.injection.outcomes.CampaignResult` counters — for
serial and parallel campaigns, under the reference and (when numpy is
available) batched backends.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.injection.latency import lifetime_statistics
from repro.obs import CampaignObserver
from repro.obs.dash import (
    CampaignStateReducer,
    DashboardServer,
    DashboardSink,
    tail_lines,
    validate_snapshot,
)
from repro.obs.events import RingBufferSink, read_events
from repro.obs.summary import render_summary, summarize_events
from repro.simulation.backend import available_backends

from tests.conftest import build_toy_model, toy_factory

TOY_CONFIG = CampaignConfig(
    duration_ms=48,
    injection_times_ms=(16, 32),
    error_models=tuple(bit_flip_models(4)),
    seed=7,
)

BACKENDS = [
    pytest.param(name, marks=())
    if name == "reference"
    else pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in available_backends(), reason=f"{name} unavailable"
        ),
    )
    for name in ("reference", "batched")
]


def _run_recorded(tmp_path, *, workers=1, backend="reference"):
    """Run the toy campaign with a recording observer; return
    ``(result, events_path)``."""
    events_path = tmp_path / "events.jsonl"
    system = build_toy_model()
    config = dataclasses.replace(TOY_CONFIG, backend=backend)
    observer = CampaignObserver.to_files(
        events_path=str(events_path), with_metrics=True, system=system
    )
    campaign = InjectionCampaign(
        system, toy_factory, {"ramp": None}, config, observer=observer
    )
    if workers > 1:
        result = campaign.execute_parallel(max_workers=workers)
    else:
        result = campaign.execute()
    observer.close()
    return result, events_path


def _assert_parity(result, events_path):
    """The full reducer-vs-post-hoc parity contract on one stream."""
    reducer = CampaignStateReducer.from_events_file(events_path)
    # Matrix: exactly estimate_matrix, same order, same counts.
    assert reducer.matrix_jsonable() == estimate_matrix(result).to_jsonable()
    # Lifetimes: field-for-field the latency module's statistics.
    expected = {
        key: dataclasses.asdict(value)
        for key, value in lifetime_statistics(result).items()
    }
    assert reducer.lifetime_statistics() == expected
    # Run counters: the CampaignResult's view.
    snapshot = reducer.snapshot()
    counters = snapshot["counters"]
    assert counters["n_runs"] == len(result)
    assert counters["n_fired"] == result.n_fired()
    assert counters["n_reconverged"] == result.n_reconverged()
    assert counters["reconverged_fraction"] == pytest.approx(
        result.reconverged_fraction()
    )
    assert (
        counters["frames_fast_forwarded"]
        == result.frames_fast_forwarded_total()
    )
    assert snapshot["state"] == "finished"
    assert snapshot["progress"]["done"] == snapshot["progress"]["total"]
    validate_snapshot(snapshot)
    return reducer


class TestReducerParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serial(self, tmp_path, backend):
        result, events_path = _run_recorded(tmp_path, backend=backend)
        _assert_parity(result, events_path)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel(self, tmp_path, backend):
        result, events_path = _run_recorded(
            tmp_path, workers=2, backend=backend
        )
        _assert_parity(result, events_path)

    def test_arrestment(self, tmp_path):
        from repro.arrestment import (
            build_arrestment_model,
            build_arrestment_run,
            reduced_test_cases,
        )

        events_path = tmp_path / "events.jsonl"
        system = build_arrestment_model()
        config = CampaignConfig(
            duration_ms=5600,
            injection_times_ms=(500, 5000),
            error_models=tuple(bit_flip_models(2)),
            seed=2001,
        )
        observer = CampaignObserver.to_files(
            events_path=str(events_path), with_metrics=True, system=system
        )
        campaign = InjectionCampaign(
            system,
            build_arrestment_run,
            reduced_test_cases(1),
            config,
            observer=observer,
        )
        result = campaign.execute()
        observer.close()
        _assert_parity(result, events_path)

    def test_generated_system(self, tmp_path):
        from repro.verify import default_campaign, generate_system

        generated = generate_system(11)
        config = default_campaign(generated).to_config(
            reuse=True, fast_forward=True
        )
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(
            events_path=str(events_path),
            with_metrics=True,
            system=generated.system,
        )
        campaign = InjectionCampaign(
            generated.system,
            generated.run_factory,
            {"gen": None},
            config,
            observer=observer,
        )
        result = campaign.execute()
        observer.close()
        _assert_parity(result, events_path)

    def test_lifetime_histogram_matches_metrics(self, tmp_path):
        """The reducer's lifetime buckets mirror ``ff.error_lifetime.ms``."""
        _result, events_path = _run_recorded(tmp_path)
        reducer = CampaignStateReducer.from_events_file(events_path)
        snapshot = reducer.snapshot()
        recorded = reducer.metrics.get("ff.error_lifetime.ms")
        if recorded is None:
            pytest.skip("no lifetimes observed")
        assert snapshot["lifetimes"]["buckets"] == list(recorded["buckets"])
        assert snapshot["lifetimes"]["counts"] == list(recorded["counts"])


class TestReducerRobustness:
    def test_truncated_stream_snapshot(self, tmp_path):
        """A stream cut mid-line still yields a valid running snapshot."""
        _result, events_path = _run_recorded(tmp_path)
        lines = events_path.read_text(encoding="utf-8").splitlines()
        # Drop CampaignFinished, tear the last surviving line in half.
        kept, torn = lines[: len(lines) // 2], lines[len(lines) // 2]
        reducer = CampaignStateReducer()
        for line in kept:
            assert reducer.feed_line(line) is not None
        assert reducer.feed_line(torn[: len(torn) // 2]) is None
        assert reducer.skipped_lines == 1
        snapshot = reducer.snapshot()
        assert snapshot["state"] == "running"
        assert snapshot["stream"]["skipped_lines"] == 1
        validate_snapshot(snapshot)

    def test_blank_and_garbage_lines(self):
        reducer = CampaignStateReducer()
        assert reducer.feed_line("") is None
        assert reducer.feed_line("   ") is None
        assert reducer.feed_line("{not json") is None
        assert reducer.feed_line('{"v": 99, "nope": true}') is None
        assert reducer.skipped_lines == 2
        validate_snapshot(reducer.snapshot())

    def test_empty_reducer_snapshot(self):
        snapshot = CampaignStateReducer().snapshot()
        assert snapshot["state"] == "empty"
        assert snapshot["matrix"]["entries"] == []
        validate_snapshot(snapshot)

    def test_mid_stream_snapshots_stay_valid(self, tmp_path):
        """Every prefix of a real stream validates (the live case)."""
        _result, events_path = _run_recorded(tmp_path)
        reducer = CampaignStateReducer()
        for parsed in read_events(events_path):
            reducer.feed_parsed(parsed)
            validate_snapshot(reducer.snapshot())
        assert reducer.snapshot()["state"] == "finished"


class TestDashboardSink:
    def test_subscribe_replays_then_tails(self, tmp_path):
        _result, events_path = _run_recorded(tmp_path)
        records = [
            json.loads(line)
            for line in events_path.read_text(encoding="utf-8").splitlines()
        ]
        sink = DashboardSink()
        for record in records[:5]:
            sink.emit(record)
        history, live = sink.subscribe()
        assert len(history) == 5
        for record in records[5:]:
            sink.emit(record)
        sink.close()
        tailed = []
        while True:
            item = live.get(timeout=1)
            if item is None:
                break
            tailed.append(item)
        assert history + tailed == records
        validate_snapshot(sink.snapshot())

    def test_emit_line_counts_damage(self):
        sink = DashboardSink()
        sink.emit_line("{torn")
        sink.emit_line('"a bare string"')
        sink.emit_line("")
        assert sink.snapshot()["stream"]["skipped_lines"] == 2

    def test_subscribe_after_close_ends_immediately(self):
        sink = DashboardSink()
        sink.close()
        history, live = sink.subscribe()
        assert history == []
        assert live.get(timeout=1) is None

    def test_malformed_record_does_not_raise(self):
        sink = DashboardSink()
        sink.emit({"v": 1, "seq": 0, "ts": 0.0, "type": "NoSuchEvent", "data": {}})
        assert sink.snapshot()["stream"]["skipped_lines"] == 1


class TestDashboardServer:
    @pytest.fixture()
    def served(self, tmp_path):
        _result, events_path = _run_recorded(tmp_path)
        sink = DashboardSink()
        for line in tail_lines(events_path):
            sink.emit_line(line)
        sink.close()
        with DashboardServer(sink) as server:
            yield server

    def test_snapshot_endpoint(self, served):
        raw = urllib.request.urlopen(served.url + "/api/snapshot").read()
        snapshot = json.loads(raw)
        validate_snapshot(snapshot)
        assert snapshot["state"] == "finished"
        assert snapshot["matrix"]["entries"]

    def test_index_page(self, served):
        html = urllib.request.urlopen(served.url + "/").read().decode("utf-8")
        assert "/api/snapshot" in html and "/api/events" in html
        assert "<title>" in html

    def test_unknown_path_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served.url + "/nope")
        assert excinfo.value.code == 404

    def test_sse_replays_whole_stream_then_ends(self, served, tmp_path):
        response = urllib.request.urlopen(
            served.url + "/api/events", timeout=10
        )
        n_data = 0
        ended = False
        for raw in response:
            if raw.startswith(b"event: end"):
                # the end frame's own data line follows; stop counting
                ended = True
                break
            if raw.startswith(b"data:"):
                n_data += 1
        events_file = tmp_path / "events.jsonl"
        with open(events_file, encoding="utf-8") as handle:
            n_recorded = sum(1 for _ in handle)
        assert ended
        assert n_data == n_recorded

    def test_live_subscriber_sees_new_events(self, tmp_path):
        _result, events_path = _run_recorded(tmp_path)
        records = [
            json.loads(line)
            for line in events_path.read_text(encoding="utf-8").splitlines()
        ]
        sink = DashboardSink()
        with DashboardServer(sink) as server:
            got = []

            def consume():
                response = urllib.request.urlopen(
                    server.url + "/api/events", timeout=10
                )
                for raw in response:
                    if raw.startswith(b"event: end"):
                        # its own data line follows; stop before it
                        break
                    if raw.startswith(b"data:"):
                        got.append(json.loads(raw[len(b"data:"):]))

            consumer = threading.Thread(target=consume)
            consumer.start()
            for record in records:
                sink.emit(record)
            sink.close()
            consumer.join(timeout=10)
            assert not consumer.is_alive()
        assert got == records


class TestLiveFold:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_live_sink_serves_the_observer_fold_once(self, monkeypatch, workers):
        """A live campaign folds each event once: the observer's fold,
        which the dashboard serves, and no second one in the sink."""
        folds = []
        feed_parsed = CampaignStateReducer.feed_parsed

        def counting(self, parsed):
            folds.append(self)
            feed_parsed(self, parsed)

        monkeypatch.setattr(CampaignStateReducer, "feed_parsed", counting)
        sink = DashboardSink()
        observer = CampaignObserver.to_files(events_path=None, extra_sinks=[sink])
        campaign = InjectionCampaign(
            build_toy_model(), toy_factory, {"ramp": None}, TOY_CONFIG,
            observer=observer,
        )
        if workers > 1:
            campaign.execute_parallel(max_workers=workers)
        else:
            campaign.execute()
        observer.close()
        history, _ = sink.subscribe()
        assert len(folds) == len(history) > 0
        assert all(reducer is observer.state for reducer in folds)

        live = sink.snapshot()
        replayed = CampaignStateReducer()
        for record in history:
            replayed.feed(record)
        assert live["stream"]["n_events"] == len(history)
        assert live["state"] == "finished"
        assert live["matrix"] == replayed.snapshot()["matrix"]
        validate_snapshot(live)


class TestRingBufferDrops:
    def test_dropped_counter(self):
        sink = RingBufferSink(capacity=3)
        for seq in range(8):
            sink.emit({"seq": seq})
        assert sink.dropped == 5
        assert len(sink.records) == 3

    def test_unbounded_never_drops(self):
        sink = RingBufferSink(capacity=None)
        for seq in range(2000):
            sink.emit({"seq": seq})
        assert sink.dropped == 0

    def test_observer_surfaces_drops_in_metrics(self):
        from repro.obs.events import EventStream
        from repro.obs.metrics import MetricsRegistry

        system = build_toy_model()
        observer = CampaignObserver(
            events=EventStream(RingBufferSink(capacity=4)),
            metrics=MetricsRegistry(),
        )
        campaign = InjectionCampaign(
            system, toy_factory, {"ramp": None}, TOY_CONFIG, observer=observer
        )
        campaign.execute()
        observer.close()
        assert observer.dropped_events() > 0
        dropped = observer.metrics.to_dict()["events.dropped"]["value"]
        # the CampaignFinished emit itself may evict one more record
        # after the counter snapshot was embedded
        assert 0 < dropped <= observer.dropped_events()

    def test_summary_warns_about_drops(self, tmp_path):
        _result, events_path = _run_recorded(tmp_path)
        summary = summarize_events(read_events(events_path))
        summary.metrics["events.dropped"] = {"type": "counter", "value": 7}
        text = render_summary(summary)
        assert "WARNING: 7 event(s) were dropped" in text
        summary.metrics.pop("events.dropped")
        assert "WARNING" not in render_summary(summary)


class TestTailer:
    def test_reads_complete_and_partial_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("one\ntwo\npartial", encoding="utf-8")
        assert list(tail_lines(path)) == ["one", "two", "partial"]

    def test_follow_picks_up_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("first\n", encoding="utf-8")
        got = []
        done = threading.Event()

        def consume():
            for line in tail_lines(
                path, follow=True, poll_interval_s=0.01, stop=done.is_set
            ):
                got.append(line)
                if line == "last":
                    done.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("second\nlast\n")
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert got == ["first", "second", "last"]


class TestCli:
    def test_dash_replay_and_exit(self, tmp_path, capsys):
        from repro.cli import main

        _result, events_path = _run_recorded(tmp_path)
        rc = main(
            [
                "dash",
                "--events",
                str(events_path),
                "--address",
                "127.0.0.1:0",
                "--linger",
                "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "served" in out and "event(s)" in out

    def test_dash_missing_file(self, tmp_path):
        from repro.cli import main

        rc = main(["dash", "--events", str(tmp_path / "nope.jsonl"),
                   "--address", "127.0.0.1:0", "--linger", "0"])
        assert rc == 2

    def test_dash_bad_address(self, tmp_path):
        from repro.cli import main

        _result, events_path = _run_recorded(tmp_path)
        rc = main(["dash", "--events", str(events_path),
                   "--address", "not-an-address", "--linger", "0"])
        assert rc == 2

    def test_obs_tail_filters_types(self, tmp_path, capsys):
        from repro.cli import main

        _result, events_path = _run_recorded(tmp_path)
        rc = main(
            [
                "obs",
                "tail",
                str(events_path),
                "--type",
                "CampaignStarted,CampaignFinished",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 2
        assert "campaign started" in lines[0]
        assert "campaign finished" in lines[1]

    def test_obs_tail_rejects_unknown_types(self, tmp_path, capsys):
        from repro.cli import main

        _result, events_path = _run_recorded(tmp_path)
        rc = main(
            ["obs", "tail", str(events_path), "--type", "RunFinished,InjectionFired"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown event type(s) InjectionFired" in captured.err
        assert "RunFinished" in captured.err.split("known types:")[1]

    def test_obs_tail_stops_at_another_schema_version(self, tmp_path, capsys):
        from repro.cli import main

        _result, events_path = _run_recorded(tmp_path)
        lines = events_path.read_text(encoding="utf-8").splitlines()
        stale = json.loads(lines[1])
        stale["v"] = 1
        lines[1] = json.dumps(stale)
        events_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["obs", "tail", str(events_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1  # the line before it
        assert "unsupported event schema version 1" in captured.err
        assert "damaged" not in captured.err

    def test_obs_tail_into_a_closed_pipe_exits_quietly(self, tmp_path):
        """``repro obs tail ... | head -1``: no traceback, exit 1 (EPIPE)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        _result, events_path = _run_recorded(tmp_path)
        lines = events_path.read_text(encoding="utf-8").splitlines(keepends=True)
        # Far more output than a pipe buffers, so the writer hits EPIPE.
        events_path.write_text("".join(lines * 200), encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "obs", "tail", str(events_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr, stderr

    def test_campaign_dash_flag(self, tmp_path, capsys):
        from repro.cli import main

        events_path = tmp_path / "events.jsonl"
        rc = main(
            [
                "campaign",
                "--cases", "1",
                "--times", "2",
                "--bits", "1",
                "--duration", "5600",
                "--events", str(events_path),
                "--dash", "127.0.0.1:0",
                "--dash-linger", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dashboard: http://127.0.0.1:" in out
        # The recorded stream replays into a finished snapshot.
        reducer = CampaignStateReducer.from_events_file(events_path)
        assert reducer.snapshot()["state"] == "finished"

    def test_parse_dash_address(self):
        from repro.cli import _parse_dash_address

        assert _parse_dash_address("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert _parse_dash_address(":9000") == ("127.0.0.1", 9000)
        assert _parse_dash_address("8765") == ("127.0.0.1", 8765)
        assert _parse_dash_address("0.0.0.0:0") == ("0.0.0.0", 0)
        assert _parse_dash_address("no-port") is None
        assert _parse_dash_address("host:badport") is None
        assert _parse_dash_address("host:99999") is None
