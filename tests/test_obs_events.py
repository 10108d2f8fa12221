"""Unit tests for the typed event stream, sinks and manifests."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.golden_run import GoldenRunComparison
from repro.injection.outcomes import InjectionOutcome
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    CampaignAborted,
    CampaignFinished,
    CampaignStarted,
    ChunkCompleted,
    EventStream,
    JsonlSink,
    MultiSink,
    PrettyPrintSink,
    RingBufferSink,
    RunFinished,
    RunStarted,
    build_manifest,
    decode_event,
    encode_event,
    read_events,
    validate_events,
)

from tests.conftest import build_toy_model, toy_factory


def sample_outcome() -> InjectionOutcome:
    return InjectionOutcome(
        case_id="case00",
        module="FILT",
        input_signal="src",
        scheduled_time_ms=100,
        fired_at_ms=100,
        error_model="bitflip[9]",
        comparison=GoldenRunComparison(
            case_id="case00",
            first_divergence_ms={"src": None, "filt": 100, "out": 100},
        ),
        reconverged_at_ms=300,
        frames_fast_forwarded=200,
    )


def sample_outcome_event(cached: bool = False) -> RunFinished:
    return RunFinished(outcome=sample_outcome().to_jsonable(), cached=cached)


class TestEnvelope:
    def test_encode_decode_round_trip(self):
        event = sample_outcome_event(cached=True)
        record = encode_event(event, seq=7, ts=123.5)
        assert record["v"] == EVENT_SCHEMA_VERSION
        assert record["type"] == "RunFinished"
        parsed = decode_event(json.loads(json.dumps(record)))
        assert parsed.seq == 7
        assert parsed.ts == 123.5
        assert parsed.event == event
        assert parsed.event.cached is True

    def test_run_finished_carries_the_outcome_record(self):
        """The payload is the store's codec; ``cached`` sits beside it."""
        outcome = sample_outcome()
        record = encode_event(sample_outcome_event(), seq=0, ts=0.0)
        assert record["data"] == {
            "outcome": outcome.to_jsonable(),
            "cached": False,
        }
        parsed = decode_event(json.loads(json.dumps(record)))
        assert InjectionOutcome.from_jsonable(parsed.event.outcome) == outcome

    def test_rejects_v1_envelope(self):
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["v"] = 1
        with pytest.raises(ValueError, match="schema version 1"):
            decode_event(record)

    def test_campaign_aborted_round_trip(self):
        event = CampaignAborted(reason="CampaignError: lint found 1 error")
        parsed = decode_event(encode_event(event, seq=3, ts=1.0))
        assert parsed.event == event

    def test_rejects_unregistered_event(self):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            x: int

        with pytest.raises(TypeError):
            encode_event(Rogue(1), seq=0, ts=0.0)

    def test_rejects_future_schema_version(self):
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["v"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            decode_event(record)

    def test_rejects_unknown_type(self):
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["type"] = "MysteryEvent"
        with pytest.raises(ValueError, match="unknown event type"):
            decode_event(record)

    def test_rejects_unknown_fields(self):
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["data"]["surprise"] = 1
        with pytest.raises(ValueError, match="unexpected fields"):
            decode_event(record)

    def test_rejects_missing_fields(self):
        record = encode_event(sample_outcome_event(), seq=0, ts=0.0)
        del record["data"]["cached"]
        with pytest.raises(ValueError, match="RunFinished"):
            decode_event(record)

    def test_rejects_removed_per_run_fields(self):
        """A v1 golden ``RunStarted`` payload no longer decodes."""
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["data"]["kind"] = "golden"
        with pytest.raises(ValueError, match="unexpected fields \\['kind'\\]"):
            decode_event(record)


class TestSinks:
    def test_jsonl_sink_and_read_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = EventStream(JsonlSink(path))
        stream.emit(RunStarted("case00"))
        stream.emit(sample_outcome_event())
        stream.close()
        events = list(read_events(path))
        assert [parsed.type_name for parsed in events] == [
            "RunStarted", "RunFinished",
        ]
        assert [parsed.seq for parsed in events] == [0, 1]
        assert validate_events(path) == 2

    def test_read_events_reports_line_numbers(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(
                {"v": EVENT_SCHEMA_VERSION, "seq": 0, "ts": 0, "type": "Nope", "data": {}}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="events.jsonl:1"):
            list(read_events(path))

    def test_validate_rejects_drifted_payload(self, tmp_path):
        record = encode_event(RunStarted("c"), seq=0, ts=0.0)
        record["extra_envelope_key"] = True  # writer/parser drift
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="round-trip mismatch"):
            validate_events(path)

    def test_ring_buffer_keeps_last_n(self):
        sink = RingBufferSink(capacity=2)
        stream = EventStream(sink)
        for index in range(4):
            stream.emit(RunStarted(f"case{index:02d}"))
        assert [record["seq"] for record in sink.records] == [2, 3]
        assert [parsed.event.case_id for parsed in sink.events()] == [
            "case02", "case03",
        ]

    def test_ring_buffer_unbounded(self):
        sink = RingBufferSink(capacity=None)
        stream = EventStream(sink)
        for index in range(2000):
            stream.emit(RunStarted(f"case{index}"))
        assert len(sink.records) == 2000

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_pretty_sink_narrates_campaign_events(self):
        buffer = io.StringIO()
        stream = EventStream(PrettyPrintSink(stream=buffer))
        stream.emit(
            CampaignStarted(
                manifest={}, total_runs=8, n_cases=1, n_targets=2,
                runs_per_target=4, mode="serial",
            )
        )
        stream.emit(RunStarted("case00"))  # not narrated
        stream.emit(CampaignFinished(n_runs=8, n_fired=8, elapsed_s=1.0))
        text = buffer.getvalue()
        assert "campaign started: 8 runs" in text
        assert "campaign finished: 8 runs" in text
        assert "RunStarted" not in text

    def test_multi_sink_fans_out(self, tmp_path):
        ring = RingBufferSink()
        path = tmp_path / "events.jsonl"
        stream = EventStream(MultiSink(JsonlSink(path), ring))
        stream.emit(ChunkCompleted(0, "case00", 2, 8, 0.5))
        stream.close()
        assert len(ring.records) == 1
        assert validate_events(path) == 1


class TestManifest:
    def build_campaign(self, seed=2001) -> InjectionCampaign:
        config = CampaignConfig(
            duration_ms=64,
            injection_times_ms=(16, 32),
            error_models=tuple(bit_flip_models(2)),
            seed=seed,
        )
        return InjectionCampaign(build_toy_model(), toy_factory, ["c"], config)

    def test_manifest_identity_fields(self):
        manifest = build_manifest(self.build_campaign())
        assert manifest.schema_version == EVENT_SCHEMA_VERSION
        assert manifest.seed == 2001
        assert manifest.n_cases == 1
        assert manifest.n_targets == 2  # FILT.src and AMP.filt
        assert manifest.total_runs == 2 * 2 * 2
        assert manifest.injection_times_ms == (16, 32)
        assert manifest.host["python"]
        data = manifest.to_dict()
        round_tripped = json.loads(json.dumps(data))
        assert round_tripped == {**data, "injection_times_ms": [16, 32]}

    def test_config_hash_tracks_the_grid(self):
        base = build_manifest(self.build_campaign())
        same = build_manifest(self.build_campaign())
        other = build_manifest(self.build_campaign(seed=7))
        assert base.config_hash == same.config_hash
        assert base.config_hash != other.config_hash
