"""Unit tests for the static model linter (repro.lint).

Covers the diagnostics engine, every registered rule against a crafted
minimal topology, report filtering, the campaign lint gate and the
LintReported observability event.
"""

from __future__ import annotations

import pytest

from repro.arrestment.system import build_arrestment_model
from repro.core.permeability import PermeabilityMatrix
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.lint import (
    Diagnostic,
    LintReport,
    Severity,
    SourceLocation,
    lint_system,
    registered_rules,
)
from repro.model.builder import SystemBuilder
from repro.model.errors import CampaignError
from repro.model.examples import build_fig2_system, fig2_permeabilities
from repro.obs import CampaignObserver
from repro.obs.events import LintReported, decode_event, encode_event

from tests.conftest import assert_aborted_stream, build_toy_model, build_toy_run


# ---------------------------------------------------------------------------
# Diagnostics engine
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_severity_ordering_and_labels(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label == "error"
        assert Severity.from_label("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.from_label("fatal")

    def test_location_fully_qualified(self):
        loc = SourceLocation(module="CALC", signal="i", port="input")
        assert loc.fully_qualified() == "module:CALC/signal:i/port:input"
        assert SourceLocation().fully_qualified() == "system"
        assert SourceLocation(signal="x").to_dict() == {"signal": "x"}

    def test_diagnostic_render_includes_hint(self):
        diag = Diagnostic(
            code="R001",
            severity=Severity.ERROR,
            message="boom",
            location=SourceLocation(signal="x"),
            hint="fix it",
        )
        text = diag.render()
        assert "R001" in text and "boom" in text and "hint: fix it" in text

    def test_report_sorts_errors_first(self):
        report = LintReport(
            "s",
            [
                Diagnostic("R009", Severity.WARNING, "w"),
                Diagnostic("R001", Severity.ERROR, "e"),
            ],
        )
        assert [d.code for d in report] == ["R001", "R009"]
        assert report.has_errors
        assert report.worst() is Severity.ERROR
        assert report.codes() == ("R001", "R009")

    def test_report_filter_select_and_ignore(self):
        report = LintReport(
            "s",
            [
                Diagnostic("R001", Severity.ERROR, "e"),
                Diagnostic("R005", Severity.WARNING, "w"),
                Diagnostic("R009", Severity.WARNING, "w"),
            ],
        )
        assert report.filter(select=["R00"]).codes() == ("R001", "R005", "R009")
        assert report.filter(ignore=["R005"]).codes() == ("R001", "R009")
        assert report.filter(select=["R005", "R009"], ignore=["R009"]).codes() == (
            "R005",
        )

    def test_fails_at_threshold(self):
        warn_only = LintReport("s", [Diagnostic("R005", Severity.WARNING, "w")])
        assert not warn_only.fails_at(Severity.ERROR)
        assert warn_only.fails_at(Severity.WARNING)
        assert not LintReport("s").fails_at(Severity.INFO)

    def test_json_output_shape(self):
        report = LintReport("s", [Diagnostic("R001", Severity.ERROR, "e")])
        payload = report.to_jsonable()
        assert payload["system"] == "s"
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "R001"


# ---------------------------------------------------------------------------
# Reference systems
# ---------------------------------------------------------------------------


class TestReferenceSystems:
    def test_registry_is_complete(self):
        codes = [rule.code for rule in registered_rules()]
        assert codes == sorted(codes)
        assert codes == [f"R{n:03d}" for n in range(1, 15)]

    def test_arrestment_is_clean(self):
        report = lint_system(build_arrestment_model())
        assert len(report) == 0

    def test_fig2_is_clean(self):
        report = lint_system(build_fig2_system())
        assert len(report) == 0

    def test_fig2_matrix_flags_only_the_dead_pair(self):
        # The paper's Fig. 2 permeabilities set P(E: ext_e -> sys_out)
        # to 0.0 and E has a single output, so exactly one all-zero row
        # (and its mirror column) is expected — warnings, not errors.
        system = build_fig2_system()
        matrix = PermeabilityMatrix.from_dict(system, fig2_permeabilities())
        report = lint_system(system, matrix)
        assert not report.has_errors
        assert set(report.codes()) <= {"R009", "R010"}
        assert any(d.location.module == "E" for d in report)


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------


class TestStructuralRules:
    def test_r001_dangling_produced_signal(self):
        builder = SystemBuilder("b")
        builder.add_module("M", inputs=["ext"], outputs=["used", "orphan"])
        builder.add_module("N", inputs=["used"], outputs=["out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        report = lint_system(builder.build(validate=False))
        flagged = report.by_code("R001")
        assert [d.location.signal for d in flagged] == ["orphan"]
        assert flagged[0].severity is Severity.ERROR

    def test_r002_consumed_but_never_produced(self):
        builder = SystemBuilder("b")
        builder.add_module("M", inputs=["ghost"], outputs=["out"])
        builder.mark_system_output("out")
        report = lint_system(builder.build(validate=False))
        flagged = report.by_code("R002")
        assert [d.location.signal for d in flagged] == ["ghost"]

    def test_r003_boundary_problems(self):
        builder = SystemBuilder("b")
        builder.add_module("M", inputs=["ext"], outputs=["out"])
        builder.mark_system_input("ext", "out")  # 'out' produced internally
        builder.mark_system_output("out", "uot")  # 'uot' unknown
        report = lint_system(builder.build(validate=False))
        messages = " | ".join(d.message for d in report.by_code("R003"))
        assert "produced internally" in messages
        assert "'uot'" in messages
        # the unknown name gets a did-you-mean hint from the shared matcher
        hints = " | ".join(d.hint or "" for d in report.by_code("R003"))
        assert "did you mean 'out'?" in hints

    def test_r004_island_modules(self):
        # A two-module loop island is unreachable from the boundary.
        builder = SystemBuilder("b")
        builder.add_module("SRC", inputs=["ext"], outputs=["out"])
        builder.add_module("P", inputs=["q_out"], outputs=["p_out"])
        builder.add_module("Q", inputs=["p_out"], outputs=["q_out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        report = lint_system(builder.build(validate=False))
        assert {d.location.module for d in report.by_code("R004")} == {"P", "Q"}

    def test_r004_exempts_autonomous_clock_pattern(self):
        # The paper's CLOCK is driven purely by its own feedback signal;
        # it must not be flagged, and neither must its consumers.
        builder = SystemBuilder("b")
        builder.add_module("CLOCK", inputs=["slot"], outputs=["slot", "tick"])
        builder.add_module("USE", inputs=["tick"], outputs=["out"])
        builder.mark_system_output("out")
        report = lint_system(builder.build())
        assert not report.by_code("R004")

    def test_r005_dead_sink_output(self):
        builder = SystemBuilder("b")
        builder.add_module("M", inputs=["ext"], outputs=["mid"])
        builder.add_module("LOG", inputs=["mid"], outputs=["log_buf"])
        builder.add_module("N", inputs=["mid"], outputs=["out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out", "log_buf")
        clean = lint_system(builder.build())
        assert not clean.by_code("R005")
        # Un-export the log buffer: now it is a dead sink.
        builder2 = SystemBuilder("b2")
        builder2.add_module("M", inputs=["ext"], outputs=["mid"])
        builder2.add_module("LOG", inputs=["mid"], outputs=["log_buf"])
        builder2.add_module("N", inputs=["mid"], outputs=["out"])
        builder2.mark_system_input("ext")
        builder2.mark_system_output("out")
        report = lint_system(builder2.build(validate=False))
        flagged = report.by_code("R005")
        assert [(d.location.module, d.location.signal) for d in flagged] == [
            ("LOG", "log_buf")
        ]
        assert "X^S" in flagged[0].message

    def test_r006_r007_cross_module_cycle(self):
        builder = SystemBuilder("b")
        builder.add_module("M1", inputs=["ext", "s2"], outputs=["s1"])
        builder.add_module("M2", inputs=["s1"], outputs=["s2", "out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        report = lint_system(builder.build())
        cycles = report.by_code("R006")
        assert len(cycles) == 1
        assert "M1" in cycles[0].message and "M2" in cycles[0].message
        assert {d.location.module for d in report.by_code("R007")} == {"M1", "M2"}

    def test_r006_not_fired_for_self_feedback(self):
        builder = SystemBuilder("b")
        builder.add_module("M", inputs=["ext", "fb"], outputs=["fb", "out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        report = lint_system(builder.build())
        assert not report.by_code("R006")
        assert not report.by_code("R007")

    def test_r007_spares_declared_feedback_on_cycle(self):
        # M1 participates in a wider cycle but also declares explicit
        # self-feedback, so only M2 is reported as unmarked.
        builder = SystemBuilder("b")
        builder.add_module("M1", inputs=["ext", "s2", "fb"], outputs=["s1", "fb"])
        builder.add_module("M2", inputs=["s1"], outputs=["s2", "out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        report = lint_system(builder.build())
        assert report.by_code("R006")
        assert {d.location.module for d in report.by_code("R007")} == {"M2"}

    def test_r008_width_mismatch(self):
        builder = SystemBuilder("b")
        builder.add_signal("wide", width=32)
        builder.add_module("M", inputs=["wide"], outputs=["narrow"])
        builder.mark_system_input("wide")
        builder.mark_system_output("narrow")
        report = lint_system(builder.build())
        flagged = report.by_code("R008")
        assert len(flagged) == 1
        assert "narrows" in flagged[0].message


class TestMatrixRules:
    def _chain(self):
        builder = SystemBuilder("chain")
        builder.add_module("A", inputs=["ext"], outputs=["mid"])
        builder.add_module("B", inputs=["mid"], outputs=["out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("out")
        return builder.build()

    def test_rules_skipped_without_matrix(self):
        system = self._chain()
        assert not lint_system(system).codes()

    def test_r009_r010_zero_row_and_column(self):
        system = self._chain()
        matrix = PermeabilityMatrix.uniform(system, 0.5)
        matrix.set("A", "ext", "mid", 0.0)
        report = lint_system(system, matrix)
        # A single-input single-output module: the zero pair is both an
        # all-zero row (ext never permeates) and an all-zero column.
        assert report.by_code("R009")
        assert report.by_code("R010")
        assert not report.has_errors

    def test_incomplete_rows_are_not_judged(self):
        system = self._chain()
        matrix = PermeabilityMatrix(system)  # nothing set
        report = lint_system(system, matrix)
        assert not report.by_code("R009")
        assert not report.by_code("R010")


class TestPlacementRules:
    def test_r011_downstream_detector_shadowed(self):
        system = build_toy_model()  # src -> FILT -> filt -> AMP -> out
        report = lint_system(system, detectors=["src", "out"])
        flagged = report.by_code("R011")
        assert [d.location.signal for d in flagged] == ["out"]
        assert "'src'" in flagged[0].message

    def test_r011_parallel_branches_not_shadowed(self):
        builder = SystemBuilder("b")
        builder.add_module("S", inputs=["ext"], outputs=["left", "right"])
        builder.add_module("L", inputs=["left"], outputs=["l_out"])
        builder.add_module("R", inputs=["right"], outputs=["r_out"])
        builder.mark_system_input("ext")
        builder.mark_system_output("l_out", "r_out")
        report = lint_system(builder.build(), detectors=["l_out", "r_out"])
        assert not report.by_code("R011")

    def test_r012_unknown_target_pair(self):
        system = build_toy_model()
        report = lint_system(
            system, targets=[("FILT", "src"), ("FILT", "srx"), ("FLIT", "src")]
        )
        flagged = report.by_code("R012")
        assert len(flagged) == 2
        assert flagged[0].severity is Severity.ERROR
        hints = " | ".join(d.hint or "" for d in flagged)
        assert "did you mean 'src'?" in hints
        assert "did you mean 'FILT'?" in hints


# ---------------------------------------------------------------------------
# Campaign gate and observability
# ---------------------------------------------------------------------------


def _tiny_config(**overrides):
    defaults = dict(
        duration_ms=30,
        injection_times_ms=(5,),
        error_models=tuple(bit_flip_models(1)),
        seed=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _broken_system():
    builder = SystemBuilder("broken")
    builder.add_module("FILT", inputs=["src"], outputs=["filt", "orphan"])
    builder.add_module("AMP", inputs=["filt"], outputs=["out"])
    builder.mark_system_input("src")
    builder.mark_system_output("out")
    return builder.build(validate=False)


class TestCampaignGate:
    def test_campaign_refuses_on_error_diagnostics(self):
        calls = []

        def factory(case):
            calls.append(case)
            return build_toy_run()

        campaign = InjectionCampaign(
            _broken_system(), factory, [None], _tiny_config()
        )
        with pytest.raises(CampaignError, match="R001"):
            campaign.execute()
        assert calls == []  # aborted before any Golden Run

    def test_refusal_ends_the_stream_in_campaign_aborted(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        observer = CampaignObserver.to_files(events_path=events_path)
        campaign = InjectionCampaign(
            _broken_system(),
            lambda case: build_toy_run(),
            [None],
            _tiny_config(),
            observer=observer,
        )
        with pytest.raises(CampaignError, match="R001") as excinfo:
            campaign.execute()
        observer.close()
        assert_aborted_stream(events_path, f"CampaignError: {excinfo.value}")

    def test_no_lint_bypasses_the_gate(self):
        sentinel = RuntimeError("factory reached")

        def factory(case):
            raise sentinel

        campaign = InjectionCampaign(
            _broken_system(), factory, [None], _tiny_config(lint=False)
        )
        with pytest.raises(RuntimeError, match="factory reached"):
            campaign.execute()

    def test_clean_campaign_emits_lint_event(self):
        system = build_toy_model()
        observer = CampaignObserver.to_files(events_path=None, system=system)
        campaign = InjectionCampaign(
            system,
            lambda case: build_toy_run(),
            [None],
            _tiny_config(),
            observer=observer,
        )
        result = campaign.execute()
        assert len(result) == campaign.total_runs()
        events = observer.events._sink.events()
        types = [parsed.type_name for parsed in events]
        assert types[0] == "CampaignStarted"
        assert types[1] == "BackendSelected"
        assert types[2] == "LintReported"
        lint_event = events[2].event
        assert lint_event.errors == 0
        assert lint_event.system == system.name

    def test_campaign_lint_method_reports_without_raising(self):
        campaign = InjectionCampaign(
            _broken_system(),
            lambda case: build_toy_run(),
            [None],
            _tiny_config(),
        )
        report = campaign.lint()
        assert report.has_errors
        assert "R001" in report.codes()


class TestLintReportedEvent:
    def test_round_trip_restores_tuples(self):
        event = LintReported(
            system="s",
            errors=1,
            warnings=2,
            info=0,
            codes=("R001", "R005"),
            diagnostics=({"code": "R001"}, {"code": "R005"}),
        )
        record = encode_event(event, seq=7, ts=1.5)
        import json

        parsed = decode_event(json.loads(json.dumps(record)))
        assert parsed.event == event
        assert isinstance(parsed.event.codes, tuple)
        assert isinstance(parsed.event.diagnostics, tuple)
