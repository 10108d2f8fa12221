"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.injection.campaign import CampaignConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.cases == 2
        assert args.bits == 16
        assert args.seed == 2001
        assert args.duration == CampaignConfig().duration_ms

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--mass", "9000", "--velocity", "45"]
        )
        assert args.mass == 9000.0
        assert args.velocity == 45.0


class TestDemo:
    def test_demo_prints_all_tables(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        for marker in ("Table 1.", "Table 2.", "Table 3.", "Table 4.",
                       "Placement recommendations", "sys_out", "ext_a"):
            assert marker in output


class TestSimulate:
    def test_simulate_reports_telemetry(self, capsys):
        assert main(["simulate", "--duration", "500"]) == 0
        output = capsys.readouterr().out
        assert "position_m" in output
        assert "TOC2" in output


class TestCampaignAndAnalyze:
    @pytest.mark.slow
    def test_campaign_save_and_reanalyze(self, tmp_path, capsys):
        matrix_file = tmp_path / "matrix.json"
        code = main(
            [
                "campaign",
                "--cases", "1",
                "--times", "1",
                "--bits", "2",
                "--duration", "5600",
                "--save", str(matrix_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 1." in output
        assert "Propagation latency" in output
        assert "Greedy EDM subset selection" in output

        data = json.loads(matrix_file.read_text())
        assert len(data["entries"]) == 25

        assert main(["analyze", str(matrix_file)]) == 0
        assert "Table 2." in capsys.readouterr().out


class TestWorkersFlag:
    def test_workers_flag(self):
        args = build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4


class TestExitCodes:
    """The documented exit-code contract: 0 pass, 1 findings, 2 usage."""

    def _uniform_matrix_file(self, tmp_path, value):
        from repro.arrestment.system import build_arrestment_model
        from repro.core.permeability import PermeabilityMatrix

        matrix = PermeabilityMatrix.uniform(build_arrestment_model(), value)
        path = tmp_path / "matrix.json"
        path.write_text(matrix.to_json(), encoding="utf-8")
        return path

    def test_campaign_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_campaign_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--backend", "warp-drive"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bits", "17"], "'bitflip[16]' cannot inject into ("),
            (["--cases", "0"], "n_cases must lie in [1, 25]"),
            (["--cases", "-1"], "n_cases must lie in [1, 25]"),
        ],
    )
    def test_campaign_invalid_configuration_exits_two(
        self, tmp_path, capsys, argv, message
    ):
        events = tmp_path / "events.jsonl"
        code = main(
            ["campaign", "--duration", "1000", "--times", "1",
             "--events", str(events), *argv]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid campaign configuration: " in captured.err
        assert message in captured.err
        assert "runs" not in captured.out
        assert not events.exists()

    def test_verify_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--backend", "warp-drive"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_lint_clean_system_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        capsys.readouterr()

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        matrix_file = self._uniform_matrix_file(tmp_path, 0.0)
        code = main(
            ["lint", "--matrix", str(matrix_file), "--fail-on", "warning"]
        )
        assert code == 1
        capsys.readouterr()

    def test_lint_paper_matrix_usage_error_exits_two(self, capsys):
        assert main(["lint", "--system", "arrestment", "--paper-matrix"]) == 2
        assert "--system fig2" in capsys.readouterr().err

    def test_analyze_exits_zero(self, tmp_path, capsys):
        matrix_file = self._uniform_matrix_file(tmp_path, 0.5)
        assert main(["analyze", str(matrix_file)]) == 0
        capsys.readouterr()

    def test_analyze_requires_matrix_argument(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert excinfo.value.code == 2

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs"])
        assert excinfo.value.code == 2

    def test_obs_validate_junk_exits_one(self, tmp_path, capsys):
        junk = tmp_path / "events.jsonl"
        junk.write_text("this is not jsonl {", encoding="utf-8")
        assert main(["obs", "validate", str(junk)]) == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.slow
    def test_verify_fuzz_pass_exits_zero(self, tmp_path, capsys):
        code = main(
            ["verify", "--seeds", "2", "--corpus", str(tmp_path / "corpus")]
        )
        assert code == 0
        assert "all oracle checks passed" in capsys.readouterr().out

    @pytest.mark.slow
    def test_verify_backend_filter_exits_zero(self, tmp_path, capsys):
        code = main(
            ["verify", "--seeds", "1", "--backend", "batched",
             "--corpus", str(tmp_path / "corpus")]
        )
        assert code == 0
        assert "2 strategies" in capsys.readouterr().out

    def test_verify_replay_failure_exits_one(self, tmp_path, capsys):
        from repro.verify import Reproducer, write_reproducer

        from tests.verify_cases import unfired_trap_triple

        spec, campaign = unfired_trap_triple()
        path = write_reproducer(
            tmp_path,
            Reproducer(kind="generated", campaign=campaign, spec=spec),
        )
        assert main(["verify", "--replay", str(path)]) == 1
        assert "exact-agreement" in capsys.readouterr().err

    def test_verify_replay_empty_corpus_exits_two(self, tmp_path, capsys):
        code = main(
            ["verify", "--replay", "--corpus", str(tmp_path / "nowhere")]
        )
        assert code == 2
        assert "no reproducers" in capsys.readouterr().err

    def test_verify_rejects_bad_seed_count(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--seeds", "plenty"])
        assert excinfo.value.code == 2


class TestFlowExitCodes:
    """``repro flow`` mirrors the lint exit-code matrix.

    0 on a clean analysis, 1 when findings reach ``--fail-on``, 2 on a
    usage error — same contract as ``repro lint``.
    """

    def _stub_runner_with_findings(self):
        """A runner whose flow analysis yields R013 and R014 findings."""
        from tests.test_flow import StubXorModule, build_chain_system

        class _Runner:
            system = build_chain_system(width=8)
            modules = {
                "M0": StubXorModule((("s0", (("ext", 0x0F),)),)),
                "M1": StubXorModule((("out", (("s0", 0),)),)),
            }

        return _Runner()

    def test_flow_clean_shipped_systems_exit_zero(self, capsys):
        # Shipped systems are all-opaque: no findings even at --fail-on
        # info, matching lint's clean-system behaviour.
        for system in ("arrestment", "fig2", "twonode"):
            assert main(["flow", "--system", system, "--fail-on", "info"]) == 0
            capsys.readouterr()

    def test_flow_findings_exit_one_at_threshold(self, capsys, monkeypatch):
        import repro.cli as cli_module

        runner = self._stub_runner_with_findings()
        monkeypatch.setattr(
            cli_module, "build_arrestment_run", lambda case: runner
        )
        # R013 is a warning: below the default error threshold...
        assert main(["flow"]) == 0
        capsys.readouterr()
        # ...and at or above --fail-on warning/info it gates, like lint.
        assert main(["flow", "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "R013" in out
        assert main(["flow", "--fail-on", "info"]) == 1
        assert "R014" in capsys.readouterr().out

    def test_flow_usage_errors_exit_two(self, capsys):
        for argv in (
            ["flow", "--system", "warp-drive"],
            ["flow", "--format", "xml"],
            ["flow", "--fail-on", "never"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_flow_sarif_output_file(self, tmp_path, capsys):
        from repro.report.sarif import validate_sarif

        target = tmp_path / "flow.sarif"
        assert main(
            ["flow", "--format", "sarif", "--output", str(target)]
        ) == 0
        assert str(target) in capsys.readouterr().out
        log = json.loads(target.read_text(encoding="utf-8"))
        validate_sarif(log)
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-flow"


class TestTwoNodeFlags:
    def test_campaign_twonode_flag(self):
        args = build_parser().parse_args(
            ["campaign", "--twonode", "--workers", "4"]
        )
        assert args.twonode is True
        assert args.workers == 4

    def test_analyze_twonode_flag(self):
        args = build_parser().parse_args(["analyze", "m.json", "--twonode"])
        assert args.twonode is True

    def test_paper_grid_flag(self):
        args = build_parser().parse_args(["campaign", "--paper-grid"])
        assert args.paper_grid is True
