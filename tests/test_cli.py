"""CLI tests (run against the tiny configuration for speed)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.storage import load_history, save_matrix
from .experiments.test_storage import sample_history


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        parser.parse_args(["list"])
        parser.parse_args(["run", "--strategy", "fedavg", "--scenario", "no_attack"])
        parser.parse_args(["matrix", "--out", "x"])
        parser.parse_args(["table4"])
        parser.parse_args(["table5"])
        parser.parse_args(["fig4"])
        parser.parse_args(["fig5"])
        parser.parse_args(["analyze", "--list-rules"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--strategy", "nope", "--scenario", "no_attack"]
            )

    @pytest.mark.parametrize("flag, value", [
        ("--resident-cap", "4"),
        ("--population-store", "mmap"),
        pytest.param("--decoder-cache", None, id="--decoder-cache"),
    ])
    def test_retired_client_state_flags_rejected(self, flag, value, capsys):
        args = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["run", "--strategy", "fedavg", "--scenario", "no_attack", *args]
            )
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommandTiny:
    def test_run_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "history.json"
        assert main([
            "run", "--strategy", "fedavg", "--scenario", "no_attack",
            "--profile", "tiny", "--save", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "tail accuracy" in out
        assert out_path.exists()
        history = load_history(out_path)
        assert history.strategy_name == "fedavg"

    def test_matrix_writes_manifest(self, tmp_path):
        assert main([
            "matrix", "--profile", "tiny", "--out", str(tmp_path),
            "--strategies", "fedavg", "--scenarios", "no_attack",
        ]) == 0
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "fedavg__no_attack.json").exists()

    def test_fig5_tiny(self, capsys, tmp_path):
        csv = tmp_path / "fig5.csv"
        assert main(["fig5", "--profile", "tiny", "--csv", str(csv)]) == 0
        assert "Fig. 5" in capsys.readouterr().out
        assert csv.exists()


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fedguard" in out
        assert "sign_flipping_50" in out
        assert "pdgan" in out


class TestTable5Command:
    def test_analytic_output(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "+20%" in out
        assert "+10%" in out

    def test_measured_from_results(self, capsys, tmp_path):
        results = {
            ("fedavg", "no_attack"): sample_history("fedavg", "no_attack"),
            ("fedguard", "no_attack"): sample_history("fedguard", "no_attack"),
        }
        save_matrix(results, tmp_path)
        assert main(["table5", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Measured" in out


class TestTable4FromPersisted:
    def test_renders_table(self, capsys, tmp_path):
        results = {
            ("fedavg", "no_attack"): sample_history("fedavg", "no_attack"),
            ("fedguard", "no_attack"): sample_history("fedguard", "no_attack"),
        }
        save_matrix(results, tmp_path)
        assert main(["table4", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fedguard" in out and "%" in out

    def test_empty_results_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table4", "--results", str(tmp_path)])


class TestFig4FromPersisted:
    def test_renders_panels_and_csv(self, capsys, tmp_path):
        results = {("fedavg", "no_attack"): sample_history("fedavg", "no_attack")}
        save_matrix(results, tmp_path / "results")
        csv_dir = tmp_path / "csv"
        assert main([
            "fig4", "--results", str(tmp_path / "results"),
            "--csv-dir", str(csv_dir),
        ]) == 0
        assert (csv_dir / "fig4_no_attack.csv").exists()
        assert "Fig. 4" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_list_rules_smoke(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RG001" in out and "RG005" in out

    def test_lint_only_pass_on_clean_tree(self, capsys):
        assert main(["analyze", "--skip", "gradcheck", "--skip", "contracts"]) == 0
        out = capsys.readouterr().out
        assert "static: 0 finding(s)" in out
        assert "analysis: OK" in out
