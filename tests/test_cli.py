"""CLI tests (run against the tiny configuration for speed)."""

import json

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.config import FederationConfig
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


def _config(*flags) -> FederationConfig:
    args = build_parser().parse_args(
        ["run", "--strategy", "fedavg", "--scenario", "no_attack", *flags]
    )
    return _config_from_args(args)


# Every config flag, a legal tiny-profile value, and the fields that
# value sets: its own, then the option it implies.
_FLAG_CASES = [
    ("--rounds", "3", {"rounds": 3}),
    ("--clients", "8",
     {"n_clients": 8, "clients_per_round": 4, "train_samples": 1920}),
    ("--server-lr", "0.5", {"server_lr": 0.5}),
    ("--channel", "lossy", {"channel": "lossy"}),
    ("--drop-prob", "0.2", {"channel_drop_prob": 0.2, "channel": "lossy"}),
    ("--latency-base", "0.1",
     {"channel_latency_base_s": 0.1, "channel": "latency"}),
    ("--bandwidth", "1000", {"channel_bytes_per_s": 1000.0, "channel": "latency"}),
    ("--backend", "process", {"backend": "process"}),
    ("--workers", "2", {"backend_workers": 2, "backend": "process"}),
    ("--engine", "batched", {"engine": "batched"}),
    ("--partition", "iid", {"partition_scheme": "iid"}),
    ("--virtual-samples", "8",
     {"virtual_samples_per_client": 8, "partition_scheme": "virtual"}),
    ("--retries", "2", {"retries": 2}),
    ("--backoff", "0.5", {"retry_backoff_s": 0.5}),
    ("--deadline", "1.5", {"deadline_s": 1.5}),
    ("--min-quorum", "2", {"min_quorum": 2}),
    ("--checkpoint-every", "3", {"checkpoint_every": 3}),
    ("--server-mode", "async", {"server_mode": "async"}),
    ("--buffer-size", "3", {"buffer_size": 3, "server_mode": "async"}),
    ("--max-staleness", "2", {"max_staleness": 2, "server_mode": "async"}),
    ("--staleness-weight", "inverse",
     {"staleness_weight": "inverse", "server_mode": "async"}),
]


class TestConfigFlags:
    """Each config flag sets its field and the option it implies, and
    nothing else: the config equals the tiny profile with those fields."""

    @pytest.mark.parametrize("flag, value, fields", _FLAG_CASES,
                             ids=[flag for flag, _, _ in _FLAG_CASES])
    def test_flag_sets_its_field_and_implied_option(self, flag, value, fields):
        assert _config("--profile", "tiny", flag, value) == FederationConfig.tiny(**fields)

    def test_explicit_flag_beats_an_implied_one(self):
        config = _config("--profile", "tiny", "--channel", "latency", "--drop-prob", "0.1")
        assert config.channel == "latency"
        assert config.channel_drop_prob == 0.1

    def test_clients_sets_three_fields(self):
        # On the default profile too: N clients, half per round, 240 samples each.
        assert _config("--clients", "8") == FederationConfig.paper_scaled(
            n_clients=8, clients_per_round=4, train_samples=8 * 240
        )


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
