"""Configuration tests."""

import pytest

from repro.config import FederationConfig, ModelConfig


class TestModelConfig:
    def test_paper_matches_tables(self):
        cfg = ModelConfig.paper()
        assert cfg.image_size == 28
        assert cfg.cnn_channels == (32, 64)
        assert cfg.cnn_hidden == 512
        assert cfg.cvae_hidden == 400
        assert cfg.cvae_latent == 20
        assert cfg.input_dim == 784

    def test_scaled_default_input_dim(self):
        assert ModelConfig().input_dim == 256


class TestFederationConfig:
    def test_paper_full_matches_section_iv(self):
        cfg = FederationConfig.paper_full()
        assert cfg.n_clients == 100
        assert cfg.clients_per_round == 50
        assert cfg.rounds == 50
        assert cfg.local_epochs == 5
        assert cfg.cvae_epochs == 30
        assert cfg.partition_alpha == 10.0
        assert cfg.t_samples == 100          # t = 2·m
        assert cfg.server_lr == 1.0
        assert cfg.model.image_size == 28

    def test_scaled_preserves_ratios(self):
        cfg = FederationConfig.paper_scaled()
        # m/N = 1/2 as in the paper
        assert cfg.clients_per_round / cfg.n_clients == 0.5
        # t = 2·m
        assert cfg.t_samples == 2 * cfg.clients_per_round
        # ~240 samples per client
        assert cfg.train_samples / cfg.n_clients == pytest.approx(240)

    def test_m_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            FederationConfig(n_clients=5, clients_per_round=6)

    @pytest.mark.parametrize("field, value", [
        ("client_optimizer", "adamw"),
        ("batch_size", 0),
        ("cvae_batch_size", 0),
        ("client_lr", 0.0),
        ("cvae_lr", 0.0),
        ("client_momentum", 1.0),
        ("samples_per_client_factor", 0),
        ("clients_per_round", 0),
        ("rounds", -1),
        ("local_epochs", -1),
        ("cvae_epochs", -1),
        ("stream_samples_per_round", -1),
        ("stream_window", -1),
        ("cvae_refresh_every", -1),
        ("proximal_mu", -1.0),
        ("train_samples", 0),
        ("test_samples", 0),
        ("partition_alpha", 0.0),
    ])
    def test_invalid_value_refused_naming_field(self, field, value):
        # Left to run, each value fails at the first fit, audit or build,
        # or silently acts as 0.
        with pytest.raises(ValueError, match=field):
            FederationConfig.tiny(**{field: value})

    def test_server_lr_bounds(self):
        with pytest.raises(ValueError):
            FederationConfig(server_lr=0.0)
        with pytest.raises(ValueError):
            FederationConfig(server_lr=1.01)
        FederationConfig(server_lr=0.3)  # Fig. 5's value is valid

    def test_replace_returns_new_config(self):
        cfg = FederationConfig.paper_scaled()
        other = cfg.replace(rounds=99)
        assert other.rounds == 99
        assert cfg.rounds != 99
        assert other.n_clients == cfg.n_clients

    def test_replace_revalidates(self):
        cfg = FederationConfig.paper_scaled()
        with pytest.raises(ValueError):
            cfg.replace(clients_per_round=cfg.n_clients + 1)

    def test_frozen(self):
        cfg = FederationConfig.tiny()
        with pytest.raises(Exception):
            cfg.rounds = 5

    def test_tiny_overrides(self):
        cfg = FederationConfig.tiny(rounds=7, seed=3)
        assert cfg.rounds == 7
        assert cfg.seed == 3
