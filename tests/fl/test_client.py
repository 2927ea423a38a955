"""FLClient behaviour: local training, attacks, CVAE lifecycle."""

import numpy as np
import pytest

from repro import nn
from repro.attacks import BackdoorAttack, LabelFlippingAttack, SignFlippingAttack
from repro.config import FederationConfig, ModelConfig
from repro.data import SynthMnistConfig, generate_dataset
from repro.fl import FLClient
from repro.fl import client as client_module
from repro.models import build_classifier


@pytest.fixture
def client_setup(rng):
    config = FederationConfig.tiny()
    dataset = generate_dataset(60, rng, SynthMnistConfig(image_size=8))
    return config, dataset


def global_vector(config):
    model = build_classifier(config.model, np.random.default_rng(0))
    return nn.parameters_to_vector(model)


class TestFit:
    def test_returns_update_with_metadata(self, client_setup, rng):
        config, dataset = client_setup
        client = FLClient(3, dataset, config, rng)
        update = client.fit(global_vector(config), include_decoder=False)
        assert update.client_id == 3
        assert update.num_samples == 60
        assert update.decoder_weights is None
        assert not update.malicious
        assert np.isfinite(update.train_loss)

    def test_training_changes_weights(self, client_setup, rng):
        config, dataset = client_setup
        client = FLClient(0, dataset, config, rng)
        start = global_vector(config)
        update = client.fit(start, include_decoder=False)
        assert not np.allclose(update.weights, start)

    def test_include_decoder_ships_theta(self, client_setup, rng):
        config, dataset = client_setup
        client = FLClient(0, dataset, config, rng)
        update = client.fit(global_vector(config), include_decoder=True)
        assert update.decoder_weights is not None
        assert update.decoder_weights.ndim == 1

    def test_cvae_trained_once(self, client_setup, rng):
        """Paper footnote 5: static partitions → the CVAE is trained once
        and its decoder reused across rounds."""
        config, dataset = client_setup
        client = FLClient(0, dataset, config, rng)
        first = client.fit(global_vector(config), include_decoder=True)
        second = client.fit(global_vector(config), include_decoder=True)
        np.testing.assert_array_equal(first.decoder_weights, second.decoder_weights)

    def test_local_training_learns_local_data(self, client_setup, rng):
        config, dataset = client_setup
        config = config.replace(local_epochs=20)
        client = FLClient(0, dataset, config, rng)
        update = client.fit(global_vector(config), include_decoder=False)
        acc = client.evaluate(update.weights)
        assert acc > 0.5


class TestAttacks:
    def test_model_attack_applied_after_training(self, client_setup, rng):
        config, dataset = client_setup
        benign = FLClient(0, dataset, config, np.random.default_rng(7))
        evil = FLClient(0, dataset, config, np.random.default_rng(7),
                        attack=SignFlippingAttack())
        start = global_vector(config)
        benign_update = benign.fit(start, include_decoder=False)
        evil_update = evil.fit(start, include_decoder=False)
        np.testing.assert_allclose(evil_update.weights, -benign_update.weights)
        assert evil_update.malicious

    def test_data_attack_poisons_dataset_at_construction(self, client_setup, rng):
        config, dataset = client_setup
        attack = LabelFlippingAttack()
        client = FLClient(0, dataset, config, rng, attack=attack)
        # the client's private labels are flipped relative to the source
        np.testing.assert_array_equal(
            client.dataset.labels, attack.flip_labels(dataset.labels)
        )
        # the original dataset is untouched
        assert client.dataset is not dataset

    def test_is_malicious_property(self, client_setup, rng):
        config, dataset = client_setup
        assert not FLClient(0, dataset, config, rng).is_malicious
        assert FLClient(0, dataset, config, rng, attack=SignFlippingAttack()).is_malicious


class TestEvaluate:
    def test_accuracy_range(self, client_setup, rng):
        config, dataset = client_setup
        client = FLClient(0, dataset, config, rng)
        acc = client.evaluate(global_vector(config))
        assert 0.0 <= acc <= 1.0

    def test_external_dataset(self, client_setup, rng):
        config, dataset = client_setup
        other = generate_dataset(30, rng, SynthMnistConfig(image_size=8))
        client = FLClient(0, dataset, config, rng)
        acc = client.evaluate(global_vector(config), dataset=other)
        assert 0.0 <= acc <= 1.0


PROFILES = {
    "tiny_mlp": FederationConfig.tiny(),
    "paper_scaled_cnn": FederationConfig.paper_scaled(local_epochs=1),
}
ATTACKS = {
    "benign": lambda config: None,
    "label_flip": lambda config: LabelFlippingAttack(),
    "backdoor": lambda config: BackdoorAttack(image_size=config.model.image_size),
}


def profile_dataset(config, n, rng):
    return generate_dataset(n, rng, SynthMnistConfig(image_size=config.model.image_size))


class TestConstructionDraws:
    """Construction advances the client's stream exactly as initializing a
    classifier of its own did, so streams, goldens and digests are unchanged."""

    @pytest.mark.parametrize("attack_name", sorted(ATTACKS))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_stream_matches_classifier_init(self, profile, attack_name):
        config = PROFILES[profile]
        dataset = profile_dataset(config, 40, np.random.default_rng(1))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for stream in (rng, twin):
            # An odd number of 32-bit draws leaves one uint32 buffered, which
            # ``bit_generator.advance`` would drop and ``random`` keeps.
            stream.integers(0, 10, size=3)
        assert rng.bit_generator.state["has_uint32"] == 1
        attack = ATTACKS[attack_name](config)
        FLClient(0, dataset, config, rng, attack=attack)
        if attack is not None:
            attack.apply(dataset, twin)
        build_classifier(config.model, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSharedShell:
    """The clients of a process share one classifier shell per architecture."""

    CASES = {
        "sgd": ("tiny_mlp", {}),
        "momentum": ("tiny_mlp", {"client_momentum": 0.9}),
        "adam": ("tiny_mlp", {"client_optimizer": "adam", "client_lr": 0.01}),
        "proximal": ("tiny_mlp", {"proximal_mu": 0.1}),
        "cnn": ("paper_scaled_cnn", {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clients_leak_nothing_through_the_shell(self, monkeypatch, case):
        profile, overrides = self.CASES[case]
        config = PROFILES[profile].replace(**overrides)
        data_rng = np.random.default_rng(2)
        datasets = [profile_dataset(config, n, data_rng) for n in (40, 52)]
        g0 = global_vector(config)
        g1 = 0.5 * g0

        def make(cid):
            return FLClient(cid, datasets[cid], config, np.random.default_rng(100 + cid))

        def fresh_shell():
            monkeypatch.setattr(client_module, "_SHELLS", {})

        def episode(isolated):
            """Fit A, fit B, evaluate A, fit A again; a new shell per call
            when isolated, one shared shell otherwise."""
            fresh_shell()
            a, b = make(0), make(1)
            steps = [
                lambda: a.fit(g0, include_decoder=False),
                lambda: b.fit(g1, include_decoder=False),
                lambda: a.evaluate(results[0].weights),
                lambda: a.fit(results[0].weights, include_decoder=False),
            ]
            results = []
            for step in steps:
                if isolated:
                    fresh_shell()
                results.append(step())
            return results

        shared = episode(isolated=False)
        shell, _ = client_module._SHELLS[config.model]
        isolated = episode(isolated=True)

        fits = [0, 1, 3]
        for i in fits:
            assert shared[i].weights.tobytes() == isolated[i].weights.tobytes(), i
            assert shared[i].train_loss == isolated[i].train_loss, i
        assert shared[2] == isolated[2]
        vector = nn.parameters_to_vector(shell)
        assert vector.tobytes() == shared[3].weights.tobytes()
        for p in shell.parameters():
            for flat in [vector] + [shared[i].weights for i in fits]:
                assert not np.shares_memory(flat, p.data)
