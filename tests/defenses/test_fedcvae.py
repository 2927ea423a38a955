"""FedCVAE baseline tests."""

import numpy as np
import pytest

from repro import nn
from repro.config import ModelConfig
from repro.data import SynthMnistConfig, generate_dataset
from repro.defenses import FedCVAE, Spectral
from repro.fl import ClientUpdate
from repro.fl.strategy import ServerContext
from repro.models import build_classifier, build_decoder


@pytest.fixture(scope="module")
def fedcvae_env():
    model_cfg = ModelConfig(kind="mlp", image_size=8, mlp_hidden=24,
                            cvae_hidden=24, cvae_latent=4)
    rng = np.random.default_rng(0)
    aux = generate_dataset(150, rng, SynthMnistConfig(image_size=8))
    context = ServerContext(
        make_classifier=lambda: build_classifier(model_cfg, np.random.default_rng(1)),
        make_decoder=lambda: build_decoder(model_cfg, np.random.default_rng(1)),
        num_classes=10,
        t_samples=20,
        class_probs=np.full(10, 0.1),
        rng=np.random.default_rng(2),
        auxiliary_dataset=aux,
    )
    strategy = FedCVAE(surrogate_dim=16, pretrain_rounds=3, pseudo_clients=4,
                       cvae_epochs=30, pretrain_epochs=2)
    strategy.setup(context)
    base = nn.parameters_to_vector(context.make_classifier())
    return strategy, context, base


def updates_near(base, n, jitter=0.02):
    rng = np.random.default_rng(5)
    return [
        ClientUpdate(i, base + rng.standard_normal(base.size) * jitter, 10)
        for i in range(n)
    ]


class TestSetup:
    def test_trains_conditional_model(self, fedcvae_env):
        strategy, _, _ = fedcvae_env
        assert strategy._cvae is not None
        assert strategy._cvae.num_classes == 3  # conditioning buckets

    def test_requires_auxiliary(self):
        context = ServerContext(
            make_classifier=lambda: None, make_decoder=lambda: None,
            num_classes=10, t_samples=10, class_probs=np.full(10, 0.1),
            rng=np.random.default_rng(0), auxiliary_dataset=None,
        )
        with pytest.raises(RuntimeError):
            FedCVAE().setup(context)

    def test_aggregate_before_setup(self, fedcvae_env):
        _, context, base = fedcvae_env
        with pytest.raises(RuntimeError):
            FedCVAE().aggregate(1, updates_near(base, 2), base, context)


class TestBuckets:
    def test_round_clamped_to_pretrained_range(self, fedcvae_env):
        strategy, _, _ = fedcvae_env
        assert strategy._bucket(1) == 0
        assert strategy._bucket(3) == 2
        assert strategy._bucket(50) == 2  # clamped past pre-training


class TestFiltering:
    def test_extreme_outlier_rejected(self, fedcvae_env):
        strategy, context, base = fedcvae_env
        updates = updates_near(base, 6)
        updates.append(ClientUpdate(60, np.full(base.size, 3.0), 10, malicious=True))
        result = strategy.aggregate(1, updates, base, context)
        assert 60 in result.rejected_ids

    def test_mean_threshold_keeps_someone(self, fedcvae_env):
        strategy, context, base = fedcvae_env
        result = strategy.aggregate(2, updates_near(base, 5), base, context)
        assert len(result.accepted_ids) >= 1
        assert "recon_error_mean" in result.metrics

    def test_errors_deterministic(self, fedcvae_env):
        strategy, _, base = fedcvae_env
        s = np.stack([strategy._surrogate(np.ones(base.size))])
        np.testing.assert_array_equal(strategy._errors(s, 0), strategy._errors(s, 0))


class TestSharedBaseline:
    def test_same_benign_baseline_as_spectral(self, fedcvae_env):
        # Equal pre-training arguments simulate the same benign rounds on
        # the same auxiliary set, so the surrogate baselines are equal bit
        # for bit; only the detector trained on them differs.
        _, context, _ = fedcvae_env
        pretrain = dict(surrogate_dim=8, pretrain_rounds=2, pseudo_clients=2,
                        pretrain_epochs=1, pretrain_lr=0.05, seed=5)
        spectral = Spectral(vae_epochs=1, **pretrain)
        fedcvae = FedCVAE(cvae_epochs=1, **pretrain)
        spectral.setup(context)
        fedcvae.setup(context)
        assert fedcvae._tail_size == spectral._tail_size
        for attr in ("_projection", "_mu", "_sigma"):
            ours, theirs = getattr(fedcvae, attr), getattr(spectral, attr)
            assert ours is not None, attr
            assert ours.tobytes() == theirs.tobytes(), attr
