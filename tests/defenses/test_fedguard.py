"""FedGuard unit tests against a synthetic ServerContext.

These test the aggregation operator in isolation (synthesis, scoring,
mean-threshold selection, tuneable knobs) using small hand-built decoders
and classifiers; the full federated behaviour is covered by the
integration tests.
"""

import numpy as np
import pytest

from repro import nn
from repro.config import FederationConfig, ModelConfig
from repro.data import SynthMnistConfig, generate_dataset
from repro.defenses import FedGuard
from repro.defenses.geomed import geometric_median
from repro.fl import ClientUpdate
from repro.fl.client import train_classifier, train_cvae
from repro.fl.strategy import ServerContext
from repro.models import build_classifier, build_cvae, build_decoder


@pytest.fixture(scope="module")
def guard_env():
    """A trained mini-environment: dataset, good/bad classifiers, a CVAE."""
    rng = np.random.default_rng(42)
    model_cfg = ModelConfig(kind="mlp", image_size=8, mlp_hidden=32,
                            cvae_hidden=48, cvae_latent=6)
    data = generate_dataset(400, rng, SynthMnistConfig(image_size=8))

    good = build_classifier(model_cfg, rng)
    train_classifier(good, data, epochs=15, lr=0.1, batch_size=32, rng=rng, momentum=0.9)
    good_vec = nn.parameters_to_vector(good)

    cvae = build_cvae(model_cfg, rng)
    train_cvae(cvae, data, epochs=80, lr=2e-3, batch_size=32, rng=rng)
    decoder_vec = nn.parameters_to_vector(cvae.decoder)

    context = ServerContext(
        make_classifier=lambda: build_classifier(model_cfg, np.random.default_rng(0)),
        make_decoder=lambda: build_decoder(model_cfg, np.random.default_rng(0)),
        num_classes=10,
        t_samples=40,
        class_probs=np.full(10, 0.1),
        rng=np.random.default_rng(7),
    )
    return {
        "model_cfg": model_cfg,
        "good_vec": good_vec,
        "decoder_vec": decoder_vec,
        "context": context,
        "dim": good_vec.size,
    }


def make_updates(env, n_good=3, n_bad=3, bad_kind="sign"):
    rng = np.random.default_rng(3)
    updates = []
    cid = 0
    for _ in range(n_good):
        jitter = rng.standard_normal(env["dim"]) * 0.01
        updates.append(ClientUpdate(cid, env["good_vec"] + jitter, 10,
                                    decoder_weights=env["decoder_vec"]))
        cid += 1
    for _ in range(n_bad):
        if bad_kind == "sign":
            bad = -env["good_vec"]
        elif bad_kind == "ones":
            bad = np.ones(env["dim"])
        else:
            bad = env["good_vec"] + rng.standard_normal(env["dim"]) * 10
        updates.append(ClientUpdate(cid, bad, 10,
                                    decoder_weights=env["decoder_vec"],
                                    malicious=True))
        cid += 1
    return updates


class TestSynthesize:
    def test_shapes_and_balance(self, guard_env):
        guard = FedGuard()
        updates = make_updates(guard_env, 2, 0)
        x, y = guard.synthesize(updates, guard_env["context"])
        # 2 decoders × t=40 samples
        assert x.shape == (80, 64)
        assert y.shape == (80,)
        counts = np.bincount(y, minlength=10)
        assert counts.min() >= 2 * (40 // 10)  # balanced stratification

    def test_unbalanced_mode(self, guard_env):
        guard = FedGuard(balanced=False)
        updates = make_updates(guard_env, 1, 0)
        _, y = guard.synthesize(updates, guard_env["context"])
        assert y.shape == (40,)

    def test_explicit_samples_per_decoder(self, guard_env):
        guard = FedGuard(samples_per_decoder=10)
        updates = make_updates(guard_env, 2, 0)
        x, _ = guard.synthesize(updates, guard_env["context"])
        assert x.shape == (20, 64)

    def test_decoder_subset(self, guard_env):
        guard = FedGuard(decoder_subset=1)
        updates = make_updates(guard_env, 3, 0)
        x, _ = guard.synthesize(updates, guard_env["context"])
        assert x.shape == (40, 64)  # only one decoder used

    def test_samples_per_class_quota(self, guard_env):
        quota = [0, 0, 0, 5, 0, 0, 0, 0, 0, 5]
        guard = FedGuard(samples_per_class=quota)
        updates = make_updates(guard_env, 1, 0)
        _, y = guard.synthesize(updates, guard_env["context"])
        counts = np.bincount(y, minlength=10)
        np.testing.assert_array_equal(counts, quota)

    def test_missing_decoders_raise(self, guard_env):
        guard = FedGuard()
        bare = [ClientUpdate(0, guard_env["good_vec"], 10)]
        with pytest.raises(RuntimeError):
            guard.synthesize(bare, guard_env["context"])

    def test_images_in_unit_interval(self, guard_env):
        guard = FedGuard()
        x, _ = guard.synthesize(make_updates(guard_env, 1, 0), guard_env["context"])
        assert (x >= 0).all() and (x <= 1).all()

    def test_each_round_draws_a_fresh_validation_set(self, guard_env):
        """Alg. 1 lines 2-3: the server samples new (z, y) every round."""
        guard = FedGuard()
        updates = make_updates(guard_env, 2, 0)
        first, _ = guard.synthesize(updates, guard_env["context"])
        second, _ = guard.synthesize(updates, guard_env["context"])
        assert first.shape == second.shape
        assert not np.array_equal(first, second)


class TestSelection:
    @pytest.mark.parametrize("bad_kind", ["sign", "ones", "noise"])
    def test_rejects_poisoned_updates(self, guard_env, bad_kind):
        guard = FedGuard()
        updates = make_updates(guard_env, 3, 3, bad_kind=bad_kind)
        result = guard.aggregate(1, updates, guard_env["good_vec"], guard_env["context"])
        assert set(result.rejected_ids) == {3, 4, 5}
        assert set(result.accepted_ids) == {0, 1, 2}

    def test_aggregate_of_benign_near_good(self, guard_env):
        guard = FedGuard()
        updates = make_updates(guard_env, 3, 3)
        result = guard.aggregate(1, updates, guard_env["good_vec"], guard_env["context"])
        assert np.linalg.norm(result.weights - guard_env["good_vec"]) < 1.0

    def test_all_equal_accuracies_keeps_everyone(self, guard_env):
        guard = FedGuard()
        updates = make_updates(guard_env, 3, 0)
        # make them identical so accuracies tie exactly at the mean
        for u in updates:
            u.weights = guard_env["good_vec"].copy()
        result = guard.aggregate(1, updates, guard_env["good_vec"], guard_env["context"])
        assert len(result.accepted_ids) == 3

    def test_metrics_reported(self, guard_env):
        guard = FedGuard()
        result = guard.aggregate(
            1, make_updates(guard_env, 2, 2), guard_env["good_vec"], guard_env["context"]
        )
        for key in ("synthetic_samples", "audit_acc_mean", "audit_acc_min", "audit_acc_max"):
            assert key in result.metrics


class TestTuneableKnobs:
    def test_custom_inner_aggregator(self, guard_env):
        """Future-work §VI-C: swap FedAvg for GeoMed inside FedGuard."""
        def geomed_inner(updates):
            return geometric_median(np.stack([u.weights for u in updates]))

        guard = FedGuard(inner_aggregator=geomed_inner)
        updates = make_updates(guard_env, 3, 3)
        result = guard.aggregate(1, updates, guard_env["good_vec"], guard_env["context"])
        accepted = np.stack([u.weights for u in updates if u.client_id in result.accepted_ids])
        np.testing.assert_allclose(result.weights, geometric_median(accepted), atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedGuard(samples_per_decoder=0)
        with pytest.raises(ValueError):
            FedGuard(decoder_subset=0)

    def test_needs_decoder_flag(self):
        assert FedGuard().needs_decoder
