"""Optimized (Fang-style and scaling) attack tests."""

import numpy as np
import pytest

from repro.attacks import DirectedDeviationAttack, ScalingAttack
from repro.defenses import Krum
from repro.fl import ClientUpdate


class TestDirectedDeviation:
    def test_with_bound_global(self, rng):
        attack = DirectedDeviationAttack(lam=0.5)
        global_w = rng.standard_normal(10)
        honest = global_w + rng.standard_normal(10) * 0.1
        attack.bind_global(global_w)
        poisoned = attack.apply(honest, rng)
        np.testing.assert_allclose(
            poisoned, global_w - 0.5 * np.sign(honest - global_w)
        )

    def test_fallback_without_global(self, rng):
        attack = DirectedDeviationAttack(lam=2.0)
        w = rng.standard_normal(6)
        np.testing.assert_allclose(attack.apply(w, rng), -2.0 * np.sign(w))

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedDeviationAttack(lam=0.0)

    def test_colluders_cluster_and_defeat_krum(self, rng):
        """The attack's reason to exist: colluders' submissions are nearly
        identical, so Krum selects one of them over scattered benign
        updates."""
        dim = 50
        global_w = np.zeros(dim)
        attack = DirectedDeviationAttack(lam=0.3)
        attack.bind_global(global_w)

        benign = [global_w + rng.standard_normal(dim) * 0.3 for _ in range(4)]
        colluders = [
            attack.apply(global_w + rng.standard_normal(dim) * 0.3, rng)
            for _ in range(6)
        ]
        # colluders share the first attacker's direction — identical submissions
        assert np.std(np.stack(colluders), axis=0).max() == 0.0

        updates = [ClientUpdate(i, w, 10) for i, w in enumerate(benign + colluders)]
        result = Krum().aggregate(1, updates, global_w, None)
        assert result.accepted_ids[0] >= 4  # a colluder wins

    def test_non_colluding_directions_differ(self, rng):
        attack = DirectedDeviationAttack(lam=0.3, colluding=False)
        attack.bind_global(np.zeros(20))
        a = attack.apply(rng.standard_normal(20), rng)
        b = attack.apply(rng.standard_normal(20), rng)
        assert not np.array_equal(a, b)

    def test_new_round_resets_shared_direction(self, rng):
        attack = DirectedDeviationAttack(lam=0.3)
        attack.bind_global(np.zeros(10))
        first = attack.apply(rng.standard_normal(10), rng)
        attack.bind_global(np.ones(10))  # new global => new round
        second = attack.apply(np.ones(10) + rng.standard_normal(10), rng)
        assert not np.array_equal(first, second)

    def test_in_place_global_update_resets_shared_direction(self, rng):
        # The server updates ψ in place (``global_weights += ...``); the
        # colluders must still see a new round and re-estimate.
        attack = DirectedDeviationAttack(lam=0.3)
        psi = np.zeros(4)
        attack.bind_global(psi)
        attack.apply(psi + 1.0, rng)  # shared direction +1
        psi += 1.0
        attack.bind_global(psi)
        np.testing.assert_array_equal(attack.apply(psi - 1.0, rng), psi + 0.3)


class TestScaling:
    def test_boosts_delta(self, rng):
        attack = ScalingAttack(gamma=5.0)
        global_w = rng.standard_normal(8)
        honest = global_w + rng.standard_normal(8) * 0.1
        attack.bind_global(global_w)
        poisoned = attack.apply(honest, rng)
        np.testing.assert_allclose(poisoned - global_w, 5.0 * (honest - global_w))

    def test_fallback_without_global(self, rng):
        attack = ScalingAttack(gamma=3.0)
        w = rng.standard_normal(4)
        np.testing.assert_allclose(attack.apply(w, rng), 3.0 * w)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingAttack(gamma=1.0)

    def test_single_scaler_dominates_fedavg(self, rng):
        """γ = m lets one attacker replace the average — the textbook
        model-replacement property."""
        from repro.fl.strategy import weighted_average

        m, dim = 10, 20
        global_w = np.zeros(dim)
        benign_delta = rng.standard_normal(dim) * 0.01
        target_delta = np.full(dim, 1.0)  # what the attacker wants installed

        attack = ScalingAttack(gamma=float(m))
        attack.bind_global(global_w)
        poisoned = attack.apply(global_w + target_delta, rng)

        updates = [ClientUpdate(i, global_w + benign_delta, 10) for i in range(m - 1)]
        updates.append(ClientUpdate(m - 1, poisoned, 10))
        agg = weighted_average(updates)
        # the aggregate's delta is dominated by the attacker's target
        assert np.dot(agg, target_delta) / (
            np.linalg.norm(agg) * np.linalg.norm(target_delta)
        ) > 0.99


class TestClientIntegration:
    def test_bind_global_called_by_client(self):
        from repro.config import FederationConfig
        from repro.data import SynthMnistConfig, generate_dataset
        from repro.fl import FLClient
        from repro.models import build_classifier
        from repro import nn

        config = FederationConfig.tiny()
        rng = np.random.default_rng(0)
        ds = generate_dataset(40, rng, SynthMnistConfig(image_size=8))
        attack = DirectedDeviationAttack(lam=0.5)
        client = FLClient(0, ds, config, rng, attack=attack)
        global_w = nn.parameters_to_vector(build_classifier(config.model, rng))
        update = client.fit(global_w, include_decoder=False)
        # every coordinate sits at distance lam (or 0 where the local
        # update direction was exactly zero, e.g. ReLU-dead weights)
        deviation = np.abs(update.weights - global_w)
        assert np.isin(np.round(deviation, 12), [0.0, 0.5]).all()
        assert (deviation == 0.5).mean() > 0.5
