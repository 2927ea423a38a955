"""Federation assembly tests: determinism and controlled comparisons."""

import multiprocessing

import numpy as np
import pytest

from repro.attacks import AttackScenario, no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg, FedGuard, Spectral
from repro.experiments import run_cell
from repro.fl.simulation import build_federation, run_federation


class TestDeterminism:
    def test_same_seed_same_history(self):
        config = FederationConfig.tiny()
        h1 = run_federation(config, FedAvg(), no_attack())
        h2 = run_federation(config, FedAvg(), no_attack())
        np.testing.assert_array_equal(h1.accuracies, h2.accuracies)

    def test_different_seed_different_history(self):
        h1 = run_federation(FederationConfig.tiny(seed=1), FedAvg(), no_attack())
        h2 = run_federation(FederationConfig.tiny(seed=2), FedAvg(), no_attack())
        assert not np.array_equal(h1.accuracies, h2.accuracies)

    def test_federation_identical_across_strategies(self):
        """Different strategies must see the same partition and the same
        malicious designation — the controlled-comparison property."""
        config = FederationConfig.tiny()
        scenario = AttackScenario.sign_flipping(0.5)
        s1 = build_federation(config, FedAvg(), scenario)
        s2 = build_federation(config, FedGuard(), scenario)
        for c1, c2 in zip(s1.clients, s2.clients):
            np.testing.assert_array_equal(c1.dataset.features, c2.dataset.features)
            assert c1.is_malicious == c2.is_malicious
        np.testing.assert_array_equal(s1.global_weights, s2.global_weights)


class TestAssembly:
    def test_partition_sizes_sum_to_train(self):
        config = FederationConfig.tiny()
        server = build_federation(config, FedAvg(), no_attack())
        assert sum(len(c.dataset) for c in server.clients) == config.train_samples

    def test_malicious_fraction_respected(self):
        config = FederationConfig.tiny()
        scenario = AttackScenario.same_value(0.5)
        server = build_federation(config, FedAvg(), scenario)
        malicious = sum(c.is_malicious for c in server.clients)
        assert malicious == round(config.n_clients * 0.5)

    def test_auxiliary_only_for_strategies_that_need_it(self):
        config = FederationConfig.tiny()
        assert build_federation(config, FedAvg(), no_attack()).context.auxiliary_dataset is None
        assert build_federation(config, Spectral(
            pretrain_rounds=1, pseudo_clients=2, vae_epochs=2, pretrain_epochs=1
        ), no_attack()).context.auxiliary_dataset is not None

    def test_default_scenario_is_benign(self):
        config = FederationConfig.tiny()
        server = build_federation(config, FedAvg())
        assert server.scenario_name == "no_attack"
        assert not any(c.is_malicious for c in server.clients)

    def test_initial_weights_override(self):
        config = FederationConfig.tiny()
        probe = build_federation(config, FedAvg(), no_attack())
        custom = np.zeros_like(probe.global_weights)
        server = build_federation(config, FedAvg(), no_attack(), initial_weights=custom)
        np.testing.assert_array_equal(server.global_weights, custom)
        assert server.global_weights is not custom  # defensive copy


class TestHistoryDerivation:
    def test_tail_stats(self):
        config = FederationConfig.tiny(rounds=4)
        history = run_federation(config, FedAvg(), no_attack())
        mean, std = history.tail_stats(skip_fraction=0.25)
        np.testing.assert_allclose(mean, history.accuracies[1:].mean())
        assert std >= 0.0

    def test_comm_per_round_positive(self):
        history = run_federation(FederationConfig.tiny(), FedAvg(), no_attack())
        comm = history.comm_per_round()
        assert comm["total_bytes"] > 0
        assert comm["server_download_bytes"] > 0


class TestBackendLifetime:
    """``run_federation`` owns the backend it builds and closes it."""

    @staticmethod
    def _new_children(before) -> list:
        return [p for p in multiprocessing.active_children() if p not in before]

    def test_process_cell_leaves_no_workers(self):
        before = set(multiprocessing.active_children())
        config = FederationConfig.tiny(backend="process", backend_workers=2,
                                       rounds=1)
        run_cell(config, "fedavg", "no_attack")
        assert self._new_children(before) == []

    def test_resumed_process_run_leaves_no_workers(self, tmp_path):
        config = FederationConfig.tiny(backend="process", backend_workers=2,
                                       rounds=2, checkpoint_every=1)
        path = tmp_path / "federation.ckpt"
        server = build_federation(config, FedAvg(), no_attack())
        try:
            server.run(rounds=1, checkpoint_path=path)
        finally:
            server.backend.close()
        before = set(multiprocessing.active_children())
        history = run_federation(config, FedAvg(), no_attack(),
                                 resume_from=path)
        assert len(history.rounds) == 2
        assert self._new_children(before) == []
