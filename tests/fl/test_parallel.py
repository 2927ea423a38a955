"""Execution backend tests: sequential/parallel equivalence."""

import sys
import weakref

import numpy as np
import pytest

from repro import nn
from repro.attacks import AttackScenario, no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg, FedGuard
from repro.fl import ProcessPoolBackend, SequentialBackend
from repro.fl.simulation import build_federation
from repro.models import build_classifier


class TestSequentialBackend:
    def test_returns_updates_and_times(self):
        server = build_federation(FederationConfig.tiny(), FedAvg(), no_attack())
        participants = server.sample_clients()
        updates, times = SequentialBackend().fit_clients(
            participants, server.global_weights, include_decoder=False
        )
        assert len(updates) == len(participants) == len(times)
        assert all(t > 0 for t in times)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before 3.11 a caller holds its arguments until the call returns"))
    def test_predict_releases_the_weight_matrix_before_scoring(self, monkeypatch):
        # The shell holds a copy of the (K, P) rows once they are stacked,
        # so the matrix predict_each passes in is dead while the shell scores.
        model = FederationConfig.tiny().model
        shell = build_classifier(model)
        refs, alive = [], []

        def matrix():
            weights = np.stack([nn.parameters_to_vector(shell)] * 3)
            refs.append(weakref.ref(weights))
            return weights

        predict = type(shell).predict

        def scoring(self, *args, **kwargs):
            alive.append(refs[0]() is not None)
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(type(shell), "predict", scoring)
        preds = SequentialBackend().predict(shell, matrix(), np.zeros((5, model.input_dim)))
        assert preds.shape == (3, 5)
        assert alive == [False]


class TestProcessPoolBackend:
    def test_equivalent_to_sequential(self):
        """The parallel backend must produce bit-identical federations."""
        config = FederationConfig.tiny()
        seq_server = build_federation(config, FedAvg(), no_attack())
        seq_history = seq_server.run()

        with ProcessPoolBackend(max_workers=2) as backend:
            par_server = build_federation(
                config, FedAvg(), no_attack(), backend=backend
            )
            par_history = par_server.run()

        np.testing.assert_allclose(seq_history.accuracies, par_history.accuracies)
        np.testing.assert_allclose(
            seq_server.global_weights, par_server.global_weights
        )

    def test_decoders_written_back(self):
        """The train-once CVAE contract must survive process shipping: after
        a parallel round, the main-process clients hold their decoders."""
        config = FederationConfig.tiny()
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedGuard(), AttackScenario.same_value(0.5), backend=backend
            )
            server.run_round(1)
            sampled_with_decoder = [
                c for c in server.clients if c._decoder_vector is not None
            ]
            assert len(sampled_with_decoder) >= config.clients_per_round
            # Versions come back too — the pool's IPC dedup ships a
            # decoder once per version.
            assert all(c._decoder_version == 1 for c in sampled_with_decoder)

    def test_negative_max_workers_refused(self):
        # range(-2) would start no worker, and round 1 would fail later
        # with a KeyError for the first client nobody answered.
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=-2)
        for count in (None, 0):
            assert ProcessPoolBackend(max_workers=count).max_workers == count

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.close()
        backend.close()

    def test_close_and_reuse_restarts_workers(self):
        # close() discards only the workers' cached clients: the restarted
        # pool builds them from the population, which holds every fitted
        # client's state, so the run reads the sequential history.
        config = FederationConfig.tiny(
            rounds=3, local_epochs=3, client_lr=0.2, train_samples=600,
            clients_per_round=6,
        )
        seq_server = build_federation(config, FedAvg(), no_attack())
        seq_history = seq_server.run()
        backend = ProcessPoolBackend(max_workers=2)
        try:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            history = server.run(rounds=1)
            backend.close()
            history = server.run(history=history)  # lazily restarts the pool
        finally:
            backend.close()
        np.testing.assert_array_equal(history.accuracies, seq_history.accuracies)
        np.testing.assert_array_equal(server.global_weights, seq_server.global_weights)

