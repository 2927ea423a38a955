"""Server round-loop tests: sampling, aggregation, server lr, accounting."""

import numpy as np
import pytest

from repro import nn
from repro.attacks import AttackScenario, no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg
from repro.fl import ClientUpdate, Server
from repro.fl.batched import BatchedEngine
from repro.fl.simulation import build_federation
from repro.fl.strategy import AggregationResult, Strategy
from repro.fl.transport import LossyChannel


class ConstantStrategy(Strategy):
    """Returns a fixed vector — isolates the server's own arithmetic."""

    name = "constant"

    def __init__(self, value: float) -> None:
        self.value = value

    def aggregate(self, round_idx, updates, global_weights, context):
        return AggregationResult(
            weights=np.full_like(global_weights, self.value),
            accepted_ids=[u.client_id for u in updates],
            rejected_ids=[],
        )


def make_server(strategy=None, scenario=None, **config_overrides):
    config = FederationConfig.tiny(**config_overrides)
    return build_federation(config, strategy or FedAvg(), scenario or no_attack())


class TestSampling:
    def test_samples_m_distinct_clients(self):
        server = make_server()
        sampled = server.sample_clients()
        assert len(sampled) == server.config.clients_per_round
        assert len({c.client_id for c in sampled}) == len(sampled)


class TestServerLearningRate:
    def test_full_lr_replaces_global(self):
        server = make_server(strategy=ConstantStrategy(5.0), server_lr=1.0)
        server.run_round(1)
        np.testing.assert_allclose(server.global_weights, 5.0)

    def test_partial_lr_blends(self):
        server = make_server(strategy=ConstantStrategy(0.0), server_lr=0.5)
        start = server.global_weights.copy()
        server.run_round(1)
        np.testing.assert_allclose(server.global_weights, start * 0.5)

    def test_invalid_server_lr_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig.tiny(server_lr=0.0)
        with pytest.raises(ValueError):
            FederationConfig.tiny(server_lr=1.5)


class TestRoundRecord:
    def test_fields_consistent(self):
        server = make_server(scenario=AttackScenario.sign_flipping(0.5))
        record = server.run_round(1)
        m = server.config.clients_per_round
        assert len(record.sampled_ids) == m
        assert set(record.accepted_ids) | set(record.rejected_ids) <= set(record.sampled_ids)
        assert 0.0 <= record.accuracy <= 1.0
        assert record.malicious_accepted <= record.malicious_sampled
        assert record.duration_s > 0

    def test_byte_accounting_fedavg(self):
        server = make_server()
        record = server.run_round(1)
        m = server.config.clients_per_round
        classifier_bytes = server.global_weights.size * nn.WIRE_BYTES_PER_PARAM
        assert record.download_nbytes == m * classifier_bytes
        assert record.upload_nbytes == m * classifier_bytes  # no decoders

    def test_run_produces_history(self):
        server = make_server()
        history = server.run(rounds=2)
        assert len(history) == 2
        assert history.strategy_name == "fedavg"
        assert history.scenario_name == "no_attack"


class TestHandBuiltServer:
    def test_channel_and_backend_follow_config(self):
        stock = make_server()
        config = FederationConfig.tiny(
            rounds=1, channel="lossy", channel_drop_prob=1.0, engine="batched"
        )
        server = Server(
            clients=list(stock.clients), strategy=FedAvg(), config=config,
            test_dataset=stock.test_dataset, context=stock.context,
            rng=np.random.default_rng(0),
        )
        assert isinstance(server.channel, LossyChannel)
        assert isinstance(server.backend.engine, BatchedEngine)
        record = server.run_round(1)
        assert record.broadcasts_dropped == config.clients_per_round == 4
        assert record.sampled_ids == []


class TestEvaluate:
    def test_uses_given_weights(self):
        server = make_server()
        zeros = np.zeros_like(server.global_weights)
        acc = server.evaluate(zeros)
        assert 0.0 <= acc <= 1.0

    def test_empty_clients_rejected(self):
        server = make_server()
        with pytest.raises(ValueError):
            Server(
                clients=[], strategy=FedAvg(), config=server.config,
                test_dataset=server.test_dataset, context=server.context,
                rng=np.random.default_rng(0),
            )
