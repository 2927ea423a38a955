"""Client sampler tests."""

import numpy as np
import pytest

from repro.attacks import AttackScenario
from repro.config import FederationConfig
from repro.defenses import FedGuard
from repro.fl import ReputationSampler, UniformSampler
from repro.fl.history import RoundRecord
from repro.fl.simulation import build_federation


def record(sampled, accepted):
    return RoundRecord(
        round_idx=1, accuracy=0.9, sampled_ids=sampled,
        accepted_ids=accepted, rejected_ids=[i for i in sampled if i not in accepted],
        malicious_sampled=0, malicious_accepted=0,
        upload_nbytes=0, download_nbytes=0, duration_s=0.1,
    )


class TestUniformSampler:
    def test_samples_without_replacement(self, rng):
        ids = UniformSampler().sample(10, 6, rng)
        assert len(ids) == 6
        assert len(np.unique(ids)) == 6

    def test_covers_population_over_time(self):
        sampler = UniformSampler()
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(50):
            seen.update(sampler.sample(10, 3, rng).tolist())
        assert seen == set(range(10))


class TestReputationSampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReputationSampler(decay=1.0)
        with pytest.raises(ValueError):
            ReputationSampler(epsilon=0.0)

    def test_starts_optimistic(self, rng):
        sampler = ReputationSampler()
        np.testing.assert_array_equal(sampler.reputation(5), np.ones(5))

    def test_rejections_lower_reputation(self, rng):
        sampler = ReputationSampler(decay=0.5)
        sampler.sample(4, 2, rng)  # initialize
        sampler.observe(record(sampled=[0, 1], accepted=[0]))
        rep = sampler.reputation(4)
        assert rep[1] < rep[0]
        assert rep[0] == pytest.approx(1.0)   # accepted: 0.5*1 + 0.5*1
        assert rep[1] == pytest.approx(0.5)   # rejected: 0.5*1 + 0.5*0

    def test_low_reputation_sampled_less(self):
        sampler = ReputationSampler(decay=0.1, epsilon=0.05)
        rng = np.random.default_rng(0)
        sampler.sample(10, 2, rng)
        # hammer client 9's reputation down
        for _ in range(10):
            sampler.observe(record(sampled=[9, 0], accepted=[0]))
        counts = np.zeros(10)
        for _ in range(300):
            for cid in sampler.sample(10, 3, rng):
                counts[cid] += 1
        assert counts[9] < counts[0] * 0.5

    def test_epsilon_keeps_everyone_reachable(self):
        sampler = ReputationSampler(decay=0.1, epsilon=0.3)
        rng = np.random.default_rng(1)
        sampler.sample(5, 2, rng)
        for _ in range(20):
            sampler.observe(record(sampled=[4], accepted=[]))
        seen = set()
        for _ in range(200):
            seen.update(sampler.sample(5, 2, rng).tolist())
        assert 4 in seen

    def test_population_resize_is_graceful(self, rng):
        # Virtual populations make N a free parameter: growing keeps all
        # touched reputations, shrinking drops the ones beyond the range.
        sampler = ReputationSampler(decay=0.5)
        sampler.sample(5, 2, rng)
        sampler.observe(record(sampled=[1, 4], accepted=[1]))
        ids = sampler.sample(8, 3, rng)
        assert len(ids) == 3 and ids.max() < 8
        rep = sampler.reputation(8)
        assert rep[4] == pytest.approx(0.5)
        rep = sampler.reputation(3)  # shrink below cid 4
        np.testing.assert_array_equal(rep, np.ones(3))
        assert sampler.reputation(8)[4] == pytest.approx(1.0)  # dropped

    def test_sparse_path_respects_reputation(self, monkeypatch):
        # Above the EXACT_BELOW threshold the two-group draw must still
        # sample hammered clients less and keep costs off O(n_clients).
        monkeypatch.setattr("repro.fl.sampling.EXACT_BELOW", 1)
        sampler = ReputationSampler(decay=0.1, epsilon=0.05)
        rng = np.random.default_rng(0)
        sampler.sample(10, 2, rng)
        for _ in range(10):
            sampler.observe(record(sampled=[9, 0], accepted=[0]))
        counts = np.zeros(10)
        for _ in range(300):
            ids = sampler.sample(10, 3, rng)
            assert len(np.unique(ids)) == 3
            for cid in ids:
                counts[cid] += 1
        assert counts[9] < counts[0] * 0.5

    def test_sparse_path_scales_to_huge_populations(self, monkeypatch):
        monkeypatch.setattr("repro.fl.sampling.EXACT_BELOW", 1 << 10)
        sampler = ReputationSampler()
        rng = np.random.default_rng(0)
        ids = sampler.sample(1_000_000, 500, rng)
        assert len(ids) == 500
        assert len(np.unique(ids)) == 500
        sampler.observe(record(sampled=ids.tolist(), accepted=ids[:250].tolist()))
        ids2 = sampler.sample(1_000_000, 500, rng)
        assert len(np.unique(ids2)) == 500


class TestFloydSample:
    def test_uniform_subset(self):
        from repro.fl.sampling import floyd_sample

        rng = np.random.default_rng(0)
        counts = np.zeros(8)
        for _ in range(4000):
            ids = floyd_sample(8, 3, rng)
            assert len(np.unique(ids)) == 3
            counts[ids] += 1
        # each of the 8 ids appears in 3/8 of samples
        expected = 4000 * 3 / 8
        assert np.all(np.abs(counts - expected) < 0.15 * expected)

    def test_bounds(self):
        from repro.fl.sampling import floyd_sample

        rng = np.random.default_rng(0)
        assert floyd_sample(5, 0, rng).size == 0
        assert sorted(floyd_sample(5, 5, rng).tolist()) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            floyd_sample(3, 4, rng)

    def test_uniform_sampler_switches_to_floyd(self, monkeypatch):
        monkeypatch.setattr("repro.fl.sampling.EXACT_BELOW", 10)
        sampler = UniformSampler()
        rng = np.random.default_rng(0)
        ids = sampler.sample(1_000_000, 100, rng)
        assert len(np.unique(ids)) == 100


class TestServerIntegration:
    def test_reputation_tracks_strategy_rejections(self):
        """Wire a sampler into a real server with a strategy that (by
        construction) always rejects a fixed client set: their reputation
        must sink below everyone else's, and they must get sampled less."""
        from repro.fl.strategy import AggregationResult, Strategy, weighted_average

        BAD = {0, 1}

        class ScriptedStrategy(Strategy):
            name = "scripted"

            def aggregate(self, round_idx, updates, global_weights, context):
                accepted = [u for u in updates if u.client_id not in BAD]
                rejected = [u.client_id for u in updates if u.client_id in BAD]
                if not accepted:
                    accepted = updates
                    rejected = []
                return AggregationResult(
                    weights=weighted_average(accepted),
                    accepted_ids=[u.client_id for u in accepted],
                    rejected_ids=rejected,
                )

        config = FederationConfig.tiny(rounds=6, local_epochs=1)
        sampler = ReputationSampler(decay=0.3, epsilon=0.2)
        server = build_federation(config, ScriptedStrategy(), sampler=sampler)
        server.run()
        rep = sampler.reputation(config.n_clients)
        bad = np.array([cid in BAD for cid in range(config.n_clients)])
        assert rep[bad].max() < rep[~bad].min()
