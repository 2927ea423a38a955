"""Unit tests for the lazy virtual client population."""

import numpy as np
import pytest

from repro.attacks import no_attack
from repro.config import FederationConfig
from repro.data.partition import partition_indices
from repro.defenses import FedAvg
from repro.fl.population import (
    CSRPartition,
    EagerPopulation,
    PackedStateStore,
    SeedParent,
    VirtualClientPopulation,
    VirtualPartition,
)
from repro.fl.simulation import build_federation
from repro.experiments import SCENARIO_FACTORIES, STRATEGY_FACTORIES


def lazy_server(**overrides):
    config = FederationConfig.tiny(**overrides)
    return build_federation(
        config,
        STRATEGY_FACTORIES["fedavg"](),
        SCENARIO_FACTORIES["no_attack"](),
    )


class TestSeedParent:
    def test_child_matches_eager_spawn(self):
        eager = np.random.default_rng(42)
        lazy = np.random.default_rng(42)
        parent = SeedParent.capture(lazy)
        children = eager.bit_generator.seed_seq.spawn(8)
        for i in (0, 3, 7):
            assert parent.child(i).generate_state(4).tolist() == \
                children[i].generate_state(4).tolist()

    def test_capture_respects_prior_spawns(self):
        rng = np.random.default_rng(7)
        rng.bit_generator.seed_seq.spawn(3)  # advance n_children_spawned
        parent = SeedParent.capture(rng)
        eager = rng.bit_generator.seed_seq.spawn(2)
        assert parent.child(0).generate_state(4).tolist() == \
            eager[0].generate_state(4).tolist()

    def test_generator_draws_match(self):
        rng = np.random.default_rng(0)
        parent = SeedParent.capture(rng)
        eager_children = rng.spawn(4)
        for i in range(4):
            np.testing.assert_array_equal(
                parent.generator(i).integers(0, 1 << 30, size=5),
                eager_children[i].integers(0, 1 << 30, size=5),
            )


class TestCSRPartition:
    def test_round_trips_eager_parts(self, rng):
        labels = rng.integers(0, 10, size=200)
        parts = partition_indices(labels, n_clients=7, rng=rng)
        csr = CSRPartition(parts)
        assert csr.n_clients == 7
        for cid in range(7):
            np.testing.assert_array_equal(csr.indices_for(cid), parts[cid])

    def test_empty_and_ragged_parts(self):
        parts = [np.array([3, 1]), np.array([], dtype=np.int64), np.array([5])]
        csr = CSRPartition(parts)
        assert csr.indices_for(1).size == 0
        np.testing.assert_array_equal(csr.indices_for(2), [5])


class TestVirtualPartition:
    def test_matches_eager_virtual_scheme(self):
        labels = np.zeros(100, dtype=np.int64)
        eager_rng = np.random.default_rng(5)
        lazy_rng = np.random.default_rng(5)
        parts = partition_indices(
            labels, n_clients=6, rng=eager_rng, scheme="virtual",
            samples_per_client=9,
        )
        vp = VirtualPartition(
            n_samples=100, n_clients=6, samples_per_client=9,
            parent=SeedParent.capture(lazy_rng),
        )
        assert vp.n_clients == 6
        for cid in range(6):
            np.testing.assert_array_equal(vp.indices_for(cid), parts[cid])

    def test_rejects_nonpositive_draw_count(self):
        with pytest.raises(ValueError):
            VirtualPartition(10, 2, 0, SeedParent.capture(np.random.default_rng(0)))


class TestPackedStateStore:
    def pcg_state(self, seed):
        return {
            "rng_state": np.random.default_rng(seed).bit_generator.state,
            "decoder_vector": np.arange(4, dtype=np.float64),
            "decoder_version": 2,
            "stream": None,
            "dataset": None,
        }

    def test_pack_unpack_round_trip(self):
        store = PackedStateStore()
        state = self.pcg_state(123)
        store.pack(9, state)
        out = store.unpack(9)
        assert out["rng_state"] == state["rng_state"]
        assert out["decoder_version"] == 2
        np.testing.assert_array_equal(out["decoder_vector"], state["decoder_vector"])
        assert out["stream"] is None and out["dataset"] is None

    def test_none_decoder_clears_side_table(self):
        store = PackedStateStore()
        store.pack(1, self.pcg_state(0))
        state = self.pcg_state(0)
        state["decoder_vector"] = None
        store.pack(1, state)
        assert store.unpack(1)["decoder_vector"] is None

    def test_growth_past_initial_capacity(self, monkeypatch):
        monkeypatch.setattr("repro.fl.population.INITIAL_CAPACITY", 2)
        store = PackedStateStore()
        for cid in range(9):
            state = self.pcg_state(cid)
            state["decoder_version"] = cid
            store.pack(cid, state)
        assert len(store) == 9
        assert store.touched_ids() == list(range(9))
        for cid in range(9):
            assert store.unpack(cid)["decoder_version"] == cid

    def test_non_pcg64_rng_refused(self):
        store = PackedStateStore()
        state = self.pcg_state(0)
        state["rng_state"] = np.random.MT19937(11).state
        with pytest.raises(ValueError, match="client 4.*PCG64.*MT19937"):
            store.pack(4, state)
        assert 4 not in store and len(store) == 0


class TestLazyClientView:
    def test_sequence_protocol(self):
        server = lazy_server()
        view = server.clients
        n = server.config.n_clients
        assert isinstance(server.population, VirtualClientPopulation)
        assert len(view) == n
        assert view[0].client_id == 0
        assert view[-1].client_id == n - 1
        assert [c.client_id for c in view[1:3]] == [1, 2]
        assert [c.client_id for c in view] == list(range(n))
        with pytest.raises(IndexError):
            view[n]

    def test_indexing_materializes_fresh_identical_clients(self):
        server = lazy_server()
        a, b = server.clients[2], server.clients[2]
        assert a is not b
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features)


class TestVirtualClientPopulation:
    def test_checkin_checkout_round_trips_mutation(self):
        server = lazy_server()
        pop = server.population
        [client] = pop.checkout([3])
        client.rng.integers(0, 100, size=7)  # consume draws
        pop.checkin([client])
        assert pop.touched_ids() == [3]
        [again] = pop.checkout([3])
        assert again.rng.bit_generator.state == client.rng.bit_generator.state

    def test_untouched_clients_stay_off_checkpoint(self):
        server = lazy_server()
        record = server.run_round(0)
        pop = server.population
        assert set(pop.checkpoint_ids()) == set(record.sampled_ids)

    def test_import_state_restores(self):
        server = lazy_server()
        pop = server.population
        [client] = pop.checkout([1])
        client.rng.integers(0, 100, size=3)
        pop.checkin([client])
        state = pop.state_for(1)

        other = lazy_server().population
        other.import_state(1, state)
        [restored] = other.checkout([1])
        assert restored.rng.bit_generator.state == client.rng.bit_generator.state

    def test_malicious_flags_match_eager(self):
        # The designation a one-object-per-client build would install:
        # the scenario's draw from the third root stream.
        config = FederationConfig.tiny()
        scenario = SCENARIO_FACTORIES["label_flipping_30"]()
        lazy = build_federation(
            config, STRATEGY_FACTORIES["fedavg"](), scenario
        )
        malicious_rng = np.random.default_rng(config.seed).spawn(7)[2]
        malicious_ids = scenario.malicious_ids(config.n_clients, malicious_rng)
        assert 0 < len(malicious_ids) < config.n_clients
        for client in lazy.clients:
            assert client.is_malicious == (client.client_id in malicious_ids)


class TestEagerPopulation:
    def test_wraps_live_list(self):
        from repro.fl.server import Server

        built = lazy_server()
        server = Server(
            clients=list(built.clients),
            strategy=STRATEGY_FACTORIES["fedavg"](),
            config=built.config,
            test_dataset=built.test_dataset,
            context=built.context,
            rng=np.random.default_rng(0),
        )
        pop = server.population
        assert isinstance(pop, EagerPopulation)
        [a] = pop.checkout([2])
        [b] = pop.checkout([2])
        assert a is b  # live objects are the durable state
        assert pop.checkpoint_ids() == list(range(server.config.n_clients))


class TestServerPopulationWiring:
    def test_rejects_both_clients_and_population(self):
        from repro.fl.server import Server

        server = lazy_server()
        with pytest.raises(ValueError):
            Server(
                clients=list(server.clients),
                strategy=STRATEGY_FACTORIES["fedavg"](),
                config=server.config,
                test_dataset=server.test_dataset,
                population=server.population,
            )

    def test_rejects_empty(self):
        from repro.fl.server import Server

        server = lazy_server()
        with pytest.raises(ValueError):
            Server(
                clients=[],
                strategy=STRATEGY_FACTORIES["fedavg"](),
                config=server.config,
                test_dataset=server.test_dataset,
            )

    @pytest.mark.parametrize("overrides", [
        {},
        {"server_mode": "async", "buffer_size": 3},
    ], ids=["sync", "async"])
    def test_aggregate_reads_each_participant_as_fitted(self, overrides):
        # A round checks its participants in as soon as their fits return,
        # so a strategy reading the population during aggregate sees each
        # update's client as the fit left it: the state the round ends with.
        seen = {}

        class ReadsPopulation(FedAvg):
            def aggregate(self, round_idx, updates, global_weights, context):
                for update in updates:
                    seen[round_idx, update.client_id] = (
                        server.population.state_for(update.client_id)["rng_state"]
                    )
                return super().aggregate(round_idx, updates, global_weights, context)

        config = FederationConfig.tiny(rounds=3, **overrides)
        server = build_federation(config, ReadsPopulation(), no_attack())
        for round_idx in range(1, config.rounds + 1):
            record = server.run_round(round_idx)
            assert record.sampled_ids
            for cid in record.sampled_ids:
                assert seen[round_idx, cid] == (
                    server.population.state_for(cid)["rng_state"]
                )
