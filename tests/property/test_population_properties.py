"""Property-based tests: lazy populations are bit-identical to eager ones.

The lazy `VirtualClientPopulation` claims exact equivalence with building
every client up front: same per-client RNG streams, same partition
membership, same attack designation, same stream draws — for any seed,
any scheme, any population size. These properties pin that contract
against a test-only eager oracle, plus the packed-state round-trip that
checkpoint/resume leans on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FederationConfig
from repro.data import SynthMnistConfig, generate_dataset, partition_indices
from repro.data.stream import SynthMnistStream
from repro.experiments import SCENARIO_FACTORIES, STRATEGY_FACTORIES
from repro.fl.client import FLClient
from repro.fl.simulation import build_federation, federation_state, restore_federation


def build_eager_clients(config, scenario):
    """Test-only oracle: the partition and one live client per id, built up front.

    Replays ``build_federation``'s seeding discipline by hand — the root
    stream spawned into the same seven children in the same order, the
    partition derived over the whole pool, ``clients_rng.spawn(n)[cid]``
    for training and ``data_rng.spawn(n)[cid]`` for streams — so the lazy
    population is checked against the spawns themselves rather than
    against its own index arithmetic.
    """
    data_rng, partition_rng, malicious_rng, clients_rng, *_ = (
        np.random.default_rng(config.seed).spawn(7)
    )
    synth_cfg = SynthMnistConfig(image_size=config.model.image_size)
    train = generate_dataset(config.train_samples, data_rng, synth_cfg)
    parts = partition_indices(
        train.labels,
        config.n_clients,
        partition_rng,
        scheme=config.partition_scheme,
        alpha=config.partition_alpha,
        samples_per_client=config.virtual_samples_per_client,
    )
    malicious_ids = scenario.malicious_ids(config.n_clients, malicious_rng)
    client_rngs = clients_rng.spawn(config.n_clients)
    # Dataset generation draws from data_rng but never spawns from it, so
    # the stream children do not depend on the splits generated before.
    streams = [None] * config.n_clients
    if config.stream_samples_per_round > 0:
        streams = [
            SynthMnistStream(rng, synth_cfg)
            for rng in data_rng.spawn(config.n_clients)
        ]
    return parts, [
        FLClient(
            client_id=cid,
            dataset=train.subset(parts[cid]),
            config=config,
            rng=client_rngs[cid],
            attack=scenario.attack if cid in malicious_ids else None,
            stream=streams[cid],
        )
        for cid in range(config.n_clients)
    ]


def build_pair(seed, n_clients, scheme, scenario_name, streaming=False):
    """(lazy_server, (eager_parts, eager_clients)) for one configuration."""
    overrides = dict(
        seed=seed,
        n_clients=n_clients,
        clients_per_round=min(4, n_clients),
        partition_scheme=scheme,
        train_samples=max(240, 4 * n_clients),
    )
    if scheme == "pathological":
        # shards must divide the pool: keep it exact
        overrides["train_samples"] = 2 * n_clients * 10
    if streaming:
        overrides["stream_samples_per_round"] = 2
    config = FederationConfig.tiny(**overrides)
    lazy = build_federation(
        config,
        STRATEGY_FACTORIES["fedavg"](),
        SCENARIO_FACTORIES[scenario_name](),
    )
    return lazy, build_eager_clients(config, SCENARIO_FACTORIES[scenario_name]())


def assert_clients_identical(population, eager, cid, check_stream=False):
    parts, eager_clients = eager
    lazy_client, eager_client = population.materialize(cid), eager_clients[cid]
    assert lazy_client.client_id == eager_client.client_id == cid
    assert lazy_client.rng.bit_generator.state == eager_client.rng.bit_generator.state
    np.testing.assert_array_equal(population.partition.indices_for(cid), parts[cid])
    assert lazy_client.is_malicious == eager_client.is_malicious
    np.testing.assert_array_equal(
        lazy_client.dataset.features, eager_client.dataset.features
    )
    np.testing.assert_array_equal(
        lazy_client.dataset.labels, eager_client.dataset.labels
    )
    if check_stream:
        assert (lazy_client.stream is None) == (eager_client.stream is None)
        if lazy_client.stream is not None:
            a = lazy_client.stream.next_batch(3)
            b = eager_client.stream.next_batch(3)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)


class TestLazyEagerEquivalence:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_clients=st.sampled_from([6, 17, 48]),
        scheme=st.sampled_from(["dirichlet", "iid", "virtual"]),
        scenario=st.sampled_from(["no_attack", "label_flipping_30"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_client_constructs_identically(
        self, seed, n_clients, scheme, scenario
    ):
        lazy, eager = build_pair(seed, n_clients, scheme, scenario)
        for cid in range(n_clients):
            assert_clients_identical(lazy.population, eager, cid)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_streaming_clients_draw_identically(self, seed):
        lazy, eager = build_pair(seed, 8, "iid", "no_attack", streaming=True)
        for cid in range(8):
            assert_clients_identical(lazy.population, eager, cid, check_stream=True)

    def test_equivalence_at_scale(self):
        # A few hundred clients: construction-level equality, no training.
        lazy, eager = build_pair(0, 300, "virtual", "label_flipping_30")
        for cid in (0, 1, 149, 298, 299):
            assert_clients_identical(lazy.population, eager, cid)


class TestPackedStateRoundTrip:
    @given(
        seed=st.integers(0, 2**31 - 1),
        draws=st.integers(0, 40),
        cid=st.integers(0, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_checkout_checkin_preserves_state(self, seed, draws, cid):
        lazy, _ = build_pair(seed, 6, "iid", "no_attack")
        pop = lazy.population
        [client] = pop.checkout([cid])
        client.rng.integers(0, 1 << 30, size=draws)
        before = client.state_dict()
        pop.checkin([client])
        [restored] = pop.checkout([cid])
        after = restored.state_dict()
        assert after["rng_state"] == before["rng_state"]
        assert after["decoder_version"] == before["decoder_version"]

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_checkpoint_resume_round_trip(self, seed):
        config = FederationConfig.tiny(seed=seed, rounds=2)
        server = build_federation(
            config,
            STRATEGY_FACTORIES["fedavg"](),
            SCENARIO_FACTORIES["no_attack"](),
        )
        history = server.run(rounds=1)
        state = federation_state(server, history)
        restored, restored_history = restore_federation(state)
        final = server.run(rounds=2, history=history)
        final_restored = restored.run(rounds=2, history=restored_history)
        assert [r.accuracy for r in final.rounds] == \
            [r.accuracy for r in final_restored.rounds]
        assert [r.sampled_ids for r in final.rounds] == \
            [r.sampled_ids for r in final_restored.rounds]
