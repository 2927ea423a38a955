"""Worker-resident backend tests: equivalence, stickiness, reuse, and dedup.

The resident :class:`~repro.fl.parallel.ProcessPoolBackend` keeps clients
cached inside persistent worker processes, each built there from the
server's population the first time a round names it, and returns every
fitted client's state to that population. Rounds ship client ids, the
global vector via shared memory, and each decoder at most once per
version. None of that may change a single bit of any federation — the
sequential backend is the referee, across every registered strategy,
through a lossy channel, on a pool reused for another federation, and on
a pool that loses a worker.
"""

import multiprocessing
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.attacks import AttackScenario, no_attack
from repro.attacks.optimized import DirectedDeviationAttack
from repro.config import FederationConfig
from repro.defenses import FedAvg, FedGuard
from repro.experiments.scenarios import STRATEGY_FACTORIES, make_strategy
from repro.experiments.storage import history_to_dict
from repro.fl import (
    FaultPlan,
    FaultyChannel,
    InMemoryChannel,
    LossyChannel,
    ProcessPoolBackend,
    SequentialBackend,
    build_federation,
    make_backend,
)
from repro.fl.parallel import _resident_worker_main
from repro.fl.simulation import federation_state, restore_federation


def _strip_clocks(history) -> dict:
    data = history_to_dict(history)
    for r in data["rounds"]:
        r.pop("duration_s")
        r["metrics"] = {
            k: v for k, v in r["metrics"].items() if not k.endswith("_s")
        }
    return data


@pytest.mark.slow
@pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
def test_resident_bit_identical_across_strategies_lossy(strategy_name):
    """Every strategy's history — ids, accuracies, byte counts — must be
    bit-identical to sequential execution, even with 30 % message loss."""
    config = FederationConfig.tiny()
    scenario = AttackScenario.sign_flipping(0.5)
    seq = build_federation(
        config, make_strategy(strategy_name), scenario,
        backend=SequentialBackend(),
        channel=LossyChannel(0.3, seed=config.seed),
    ).run(rounds=2)
    with ProcessPoolBackend(max_workers=2) as backend:
        res = build_federation(
            config, make_strategy(strategy_name), scenario,
            backend=backend,
            channel=LossyChannel(0.3, seed=config.seed),
        ).run(rounds=2)
    assert _strip_clocks(seq) == _strip_clocks(res)


class TestStickyPlacementAndStreams:
    def test_streaming_clients_identical_under_sticky_placement(self):
        """Stream position and retention windows live worker-side; sticky
        placement must keep them bit-consistent with sequential runs."""
        config = FederationConfig.tiny(
            rounds=3, stream_samples_per_round=10, stream_window=45,
            cvae_refresh_every=2,
        )
        seq = build_federation(config, FedGuard(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            res = build_federation(
                config, FedGuard(), no_attack(), backend=backend
            ).run()
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_clients_do_not_move_between_workers(self):
        # Full participation: every client is dispatched in every round.
        config = FederationConfig.tiny(rounds=4, clients_per_round=6)
        routed: dict[int, list[tuple[int, int]]] = {}
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            dispatch = backend._dispatch_round

            def recording_dispatch(worker_idx, round_args):
                for cid in round_args[2]:
                    routed.setdefault(cid, []).append((round_args[0], worker_idx))
                dispatch(worker_idx, round_args)

            backend._dispatch_round = recording_dispatch
            history = server.run(rounds=2)
            assert backend.inject_worker_crash(0)
            server.run(history=history)
            assert backend.respawns == 1
        # Sticky mapping is a pure function of the id — nothing to
        # migrate, nothing to rebalance: each client goes to the worker of
        # its residue class in every round, before and after a respawn.
        assert routed == {
            cid: [(round_idx, cid % 2) for round_idx in range(1, 5)]
            for cid in range(config.n_clients)
        }


class TestPoolReuse:
    """A pool serves one population at a time; reusing it must not keep
    training the previous federation's clients."""

    @staticmethod
    def _config(**overrides):
        return FederationConfig.tiny(
            local_epochs=3, client_lr=0.2, train_samples=600, **overrides
        )

    def test_next_federation_matches_sequential(self):
        config = self._config(rounds=3)
        seq = build_federation(config.replace(seed=1), FedAvg(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            build_federation(config, FedAvg(), no_attack(), backend=backend).run()
            reused = build_federation(
                config.replace(seed=1), FedAvg(), no_attack(), backend=backend
            ).run()
        assert _strip_clocks(seq) == _strip_clocks(reused)

    def test_resume_onto_the_same_pool_matches_sequential(self):
        config = self._config(rounds=4)
        seq = build_federation(config, FedAvg(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            history = server.run(rounds=2)
            state = pickle.loads(pickle.dumps(federation_state(server, history)))
            # The workers advance their clients past the checkpoint.
            server.run(history=history)
            resumed_server, resumed = restore_federation(state, backend=backend)
            resumed = resumed_server.run(history=resumed)
        assert _strip_clocks(seq) == _strip_clocks(resumed)

    def test_pool_swapped_out_and_back_matches_sequential(self):
        # Round 2 runs on another backend; the pool's workers must not
        # fit the round-1 clients they cached when it comes back.
        config = self._config(rounds=3, clients_per_round=6)
        seq = build_federation(config, FedAvg(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as pool:
            server = build_federation(config, FedAvg(), no_attack(), backend=pool)
            history = server.run(rounds=1)
            server.backend = SequentialBackend()
            history = server.run(rounds=2, history=history)
            server.backend = pool
            swapped = server.run(history=history)
        assert _strip_clocks(seq) == _strip_clocks(swapped)


class TestLosingAWorker:
    """The population is the record of client state, so a pool that loses
    a worker — to a scheduled crash, a kill mid-round, or before a
    checkpoint — reads the sequential history."""

    @staticmethod
    def _config(**overrides):
        return FederationConfig.tiny(
            rounds=4, local_epochs=3, client_lr=0.2, train_samples=600,
            clients_per_round=6, **overrides,
        )

    @pytest.mark.parametrize("strategy", [FedAvg, FedGuard])
    @pytest.mark.parametrize("server_mode", ["sync", "async"])
    def test_scheduled_crash_matches_sequential(self, server_mode, strategy):
        extra = {"buffer_size": 3} if server_mode == "async" else {}
        config = self._config(server_mode=server_mode, **extra)

        def run(backend):
            plan = FaultPlan().crash_worker(0, round_idx=3)
            return build_federation(
                config, strategy(), no_attack(), backend=backend,
                channel=FaultyChannel(InMemoryChannel(), plan),
            ).run()

        seq = run(SequentialBackend())
        with ProcessPoolBackend(max_workers=2) as backend:
            res = run(backend)
            assert backend.respawns == 1
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_worker_killed_after_dispatch_matches_sequential(self):
        # The respawn-and-replay path: worker 0 dies holding round 3.
        config = self._config()
        seq = build_federation(config, FedAvg(), no_attack()).run()
        killed = []
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            dispatch = backend._dispatch_round

            def dispatch_then_kill(worker_idx, round_args):
                dispatch(worker_idx, round_args)
                if worker_idx == 0 and round_args[0] == 3 and not killed:
                    process = backend._workers[0].process
                    process.kill()
                    process.join()
                    killed.append(process)

            backend._dispatch_round = dispatch_then_kill
            res = server.run()
            assert killed and backend.respawns == 1
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_checkpoint_after_a_worker_dies_resumes_sequentially(self):
        config = self._config()
        uninterrupted = build_federation(config, FedAvg(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            history = server.run(rounds=2)
            assert backend.inject_worker_crash(0)
            state = pickle.loads(pickle.dumps(federation_state(server, history)))
        resumed_server, resumed = restore_federation(
            state, backend=SequentialBackend()
        )
        resumed = resumed_server.run(history=resumed)
        assert _strip_clocks(uninterrupted) == _strip_clocks(resumed)


class TestRuntimeCollusionRejection:
    def test_directed_deviation_batches_rejected(self):
        config = FederationConfig.tiny(clients_per_round=4)
        scenario = AttackScenario(
            name="directed_deviation_50",
            attack=DirectedDeviationAttack(colluding=True),
            malicious_fraction=0.5,
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), scenario, backend=backend)
            with pytest.raises(RuntimeError, match="runtime-colluding"):
                server.run(rounds=3)

    def test_async_colluders_against_one_global_model_rejected(self):
        # An async window fits one client per call; counting per call let
        # each colluder build its own direction in its own worker.
        config = FederationConfig.tiny(
            server_mode="async", buffer_size=4, async_concurrency=4,
            clients_per_round=4, rounds=3,
        )
        scenario = AttackScenario(
            name="directed_deviation_50",
            attack=DirectedDeviationAttack(colluding=True),
            malicious_fraction=0.5,
        )
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), scenario, backend=backend)
            with pytest.raises(RuntimeError, match="runtime-colluding"):
                server.run()

    def test_single_colluder_async_matches_sequential(self):
        # One colluder per global model is allowed on the pool, so its
        # history must equal the sequential one round for round.
        config = FederationConfig.tiny(
            n_clients=10, train_samples=400, server_mode="async",
            buffer_size=3, async_concurrency=3, clients_per_round=4, rounds=4,
        )

        def scenario():
            return AttackScenario(
                name="directed_deviation_10",
                attack=DirectedDeviationAttack(colluding=True),
                malicious_fraction=0.1,
            )

        seq = build_federation(
            config, FedAvg(), scenario(), backend=SequentialBackend()
        ).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            res = build_federation(config, FedAvg(), scenario(), backend=backend).run()
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_colluders_counted_per_global_model(self):
        attack = DirectedDeviationAttack(colluding=True)
        a, b = (SimpleNamespace(client_id=cid, attack=attack) for cid in (0, 1))
        backend = ProcessPoolBackend(max_workers=1)
        psi = np.zeros(3)
        backend._reject_runtime_collusion([a], psi)
        # A refit against an equal ψ reuses the client's own direction.
        backend._reject_runtime_collusion([a], psi.copy())
        # A new ψ starts a new shared direction.
        backend._reject_runtime_collusion([b], psi + 1.0)
        with pytest.raises(RuntimeError, match="runtime-colluding"):
            backend._reject_runtime_collusion([a], psi + 1.0)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="drives the worker over a forked pipe")
class TestWorkerProtocol:
    @pytest.fixture
    def worker(self):
        """A worker started without a population, and its pipe."""
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe()
        worker = ctx.Process(target=_resident_worker_main, args=(child_conn,),
                             daemon=True)
        worker.start()
        child_conn.close()
        try:
            yield worker, conn
        finally:
            conn.close()
            if worker.is_alive():
                worker.kill()
                worker.join()

    @staticmethod
    def _ask(conn, message):
        conn.send_bytes(pickle.dumps(message))
        assert conn.poll(5), f"worker dropped {message[0]!r} without a reply"
        return pickle.loads(conn.recv_bytes())

    def test_unknown_tag_answered_and_close_exits(self, worker):
        process, conn = worker
        # The pool speaks round/close only; any other tag, the retired
        # install and harvest included, gets an error reply instead of
        # leaving the sender blocked.
        for message in (("evict", [0]), ("install", []), ("harvest",)):
            assert self._ask(conn, message) == (
                "error", f"unknown message tag {message[0]!r}"
            )
        conn.send_bytes(pickle.dumps(("close",)))
        process.join(timeout=5)
        assert process.exitcode == 0

    def test_unknown_client_answered_with_error(self, worker):
        process, conn = worker
        # Nothing to build client 3 from: the round fails loudly, and the
        # worker keeps serving — it still answers and closes cleanly.
        for _ in range(2):
            status, payload = self._ask(
                conn, ("round", 1, False, [3], ("inline", np.zeros(4)))
            )
            assert status == "error"
            assert "client 3" in payload
        conn.send_bytes(pickle.dumps(("close",)))
        process.join(timeout=5)
        assert process.exitcode == 0


class TestDecoderDedup:
    def test_first_round_ships_only_ids(self):
        # Workers build their clients from the population they started
        # with, so even round 1 sends one short round message per worker.
        config = FederationConfig.tiny(rounds=1)
        with ProcessPoolBackend(max_workers=2) as backend:
            build_federation(config, FedGuard(), no_attack(), backend=backend).run()
            assert backend.ipc_stats.bytes_sent < 1024

    def test_steady_state_rounds_ship_only_vectors(self):
        """The whole point: rounds move vectors and scalars — not
        datasets, models, or repeated decoders."""
        # Full participation: round 1 builds every client and ships every
        # decoder; rounds 2 and 3 are the steady state.
        config = FederationConfig.tiny(rounds=3, clients_per_round=6)
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedGuard(), no_attack(), backend=backend
            )
            server.run_round(1)
            per_update = server.global_weights.nbytes + 1024
            stats = backend.ipc_stats
            for round_idx in (2, 3):
                sent, received = stats.bytes_sent, stats.bytes_received
                server.run_round(round_idx)
                # One round message per worker: the global vector itself
                # travels through shared memory.
                assert stats.bytes_sent - sent < 1024
                # Per client, one update vector plus scalars; decoders are
                # read from the checked-out clients.
                assert stats.bytes_received - received <= (
                    config.clients_per_round * per_update
                )

    def test_decoder_crosses_ipc_once_per_version(self):
        # Full participation: round 1 ships every decoder, round 2 none.
        config = FederationConfig.tiny(rounds=1, clients_per_round=6)
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedGuard(), no_attack(), backend=backend
            )
            server.run_round(1)
            after_first = backend.ipc_stats.bytes_received
            server.run_round(2)
            second_round = backend.ipc_stats.bytes_received - after_first
            assert sum(c._decoder_vector is not None for c in server.clients) == 6
        # Round 2 re-samples only trained clients: the population carries
        # their decoders, so none recrosses the pipe and the round sheds
        # the decoder share of the payload entirely.
        assert second_round < after_first * 0.6

    def test_wire_cache_drops_upload_bytes_keeps_results(self):
        """decoder_cache=True must shrink upload_nbytes after round 1 and
        change nothing else."""
        config = FederationConfig.tiny(rounds=3)
        plain = build_federation(
            config, FedGuard(), no_attack(), channel=InMemoryChannel()
        ).run()
        cached = build_federation(
            config, FedGuard(), no_attack(),
            channel=InMemoryChannel(decoder_cache=True),
        ).run()
        np.testing.assert_array_equal(plain.accuracies, cached.accuracies)
        r1, r2 = plain.rounds, cached.rounds
        assert r1[0].upload_nbytes == r2[0].upload_nbytes  # cache still cold
        for a, b in zip(r1[1:], r2[1:]):
            assert b.upload_nbytes < a.upload_nbytes
            assert b.metrics["decoder_cache_hits"] > 0
            assert b.metrics["decoder_cache_saved_nbytes"] > 0
        # Cache metrics never leak into default-off runs (golden safety).
        assert "decoder_cache_hits" not in r1[0].metrics


class TestMakeBackend:
    def test_config_selects_backend(self):
        assert isinstance(
            make_backend(FederationConfig.tiny()), SequentialBackend
        )
        backend = make_backend(FederationConfig.tiny(backend="process",
                                                     backend_workers=2))
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2

    def test_unknown_backend_rejected_by_config(self):
        for kind in ("threads", "process_legacy"):
            with pytest.raises(ValueError, match="backend"):
                FederationConfig.tiny(backend=kind)
