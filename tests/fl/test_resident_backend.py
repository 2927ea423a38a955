"""Worker-resident backend tests: equivalence, stickiness, reuse, and dedup.

The resident :class:`~repro.fl.parallel.ProcessPoolBackend` keeps clients
cached inside persistent worker processes, each built there from the
server's population the first time a round names it, and returns every
fitted client's state to that population. A round sends each busy
worker one message holding its client ids and the global vector, and
each decoder crosses back at most once per version. None of that may
change a single bit of any federation — the sequential backend is the
referee, across every registered strategy, through a lossy channel, on a
pool reused for another federation, and on a pool that loses a worker.
The pool also scores shares of a stacked predict (FedGuard's audit,
PDGAN's vote) in its workers, with the one-process bytes.
"""

import contextlib
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import nn
from repro.attacks import AttackScenario, no_attack
from repro.attacks.optimized import DirectedDeviationAttack
from repro.config import FederationConfig, ModelConfig
from repro.defenses import FedAvg, FedGuard
from repro.experiments.scenarios import STRATEGY_FACTORIES, make_strategy
from repro.experiments.storage import history_to_dict
from repro.fl import (
    FaultPlan,
    FaultyChannel,
    FLClient,
    History,
    InMemoryChannel,
    LossyChannel,
    ProcessPoolBackend,
    SequentialBackend,
    build_federation,
    make_backend,
)
from repro.fl.parallel import _resident_worker_main, _WorkerHandle
from repro.fl.simulation import federation_state, restore_federation
from repro.models import build_classifier, classifier


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

    def test_clients_do_not_move_between_workers(self, monkeypatch):
        # Full participation: every client is dispatched in every round.
        config = FederationConfig.tiny(rounds=4, clients_per_round=6)
        routed: dict[int, list[tuple[int, int]]] = {}
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            send = _WorkerHandle.send

            def recording_send(handle, message):
                if message[0] == "round":
                    worker_idx = backend._workers.index(handle)
                    for cid in message[3]:
                        routed.setdefault(cid, []).append((message[1], worker_idx))
                send(handle, message)

            monkeypatch.setattr(_WorkerHandle, "send", recording_send)
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

    def test_worker_killed_after_dispatch_matches_sequential(self, monkeypatch):
        # The respawn-and-replay path: worker 0 dies holding round 3.
        config = self._config()
        seq = build_federation(config, FedAvg(), no_attack()).run()
        killed = []
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            send = _WorkerHandle.send

            def send_then_kill(handle, message):
                send(handle, message)
                if (handle is backend._workers[0] and message[0] == "round"
                        and message[1] == 3 and not killed):
                    process = handle.process
                    process.kill()
                    process.join()
                    killed.append(process)

            monkeypatch.setattr(_WorkerHandle, "send", send_then_kill)
            res = server.run()
            assert killed and backend.respawns == 1
        assert _strip_clocks(seq) == _strip_clocks(res)

    @pytest.mark.parametrize("holding_the_audit", [False, True])
    def test_worker_killed_after_fit_matches_sequential(self, holding_the_audit,
                                                        monkeypatch):
        # 16-sample blocks put the tiny MLP's audit on the pool. Worker 0
        # dies after round 3's fit replied: before the audit (the audit's
        # send fails) or holding the audit's message (its receive fails);
        # either way it is respawned and its share replayed. To hold the
        # message it is stopped before the send, so it cannot answer
        # before the kill lands.
        config = self._config()
        monkeypatch.setattr(
            classifier, "PREDICT_BLOCK_BYTES",
            16 * config.clients_per_round * build_classifier(config.model).sample_nbytes,
        )
        seq = build_federation(config, FedGuard(), no_attack()).run()
        audits, dispatched = [], []
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedGuard(), no_attack(), backend=backend)
            predict, send = backend.predict, _WorkerHandle.send

            def kill_worker_0():
                process = backend._workers[0].process
                process.kill()
                process.join()

            def predict_after_a_kill(*args):
                audits.append(args)
                if len(audits) == 3 and not holding_the_audit:
                    kill_worker_0()
                return predict(*args)

            def send_then_kill(handle, message):
                if message[0] != "predict":
                    return send(handle, message)
                holding = holding_the_audit and len(dispatched) == 4
                if holding:
                    os.kill(backend._workers[0].process.pid, signal.SIGSTOP)
                send(handle, message)
                dispatched.append(backend._workers.index(handle))
                if holding:
                    kill_worker_0()

            backend.predict = predict_after_a_kill
            monkeypatch.setattr(_WorkerHandle, "send", send_then_kill)
            res = server.run()
            assert backend.respawns == 1
        # Two shares per round; the replay sends worker 0's round-3 share again.
        assert dispatched == [0, 1] * 3 + [0] * holding_the_audit + [0, 1]
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_worker_killed_before_an_audit_is_started_once(self, monkeypatch):
        # Worker 0 dies after round 2's fit replied and before its audit,
        # which replaces it. The round's fits are checked in by then, so
        # the replacement serves round 3 as it is: three starts in all.
        config = self._config()
        monkeypatch.setattr(
            classifier, "PREDICT_BLOCK_BYTES",
            16 * config.clients_per_round * build_classifier(config.model).sample_nbytes,
        )
        seq = build_federation(config, FedGuard(), no_attack()).run()
        audits, started = [], []
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedGuard(), no_attack(), backend=backend)
            predict, start_worker = backend.predict, backend._start_worker

            def predict_after_a_kill(*args):
                audits.append(args)
                if len(audits) == 2:
                    process = backend._workers[0].process
                    process.kill()
                    process.join()
                return predict(*args)

            def counting_start(worker_idx):
                started.append(worker_idx)
                return start_worker(worker_idx)

            backend.predict = predict_after_a_kill
            backend._start_worker = counting_start
            res = server.run()
            assert backend.respawns == 1
        assert started == [0, 1, 0]
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


_POOL_THEN_WAIT = """
import sys
from repro.attacks import no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg
from repro.fl import ProcessPoolBackend, build_federation

backend = ProcessPoolBackend(max_workers=2)
server = build_federation(FederationConfig.tiny(rounds=2), FedAvg(), no_attack(),
                          backend=backend)
history = server.run(rounds=1)
if sys.argv[1] == "respawned":
    assert backend.inject_worker_crash(0)
    server.run(history=history)
    assert backend.respawns == 1
print(*(worker.process.pid for worker in backend._workers), flush=True)
sys.stdin.read()
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie waiting for its reaper does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestMainProcessDeath:
    """Each worker closes the main process's pipe end it inherits at fork,
    so a main process killed outright leaves no worker behind: the workers
    read EOF and exit, a respawned one included."""

    @pytest.mark.parametrize("pool", ["plain", "respawned"])
    def test_workers_exit_with_a_killed_main_process(self, pool):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-c", _POOL_THEN_WAIT, pool],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        ) as main:
            try:
                printed, _, _ = select.select([main.stdout], [], [], 60)
                pids = [int(pid) for pid in main.stdout.readline().split()] if printed else []
            finally:
                main.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        assert survivors == []


class TestFailedRound:
    """A round that fails in one worker leaves no reply behind: the next
    rounds fit the population's clients, as the sequential backend does."""

    @staticmethod
    def _refuse_even_ids_in_round_1(monkeypatch):
        fit = FLClient.fit

        def fails_even_ids_in_round_1(self, global_weights, include_decoder=False,
                                      round_idx=0):
            if round_idx == 1 and self.client_id % 2 == 0:
                raise ValueError(f"client {self.client_id} refused round 1")
            return fit(self, global_weights, include_decoder, round_idx)

        monkeypatch.setattr(FLClient, "fit", fails_even_ids_in_round_1)

    @staticmethod
    def _after_failed_round(backend, raises):
        """Rounds 2 and 3 after a round 1 that fails inside ``raises``."""
        config = FederationConfig.tiny(
            rounds=3, local_epochs=3, client_lr=0.2, train_samples=600,
            clients_per_round=6,
        )
        server = build_federation(config, FedAvg(), no_attack(), backend=backend)
        with raises:
            server.run_round(1)
        history = History(server.strategy.name, server.scenario_name)
        for round_idx in (2, 3):
            history.append(server.run_round(round_idx))
        return _strip_clocks(history), server.global_weights.tobytes()

    def _sequential(self, monkeypatch):
        self._refuse_even_ids_in_round_1(monkeypatch)
        seq = self._after_failed_round(
            SequentialBackend(), pytest.raises(ValueError, match="refused round 1")
        )
        monkeypatch.undo()
        return seq

    def test_rounds_after_a_worker_error_match_sequential(self, monkeypatch):
        seq = self._sequential(monkeypatch)
        self._refuse_even_ids_in_round_1(monkeypatch)
        with ProcessPoolBackend(max_workers=2) as backend:
            res = self._after_failed_round(
                backend, pytest.raises(RuntimeError, match="refused round 1")
            )
            unread = [worker.conn.poll(0.5) for worker in backend._workers]
        assert seq == res
        # Every reply was read: none is waiting for a later call.
        assert not any(unread)

    def test_rounds_after_a_failed_replay_match_sequential(self, monkeypatch):
        # Worker 0 dies holding its round-1 job, and so does the fresh
        # worker its replay goes to. Each is stopped before the send, so it
        # cannot answer before the kill lands. The job then fails as an
        # error reply does: worker 1's reply is read, the pool closes, and
        # rounds 2 and 3 start both workers anew from the population.
        seq = self._sequential(monkeypatch)
        killed, started = [], []
        with ProcessPoolBackend(max_workers=2) as backend:
            send, start_worker = _WorkerHandle.send, backend._start_worker

            def stop_send_kill(handle, message):
                doomed = (message[:2] == ("round", 1) and handle is backend._workers[0])
                if doomed:
                    os.kill(handle.process.pid, signal.SIGSTOP)
                send(handle, message)
                if doomed:
                    handle.process.kill()
                    handle.process.join()
                    killed.append(handle.process.pid)

            def counting_start(worker_idx):
                started.append(worker_idx)
                return start_worker(worker_idx)

            monkeypatch.setattr(_WorkerHandle, "send", stop_send_kill)
            backend._start_worker = counting_start
            res = self._after_failed_round(
                backend, pytest.raises(RuntimeError, match="failed again")
            )
            unread = [worker.conn.poll(0.5) for worker in backend._workers]
        assert len(killed) == 2
        assert started == [0, 1, 0, 0, 1]
        assert seq == res
        assert not any(unread)


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
        worker = ctx.Process(target=_resident_worker_main, args=(child_conn, conn),
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
        # The pool speaks round/predict/close only; any other tag, the
        # retired install and harvest included, gets an error reply instead
        # of leaving the sender blocked.
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
                conn, ("round", 1, False, [3], np.zeros(4))
            )
            assert status == "error"
            assert "client 3" in payload
        conn.send_bytes(pickle.dumps(("close",)))
        process.join(timeout=5)
        assert process.exitcode == 0


    def test_malformed_predict_answered_with_error(self, worker):
        process, conn = worker
        # A predict missing its block, and one the worker has no
        # population to build a scorer for, both fail loudly; the worker
        # keeps serving.
        for message in (("predict", np.zeros((2, 4)), np.zeros((3, 4))),
                        ("predict", np.zeros((2, 4)), np.zeros((3, 4)), (2, 16))):
            status, payload = self._ask(conn, message)
            assert status == "error"
        assert "no population" in payload
        assert self._ask(conn, ("harvest",))[0] == "error"
        conn.send_bytes(pickle.dumps(("close",)))
        process.join(timeout=5)
        assert process.exitcode == 0


class TestPoolScorer:
    """A stacked predict scored in shares by the workers has the bytes of
    the one-process call: each share runs with the full stack's block, so
    every model's GEMMs keep their shapes and logits their last bits."""

    MODEL = ModelConfig(kind="cnn", image_size=8, cnn_channels=(2, 4), cnn_hidden=8)
    BUDGETS = {
        "unbounded": lambda k, nbytes: np.iinfo(np.int64).max,
        "16_samples": lambda k, nbytes: 16 * k * nbytes,
        "3_models": lambda k, nbytes: 3 * nbytes,
        "1_byte": lambda k, nbytes: 1,
    }

    @pytest.fixture(scope="class")
    def pool(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            backend.attach(SimpleNamespace(model_config=self.MODEL))
            backend._ensure_workers()
            yield backend

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("n", [37, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_bytes_equal_in_process_predict(self, pool, k, n, budget, monkeypatch):
        rng = np.random.default_rng(1000 * k + n)
        reference = build_classifier(self.MODEL)
        weights = rng.normal(scale=0.5, size=(k, nn.parameters_to_vector(reference).size))
        x = rng.random((n, self.MODEL.input_dim))
        monkeypatch.setattr(classifier, "PREDICT_BLOCK_BYTES",
                            self.BUDGETS[budget](k, reference.sample_nbytes))
        nn.stack_parameters(weights, reference)
        block = models, samples = reference.block_shape(k)
        logits = reference._score(x, lambda out: out)

        sent = pool.ipc_stats.bytes_sent
        preds = pool.predict(build_classifier(self.MODEL), weights, x)
        assert preds.tobytes() == reference.predict(x).tobytes()
        # One-block predicts stay in process; the rest cross the pipes,
        # one share per busy worker (K below the worker count: K busy).
        in_process = models >= k and n <= samples
        assert (pool.ipc_stats.bytes_sent == sent) == in_process
        for share in np.array_split(np.arange(k), min(2, k)):
            scorer = build_classifier(self.MODEL)
            nn.stack_parameters(weights[share], scorer)
            assert scorer._score(x, lambda out: out, block).tobytes() == (
                logits[share].tobytes()
            )

    def test_async_flush_audited_in_workers_matches_sequential(self, monkeypatch):
        # An async flush audits staleness-discounted blends, which no
        # worker fitted: the rows themselves must cross the pipe.
        config = FederationConfig.tiny(
            rounds=4, server_mode="async", buffer_size=3, local_epochs=3,
            client_lr=0.2, train_samples=600, clients_per_round=6,
        )
        monkeypatch.setattr(
            classifier, "PREDICT_BLOCK_BYTES",
            16 * 3 * build_classifier(config.model).sample_nbytes,
        )
        seq = build_federation(config, FedGuard(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            dispatched = []
            send = _WorkerHandle.send

            def recording_send(handle, message):
                if message[0] == "predict":
                    dispatched.append(backend._workers.index(handle))
                send(handle, message)

            monkeypatch.setattr(_WorkerHandle, "send", recording_send)
            res = build_federation(config, FedGuard(), no_attack(), backend=backend).run()
        assert dispatched == [0, 1] * config.rounds
        assert _strip_clocks(seq) == _strip_clocks(res)

    def test_unstarted_pool_scores_in_process(self):
        # A multi-block predict before the first fit starts no worker.
        backend = ProcessPoolBackend(max_workers=2)
        backend.attach(SimpleNamespace(model_config=self.MODEL))
        shell = build_classifier(self.MODEL)
        weights = np.stack([nn.parameters_to_vector(shell)] * 3)
        x = np.zeros((40, self.MODEL.input_dim))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "PREDICT_BLOCK_BYTES", 16 * 3 * shell.sample_nbytes)
            preds = backend.predict(build_classifier(self.MODEL), weights, x)
        assert preds.shape == (3, 40)
        assert backend._workers is None and backend.ipc_stats.total_nbytes == 0


class TestRoundMessage:
    """ψ travels inside the round message, as Alg. 1 hands it to each
    sampled client: the pool creates no shared-memory segment, sync or
    async, and still reads the sequential history."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"server_mode": "async", "buffer_size": 3},
    ], ids=["sync", "async"])
    def test_no_segment_created(self, monkeypatch, overrides):
        config = FederationConfig.tiny(rounds=2, **overrides)
        created = []
        original = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            if kwargs.get("create") or (len(args) > 1 and args[1]):
                created.append(kwargs.get("size"))
            return original(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        seq = build_federation(config, FedGuard(), no_attack()).run()
        with ProcessPoolBackend(max_workers=2) as backend:
            res = build_federation(
                config, FedGuard(), no_attack(), backend=backend
            ).run()
        assert created == []
        assert _strip_clocks(seq) == _strip_clocks(res)


class TestDecoderDedup:
    def test_first_round_ships_ids_and_the_global_vector(self):
        # Workers build their clients from the population they started
        # with, so even round 1 sends one round message per worker: its
        # client ids and the global vector.
        config = FederationConfig.tiny(rounds=1)
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedGuard(), no_attack(), backend=backend)
            server.run()
            assert backend.ipc_stats.bytes_sent < 2 * (
                server.global_weights.nbytes + 1024
            )

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
                # One round message per worker: its client ids and the
                # global vector.
                assert stats.bytes_sent - sent < 2 * per_update
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

    def test_respawned_worker_ships_no_held_decoder(self):
        # A worker ships a decoder only when the fit changed it. The worker
        # that replaces a killed one builds its clients, decoders included,
        # from the population, so the run receives the crash-free bytes
        # (460,291 B; re-shipping every decoder the new worker had not sent
        # itself received 513,473 B) and reads the sequential history.
        config = FederationConfig.tiny(rounds=3, clients_per_round=6)
        seq = build_federation(config, FedGuard(), no_attack()).run()
        received = {}
        for killed in (False, True):
            with ProcessPoolBackend(max_workers=2) as backend:
                server = build_federation(config, FedGuard(), no_attack(),
                                          backend=backend)
                history = server.run(rounds=1)
                if killed:
                    assert backend.inject_worker_crash(0)
                history = server.run(history=history)
                assert backend.respawns == killed
                received[killed] = backend.ipc_stats.bytes_received
        assert _strip_clocks(seq) == _strip_clocks(history)
        assert received[True] == received[False]


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
