"""Client execution backends: sequential and process-parallel.

The paper's testbed trains 100 clients across GPU nodes in parallel; this
module provides the equivalent for the simulation.
:class:`ProcessPoolBackend` is a **worker-resident** pool. Each
persistent worker process starts with the server's client population and
builds a client from it (``population.materialize``: construct, then
overlay the client's state) the first time a round names that client,
then keeps it as a cache. A round ships one message per busy worker,
``(round_idx, include_decoder, client_ids, ψ)`` — the global weight
vector rides inside it, as the paper's Flower client receives it in
``fit(parameters, config)`` — and receives back, per fitted client, the
update vector, scalars and the client's ``state_dict()``. The state
leaves the CVAE decoder out exactly when the client held one before the
fit and its ``decoder_version`` did not change (every CVAE (re)train
bumps it): the population already holds that version. Client→worker
placement is **sticky** (``client_id mod
workers``) because a worker's forked copy of the population goes stale:
the worker that fitted a client last is the one holding it current, so
datasets, models and trained CVAEs do not cross a process boundary
again — as on the paper's testbed, where each client's data and CVAE
stay on its own node.

Backends also score stacked classifiers (:meth:`ExecutionBackend.predict`,
behind :func:`~repro.fl.strategy.predict_each`: FedGuard's audit and
PDGAN's vote). The pool sends each busy worker a contiguous share of the
``(K, P)`` weight matrix with the synthetic batch and the full-K call's
inference block, so the workers return the one-process predictions byte
for byte. The worker protocol is round/predict/close. The weights cross
the pipe rather than being read from the workers' cached clients,
because the rows a strategy scores need not be a worker's last fit (an
async flush audits staleness-discounted blends, and a dropped upload is
never audited).

Rounds and predicts share one exchange: send each busy worker its
message, then read each reply. One failure rule covers every job: a
worker whose send or receive fails has died, and is replaced and its job
replayed once; a replay that fails too fails the job as an error reply
does, and the call reads every other reply, closes the workers and
raises. One replace step serves that respawn and the sweep of dead
workers before each fit. A worker closes the main process's pipe end it
inherits at fork, so it reads EOF and exits when the main process dies,
even by ``SIGKILL``.

Notes for users:

* Per-round results are identical between backends (each client owns its
  RNG, and the round's client order does not affect aggregation), so the
  backend is a pure throughput knob. One caveat: attacks whose collusion
  state is *built at runtime from another colluder's update* (only
  ``DirectedDeviationAttack``, marked ``runtime_collusion = True``) lose
  cross-client sharing under process isolation — every colluder would
  deviate along its own direction instead of the first colluder's. The
  pool refuses with a ``RuntimeError`` as soon as two such colluders
  would train against one global model, whether they share a sync round
  or arrive one per call in an async window, instead of silently
  mis-simulating the attack. Seed-derived collusion
  (``AdditiveNoiseAttack``, ``DecoderPoisoningAttack``) is unaffected.
  Run order-dependent colluding attacks on the sequential backend.
* The main-process population is the record of client state on every
  backend. The pool loads each returned state into the checked-out
  client, and the server's fit phase checks it in as soon as the backend
  returns, exactly as on the sequential backend. A pool's resident
  clients are a cache that :meth:`ProcessPoolBackend.close` discards: a
  respawned or restarted worker, one replaced during an audit included,
  builds its clients from a population that is already current, so
  losing a worker loses nothing, and a checkpoint reads the population
  alone. Assigning ``Server.backend`` closes the outgoing backend, so a
  pool swapped out for another backend and back in restarts its workers
  from the current population instead of fitting the clients it cached
  before the swap.
* Process-boundary cost is tracked in :class:`IPCStats` (pickled bytes in
  each direction), deliberately separate from the transport layer's
  *wire* accounting: IPC bytes measure the simulator, wire bytes model
  the federation.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..analysis.contracts import schedule_adversary
from ..config import BACKEND_KINDS, ENGINE_KINDS, FederationConfig
from ..models import build_classifier
from .batched import TrainingEngine, make_engine
from .client import FLClient
from .transport import BroadcastMessage, SubmitMessage
from .updates import ClientUpdate

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ProcessPoolBackend",
    "IPCStats",
    "make_backend",
    "BACKEND_KINDS",
]

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclass
class IPCStats:
    """Cumulative process-boundary (pickle) byte accounting for a backend.

    This measures the *simulator's* serialization cost — what actually
    crosses worker pipes — not the modeled federation wire bytes, which
    live in :class:`~repro.fl.transport.TransportStats`.
    """

    bytes_sent: int = 0      # main → workers
    bytes_received: int = 0  # workers → main

    @property
    def total_nbytes(self) -> int:
        return self.bytes_sent + self.bytes_received


class ExecutionBackend:
    """Interface: run one federated round's client fits and score stacked
    classifiers."""

    def __init__(self) -> None:
        self.ipc_stats = IPCStats()

    def execute(
        self,
        broadcasts: list[BroadcastMessage],
        clients_by_id: dict[int, FLClient],
    ) -> list[SubmitMessage]:
        """Fit every client addressed by a *delivered* broadcast.

        This is the single transport-facing code path shared by all
        backends: the server's ``fit`` phase hands over whatever the
        channel delivered, and gets back one :class:`SubmitMessage` per
        fitted client, ready for the channel's collect direction. The
        per-backend ``fit_clients`` hook only runs the raw training.
        """
        if not broadcasts:
            return []
        first = broadcasts[0]
        # All broadcasts of a round carry the same payload; only the
        # addressee differs.
        targets = [clients_by_id[m.client_id] for m in broadcasts]
        updates, times = self.fit_clients(
            targets, first.weights, first.include_decoder, first.round_idx
        )
        return [
            SubmitMessage(round_idx=first.round_idx, update=u, client_time_s=t)
            for u, t in zip(updates, times)
        ]

    def fit_clients(
        self,
        clients: list[FLClient],
        global_weights: np.ndarray,
        include_decoder: bool,
        round_idx: int = 0,
    ) -> tuple[list[ClientUpdate], list[float]]:
        """Return (updates, per-client wall times), in client order."""
        raise NotImplementedError

    def predict(self, classifier, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Every stacked model's predictions on one shared batch, ``(K, N)``.

        ``weights`` is the ``(K, P)`` matrix of flat classifier vectors
        and ``classifier`` a shell of their architecture. Here the rows
        are stacked into the shell (:func:`repro.nn.stack_parameters`)
        and scored by one blocked ``predict``; the matrix is released
        first, since the shell holds a copy.
        """
        nn.stack_parameters(weights, classifier)
        del weights
        return classifier.predict(x)

    def attach(self, population) -> None:
        """Serve the clients of ``population`` (the server calls this each
        time the backend is assigned to it).

        A no-op here; the resident pool starts its workers with it.
        """

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""


class SequentialBackend(ExecutionBackend):
    """In-process execution — the default, zero overhead.

    Local training is delegated to a :class:`~repro.fl.batched.TrainingEngine`
    (``engine="loop"`` for the per-client reference loop, ``"batched"`` for
    the stacked multi-client passes — bit-identical results).
    """

    def __init__(self, engine: str = "loop") -> None:
        super().__init__()
        self.engine: TrainingEngine = make_engine(engine)

    def fit_clients(self, clients, global_weights, include_decoder, round_idx=0):
        return self.engine.fit_clients(clients, global_weights, include_decoder, round_idx)


# ---------------------------------------------------------------------------
# Worker-resident process pool
# ---------------------------------------------------------------------------

def _pack_fit(client: FLClient, update: ClientUpdate, elapsed: float,
              held_version: int | None) -> tuple:
    """Worker side: one fitted client's reply, ``(update, state, elapsed)``.

    ``state`` is the client's ``state_dict()``; the update crosses without
    its decoder, which the main process reads back from the loaded state.
    ``held_version`` is the client's ``held_decoder_version`` before the
    fit. A fit that kept that decoder leaves its key out of the state: the
    population already holds the version, and the main process keeps it
    from the checked-out client.
    """
    state = client.state_dict()
    update.decoder_weights = None
    if held_version is not None and client.held_decoder_version == held_version:
        del state["decoder_vector"]
    return update, state, elapsed


def _resident_worker_main(conn, main_end, population=None,
                          engine_kind: str = "loop") -> None:
    """Event loop of one persistent worker process.

    The worker starts with the server's population and the engine kind (a
    fork shares both). The first round that names a client builds it with
    ``population.materialize``; the worker then keeps it as a cache, since
    every reply returns the fitted clients' states to the population.
    ``main_end`` is the main process's end of the pipe, which a fork
    inherits; the worker closes it first, so that ``conn`` reads EOF and
    the worker exits once the main process is gone, however it died, and
    so is every process forked after the worker (each inherits that end).

    Protocol (every message is one pickled tuple over the duplex pipe):

    * ``("round", round_idx, include_decoder, [client_id, ...],
      weights)`` — fit the listed clients in order against the global
      vector ``weights``, which the unpickled message owns; replies
      ``("ok", [(update, state, elapsed), ...])`` or
      ``("error", traceback)``.
    * ``("predict", weights, x, block)`` — stack the ``(k, P)`` rows of
      ``weights`` into this worker's scoring shell (one per process, of
      the population's architecture) and reply ``("ok", preds)``, the
      ``(k, N)`` predictions on ``x`` scored in ``(models, samples)``
      blocks of ``block``, or ``("error", traceback)``. Nothing cached
      is read or written, so a predict can be replayed.
    * ``("close",)`` — exit.
    """
    main_end.close()
    clients: dict[int, FLClient] = {}
    engine = make_engine(engine_kind)
    scorer = None
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "close":
            conn.close()
            return
        try:
            if kind == "round":
                _, round_idx, include_decoder, client_ids, weights = message
                for cid in client_ids:
                    if cid not in clients:
                        if population is None:
                            raise KeyError(f"client {cid}: worker has no population")
                        clients[cid] = population.materialize(cid)
                fitted = [clients[cid] for cid in client_ids]
                held = [c.held_decoder_version for c in fitted]
                updates, times = engine.fit_clients(
                    fitted, weights, include_decoder, round_idx
                )
                reply = ("ok", [
                    _pack_fit(*packed)
                    for packed in zip(fitted, updates, times, held)
                ])
            elif kind == "predict":
                _, weights, x, block = message
                if scorer is None:
                    if population is None:
                        raise KeyError("predict: worker has no population")
                    scorer = build_classifier(population.model_config)
                nn.stack_parameters(weights, scorer)
                reply = ("ok", scorer.predict(x, block=block))
            else:
                # A protocol bug on the sender side: reply with an error
                # instead of silently dropping (the sender is blocked in
                # recv and would hang forever on a dropped message).
                reply = ("error", f"unknown message tag {kind!r}")
        except Exception:  # noqa: BLE001 - forwarded to the main process
            reply = ("error", traceback.format_exc())
        conn.send_bytes(pickle.dumps(reply, protocol=_PICKLE_PROTOCOL))


class _WorkerHandle:
    """Main-process handle for one resident worker: process + counted pipe."""

    def __init__(self, ctx, index: int, ipc_stats: IPCStats, population,
                 engine_kind: str) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_resident_worker_main,
            args=(child_conn, parent_conn, population, engine_kind),
            name=f"repro-resident-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self._ipc_stats = ipc_stats

    def send(self, message) -> None:
        data = pickle.dumps(message, protocol=_PICKLE_PROTOCOL)
        self._ipc_stats.bytes_sent += len(data)
        self.conn.send_bytes(data)

    def recv(self):
        data = self.conn.recv_bytes()
        self._ipc_stats.bytes_received += len(data)
        return pickle.loads(data)

    def shutdown(self) -> None:
        """The one teardown: ask a live worker to close, then reap it."""
        try:
            if self.process.is_alive():
                self.conn.send_bytes(
                    pickle.dumps(("close",), protocol=_PICKLE_PROTOCOL)
                )
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)


class ProcessPoolBackend(ExecutionBackend):
    """Persistent worker-resident process pool (see module docstring).

    A backend serves one population at a time: :meth:`attach` with a
    different population closes the workers started for the previous one,
    so a pool reused across federations (or for a resume) never trains a
    previous federation's clients.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` or 0 uses the CPU count, and a
        negative count is refused.
    engine:
        Training engine each worker runs over its resident group (one of
        ``ENGINE_KINDS``; see :mod:`repro.fl.batched`).
        With ``"batched"`` every worker stacks its own clients, so the
        pool composes process parallelism with leading-axis batching.
    """

    def __init__(self, max_workers: int | None = None,
                 engine: str = "loop") -> None:
        super().__init__()
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self.max_workers = max_workers
        if engine not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {engine!r}; known: {ENGINE_KINDS}")
        self.engine_kind = engine
        self._population = None
        self._workers: list[_WorkerHandle] | None = None
        self._mp_ctx = None
        # The global model the last fit call trained against, and the
        # (attack id, client id) runtime colluders fitted against it.
        self._collusion_psi: np.ndarray | None = None
        self._colluders: set[tuple[int, int]] = set()
        # Crashed workers replaced so far (fault injection / crash recovery).
        self.respawns = 0

    # -- pool management -----------------------------------------------------
    def attach(self, population) -> None:
        """Serve ``population``; workers started for another one are closed."""
        if population is not self._population:
            self.close()
            self._population = population

    def _start_worker(self, index: int) -> _WorkerHandle:
        return _WorkerHandle(self._mp_ctx, index, self.ipc_stats,
                             self._population, self.engine_kind)

    def _ensure_workers(self) -> list[_WorkerHandle]:
        if self._workers is None:
            n = self.max_workers or os.cpu_count() or 1
            methods = multiprocessing.get_all_start_methods()
            # fork shares the population (nothing pickled); fall back to
            # the platform default elsewhere.
            self._mp_ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._workers = [self._start_worker(i) for i in range(n)]
        return self._workers

    def _replace(self, worker_idx: int) -> _WorkerHandle:
        """Shut a dead worker down and start a new one from the population,
        losing only its cache; each counts in ``respawns``."""
        self._workers[worker_idx].shutdown()
        self.respawns += 1
        self._workers[worker_idx] = self._start_worker(worker_idx)
        return self._workers[worker_idx]

    # -- crash injection and recovery ---------------------------------------
    def inject_worker_crash(self, worker_idx: int) -> bool:
        """Kill one worker process (fault injection). Returns True if killed.

        The next ``fit_clients`` call notices the dead worker and respawns
        it; the new worker builds its clients from the population, which
        holds their state as of their last fit — the recovery path a real
        preempted node would exercise, and nothing is lost.
        """
        workers = self._ensure_workers()
        handle = workers[worker_idx % len(workers)]
        if not handle.process.is_alive():
            return False
        handle.process.kill()
        handle.process.join(timeout=5)
        return True

    def _reap_dead_workers(self) -> None:
        """Before a fit: replace every worker that died since the last call.

        A live worker serves as it is, one replaced during the last audit
        included: it forked a population that held the round's fits.
        """
        for worker_idx, handle in enumerate(self._workers):
            if not handle.process.is_alive():
                self._replace(worker_idx)

    # -- messages ------------------------------------------------------------
    def _exchange(self, jobs: dict[int, tuple]) -> dict[int, object]:
        """Send each worker in ``jobs`` its message, then collect each reply.

        The one exchange, for rounds and predicts alike. Collection order
        across workers is free (each payload is keyed by its worker), so
        the schedule sanitizer may permute which worker is drained first
        and the histories must not move.

        One failure rule covers every job. A job whose worker fails (its
        send or receive raises: the worker died mid-job) is replayed once
        on a fresh worker. Replay is exact: the population still holds
        every client's state from before the round, and a predict is
        pure. A replay that fails too fails the job as an error reply
        does, and either fails the call only after every other reply has
        been read, so none is left in a pipe for the next call to take as
        its own. The workers are then closed: the others of a failed
        round hold clients fitted ahead of the population, and restarting
        them from it discards those fits.
        """
        replayed, failed = set(), {}

        def replay(worker_idx: int, error: Exception) -> None:
            # A job's first failure resends it to a fresh worker; its
            # second is kept as the job's error.
            if worker_idx not in replayed:
                replayed.add(worker_idx)
                try:
                    self._replace(worker_idx).send(jobs[worker_idx])
                    return
                except OSError as again:
                    error = again
            failed[worker_idx] = (
                f"worker {worker_idx} failed again on the replay of its job: {error!r}"
            )

        for worker_idx, message in jobs.items():
            try:
                self._workers[worker_idx].send(message)
            except OSError as error:
                replay(worker_idx, error)
        order = list(jobs)
        adversary = schedule_adversary()
        if adversary is not None:
            order = [order[i] for i in adversary.permutation(len(order))]
        payloads, failure = {}, None
        for worker_idx in order:
            while worker_idx not in failed:
                try:
                    status, payload = self._workers[worker_idx].recv()
                    break
                except (EOFError, OSError) as error:
                    replay(worker_idx, error)
            else:  # failed twice: read as the error reply it stands for
                status, payload = "error", failed[worker_idx]
            if status == "ok":
                payloads[worker_idx] = payload
            elif failure is None:
                failure = (
                    f"resident worker failed:\n{payload}" if status == "error"
                    else f"unexpected worker reply tag {status!r}"
                )
        if failure is not None:
            self.close()
            raise RuntimeError(failure)
        return payloads

    def _reject_runtime_collusion(self, clients: list[FLClient],
                                  weights: np.ndarray) -> None:
        """Fail loudly instead of silently mis-simulating collusion.

        An attack flagged ``runtime_collusion`` shares state that one
        colluder creates while training against a global model
        (DirectedDeviation's first estimated direction, kept until ψ
        changes by ``np.array_equal``). Worker processes mutate isolated
        copies, so two distinct colluders fitted against one ψ would each
        deviate along their own direction — a different attack than the
        sequential semantics. The count runs per ψ across calls, since an
        async window fits one client per call; a client refitted against
        the same ψ reuses its own direction and counts once.
        """
        if self._collusion_psi is None or not np.array_equal(
            self._collusion_psi, weights
        ):
            self._collusion_psi = np.array(weights)
            self._colluders.clear()
        self._colluders.update(
            (id(client.attack), client.client_id)
            for client in clients
            if client.attack is not None
            and getattr(client.attack, "runtime_collusion", False)
        )
        shared = Counter(attack for attack, _ in self._colluders)
        if any(count >= 2 for count in shared.values()):
            raise RuntimeError(
                "the process-pool backend cannot simulate runtime-colluding attacks "
                "(e.g. DirectedDeviationAttack): worker processes mutate "
                "isolated attack copies, so colluders would no longer share "
                "the first colluder's direction. Run this scenario on "
                "SequentialBackend instead."
            )

    def fit_clients(self, clients, global_weights, include_decoder, round_idx=0):
        weights = np.ascontiguousarray(global_weights, dtype=np.float64)
        self._reject_runtime_collusion(clients, weights)
        n = len(self._ensure_workers())
        self._reap_dead_workers()

        # Sticky placement: client_id mod workers, stable for the whole
        # federation, so resident state (CVAE, stream, RNG) never moves.
        jobs = {}
        for worker_idx in range(n):
            ids = [c.client_id for c in clients if c.client_id % n == worker_idx]
            if ids:
                message = ("round", round_idx, include_decoder, ids, weights)
                jobs[worker_idx] = message
        replies = self._exchange(jobs)
        packed_by_id = {
            packed[0].client_id: packed
            for reply in replies.values() for packed in reply
        }

        # Reassemble in round order.
        updates, times = [], []
        for client in clients:
            update, state, elapsed = packed_by_id[client.client_id]
            updates.append(self._unpack_update(client, update, state, include_decoder))
            times.append(elapsed)
        return updates, times

    @staticmethod
    def _unpack_update(client: FLClient, update: ClientUpdate, state: dict,
                       include_decoder: bool) -> ClientUpdate:
        """Load a worker's post-fit state into the checked-out client.

        The server's fit phase then checks it in, as on the sequential
        backend. A state without ``decoder_vector`` refers to the version
        the checked-out client already holds; the update's decoder is the
        loaded client's.
        """
        if "decoder_vector" not in state:
            version = state["decoder_version"]
            held = client.held_decoder_version
            if held != version:
                raise RuntimeError(
                    f"decoder replay miss for client {client.client_id}: "
                    f"worker referenced version {version}, client has {held}"
                )
            state["decoder_vector"] = client._decoder_vector
        client.load_state_dict(state)
        if include_decoder:
            update.decoder_weights = client._decoder_vector
        return update

    def predict(self, classifier, weights, x):
        """Score contiguous shares of the ``K`` stacked models in the workers.

        Each busy worker gets one ``("predict", share, x, block)`` message
        and the replies are joined in share order. ``block`` is the
        full-K call's ``block_shape(K)``, so every model's GEMMs keep
        their one-process shapes and the predictions are the one-process
        bytes, exact logit ties included. A predict that runs as one
        block in process stays in process, as does one before the pool
        has started: for the tiny MLP's audit the two round trips take
        about four times the forward they would spread out.

        A worker that dies is replaced and its share replayed, as in a
        round (see :meth:`_exchange`).
        """
        k = len(weights)
        block = classifier.block_shape(k)
        if self._workers is None or classifier.one_block(k, len(x), block):
            return super().predict(classifier, weights, x)
        jobs = {}
        for worker_idx, share in enumerate(np.array_split(weights, min(len(self._workers), k))):
            message = ("predict", share, x, block)
            jobs[worker_idx] = message
        replies = self._exchange(jobs)
        return np.concatenate([replies[worker_idx] for worker_idx in jobs])

    def close(self) -> None:
        if self._workers is not None:
            for worker in self._workers:
                worker.shutdown()
            self._workers = None
        self._collusion_psi = None
        self._colluders.clear()

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_backend(config: FederationConfig) -> ExecutionBackend:
    """Build the backend a :class:`~repro.config.FederationConfig` asks for."""
    if config.backend == "sequential":
        return SequentialBackend(engine=config.engine)
    if config.backend == "process":
        return ProcessPoolBackend(
            max_workers=config.backend_workers or None, engine=config.engine,
        )
    raise ValueError(
        f"unknown backend kind {config.backend!r}; known: {BACKEND_KINDS}"
    )
