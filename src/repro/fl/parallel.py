"""Client execution backends: sequential and process-parallel.

The paper's testbed trains 100 clients across GPU nodes in parallel; this
module provides the equivalent for the simulation.
:class:`ProcessPoolBackend` is a **worker-resident** pool. Each
persistent worker process starts with the server's client population and
builds a client from it (``population.materialize``: construct, then
overlay the client's state) the first time a round names that client,
then keeps it as a cache. A round ships only
``(round_idx, include_decoder, client_ids)`` plus the global weight
vector — published once per round through
:mod:`multiprocessing.shared_memory` instead of pickled per client — and
receives back, per fitted client, the update vector, scalars and the
client's ``state_dict()``, with the CVAE decoder only the first time per
:attr:`~repro.fl.updates.ClientUpdate.decoder_version`. Client→worker
placement is **sticky** (``client_id mod workers``) because a worker's
forked copy of the population goes stale: the worker that fitted a
client last is the one holding it current, so datasets, models and
trained CVAEs do not cross a process boundary again — as on the paper's
testbed, where each client's data and CVAE stay on its own node.

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
  client, and the round's ``population.checkin`` stores it, exactly as
  on the sequential backend. A pool's resident clients are a cache that
  :meth:`ProcessPoolBackend.close` discards: a respawned or restarted
  worker builds its clients from a population that is already current,
  so losing a worker loses nothing, and a checkpoint reads the
  population alone. Assigning ``Server.backend`` closes the outgoing
  backend, so a pool swapped out for another backend and back in
  restarts its workers from the current population instead of fitting
  the clients it cached before the swap.
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
from multiprocessing import shared_memory

import numpy as np

from ..analysis.contracts import schedule_adversary
from ..config import BACKEND_KINDS, FederationConfig
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
    rounds: int = 0          # fit batches executed

    @property
    def total_nbytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def per_round_nbytes(self) -> float:
        """Mean pickled bytes per executed round (0 if none ran)."""
        return self.total_nbytes / self.rounds if self.rounds else 0.0


class ExecutionBackend:
    """Interface: run one federated round's client fits."""

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
        updates, times = self.engine.fit_clients(
            clients, global_weights, include_decoder, round_idx
        )
        self.ipc_stats.rounds += 1
        return updates, times


# ---------------------------------------------------------------------------
# Worker-resident process pool
# ---------------------------------------------------------------------------

def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Before 3.13 attaching registers the segment as if this process owned
    it; with the tracker shared across forked workers and keyed by name,
    reader-side registrations corrupt the creator's accounting (spurious
    unlink warnings / KeyErrors at shutdown). The main process is the sole
    owner and unlinker, so readers attach untracked.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register_skipping_shm(path, rtype):
        if rtype != "shared_memory":
            original(path, rtype)

    resource_tracker.register = register_skipping_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _resolve_weights(ref):
    """Worker side: materialize the round's global weight vector.

    A shared-memory reference is copied out immediately and the segment
    closed — the main process unlinks it right after the round, and no
    client may keep a view into a vanishing buffer (``bind_global`` hooks
    hold on to the vector).
    """
    if ref[0] == "shm":
        _, name, shape, dtype = ref
        segment = _attach_untracked(name)
        try:
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            return np.array(view)
        finally:
            segment.close()
    return ref[1]


def _pack_fit(client: FLClient, update: ClientUpdate, elapsed: float,
              shipped_versions: dict[int, int]) -> tuple:
    """Worker side: one fitted client's reply, ``(update, state, elapsed)``.

    ``state`` is the client's ``state_dict()``; the update crosses without
    its decoder, which the main process reads back from the loaded state.
    The state's decoder ships only when its version is newer than the
    last one this worker sent for the client; otherwise its key is left
    out, and the main process keeps the version the checked-out client
    already holds.
    """
    state = client.state_dict()
    update.decoder_weights = None
    if state["decoder_vector"] is not None:
        if shipped_versions.get(client.client_id) == state["decoder_version"]:
            del state["decoder_vector"]
        else:
            shipped_versions[client.client_id] = state["decoder_version"]
    return update, state, elapsed


def _resident_worker_main(conn, population=None, engine_kind: str = "loop") -> None:
    """Event loop of one persistent worker process.

    The worker starts with the server's population and the engine kind (a
    fork shares both). The first round that names a client builds it with
    ``population.materialize``; the worker then keeps it as a cache, since
    every reply returns the fitted clients' states to the population.

    Protocol (every message is one pickled tuple over the duplex pipe):

    * ``("round", round_idx, include_decoder, [client_id, ...],
      weights_ref)`` — fit the listed clients in order; replies
      ``("ok", [(update, state, elapsed), ...])`` or
      ``("error", traceback)``.
    * ``("close",)`` — exit.
    """
    clients: dict[int, FLClient] = {}
    shipped_versions: dict[int, int] = {}
    engine = make_engine(engine_kind)
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
                _, round_idx, include_decoder, client_ids, weights_ref = message
                for cid in client_ids:
                    if cid not in clients:
                        if population is None:
                            raise KeyError(f"client {cid}: worker has no population")
                        clients[cid] = population.materialize(cid)
                fitted = [clients[cid] for cid in client_ids]
                updates, times = engine.fit_clients(
                    fitted, _resolve_weights(weights_ref), include_decoder,
                    round_idx,
                )
                reply = ("ok", [
                    _pack_fit(client, update, elapsed, shipped_versions)
                    for client, update, elapsed in zip(fitted, updates, times)
                ])
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
            args=(child_conn, population, engine_kind),
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
        Worker process count; ``None`` uses the CPU count.
    engine:
        Training engine each worker runs over its resident group
        (``"loop"`` or ``"batched"``; see :mod:`repro.fl.batched`).
        With ``"batched"`` every worker stacks its own clients, so the
        pool composes process parallelism with leading-axis batching.
    """

    def __init__(self, max_workers: int | None = None,
                 engine: str = "loop") -> None:
        super().__init__()
        self.max_workers = max_workers
        if engine not in ("loop", "batched"):
            raise ValueError(f"unknown engine kind {engine!r}")
        self.engine_kind = engine
        self._population = None
        self._workers: list[_WorkerHandle] | None = None
        self._mp_ctx = None
        # The global model the last fit call trained against, and the
        # (attack id, client id) runtime colluders fitted against it.
        self._collusion_psi: np.ndarray | None = None
        self._colluders: set[tuple[int, int]] = set()
        # Dead workers replaced so far (fault injection / crash recovery).
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
            # fork shares the population (nothing pickled) and the resource
            # tracker; fall back to the platform default elsewhere.
            self._mp_ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._workers = [self._start_worker(i) for i in range(n)]
        return self._workers

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

    def _respawn_worker(self, worker_idx: int) -> None:
        """Replace a dead worker; only its cached clients go with it.

        The new worker starts from the current population and materializes
        each client when a round names it, so a crashed run equals the
        crash-free run bit for bit.
        """
        workers = self._workers
        old = workers[worker_idx]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        old.process.join(timeout=5)
        if old.process.is_alive():  # pragma: no cover - defensive
            old.process.terminate()
            old.process.join(timeout=5)
        workers[worker_idx] = self._start_worker(worker_idx)
        self.respawns += 1

    def _reap_dead_workers(self) -> None:
        for worker_idx, handle in enumerate(self._workers):
            if not handle.process.is_alive():
                self._respawn_worker(worker_idx)

    def _publish_weights(self, weights: np.ndarray):
        """Publish ψ* once for the whole round; returns (ref, segment)."""
        try:
            segment = shared_memory.SharedMemory(create=True, size=weights.nbytes)
        except OSError:  # pragma: no cover - platform without POSIX shm
            return ("inline", weights), None
        np.ndarray(weights.shape, dtype=weights.dtype, buffer=segment.buf)[:] = weights
        return ("shm", segment.name, weights.shape, str(weights.dtype)), segment

    # -- the round -----------------------------------------------------------
    def _dispatch_round(self, worker_idx: int, round_args: tuple) -> None:
        """Send ``("round", *round_args)`` to one worker.

        A broken pipe (the worker died between the liveness sweep and this
        send) triggers one respawn-and-resend.
        """
        message = ("round", *round_args)
        try:
            self._workers[worker_idx].send(message)
        except (BrokenPipeError, EOFError, OSError):
            self._respawn_worker(worker_idx)
            self._workers[worker_idx].send(message)

    def _collect_round(self, worker_idx: int, round_args: tuple) -> list[dict]:
        """Receive one worker's round reply, surviving a mid-round crash.

        If the worker died after dispatch (crash injection mid-fit), it is
        respawned and the round replayed once. Replay is exact: the
        population still holds every client's state from before this
        round, so the new worker fits the same clients the dead one did.
        """
        workers = self._workers
        try:
            status, payload = workers[worker_idx].recv()
        except (EOFError, OSError):
            self._respawn_worker(worker_idx)
            self._dispatch_round(worker_idx, round_args)
            status, payload = workers[worker_idx].recv()
        if status == "error":
            raise RuntimeError(f"resident worker failed:\n{payload}")
        if status != "ok":
            raise RuntimeError(f"unexpected worker reply tag {status!r}")
        return payload

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
        workers = self._ensure_workers()
        # Replace workers that died since last round (crash injection).
        self._reap_dead_workers()

        ref, segment = self._publish_weights(weights)
        # Sticky placement: client_id mod workers, stable for the whole
        # federation, so resident state (CVAE, stream, RNG) never moves.
        n = len(workers)
        round_args = {
            worker_idx: (round_idx, include_decoder, ids, ref)
            for worker_idx in range(n)
            if (ids := [c.client_id for c in clients if c.client_id % n == worker_idx])
        }
        packed_by_id: dict[int, tuple] = {}
        # Collection order across workers is free: results are keyed by
        # client id and reassembled in round order below, so the schedule
        # sanitizer may permute which worker is drained first and the
        # histories must not move.
        collect_items = list(round_args.items())
        adversary = schedule_adversary()
        if adversary is not None:
            collect_items = [
                collect_items[i]
                for i in adversary.permutation(len(collect_items))
            ]
        try:
            for worker_idx, args in round_args.items():
                self._dispatch_round(worker_idx, args)
            for worker_idx, args in collect_items:
                for packed in self._collect_round(worker_idx, args):
                    packed_by_id[packed[0].client_id] = packed
        finally:
            if segment is not None:
                segment.close()
                segment.unlink()

        # Reassemble in round order.
        updates, times = [], []
        for client in clients:
            update, state, elapsed = packed_by_id[client.client_id]
            updates.append(self._unpack_update(client, update, state, include_decoder))
            times.append(elapsed)
        self.ipc_stats.rounds += 1
        return updates, times

    @staticmethod
    def _unpack_update(client: FLClient, update: ClientUpdate, state: dict,
                       include_decoder: bool) -> ClientUpdate:
        """Load a worker's post-fit state into the checked-out client.

        The round's ``population.checkin`` then stores it, as on the
        sequential backend. A state without ``decoder_vector`` refers to
        the version the checked-out client already holds; the update's
        decoder is the loaded client's.
        """
        if "decoder_vector" not in state:
            version = state["decoder_version"]
            held = client._decoder_version if client._decoder_vector is not None else None
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
