"""Client execution backends: sequential and process-parallel.

The paper's testbed trains 100 clients across GPU nodes in parallel; this
module provides the equivalent for the simulation.
:class:`ProcessPoolBackend` is a **worker-resident** pool. Each
persistent worker process receives its clients' construction recipes
(:class:`~repro.fl.client.ClientRecipe`: partition indices + config + RNG
state + attack spec) exactly once, rebuilds them locally, and keeps them
alive for the whole federation. Thereafter a round ships only
``(round_idx, include_decoder, client_ids)`` plus the global weight
vector — published once per round through
:mod:`multiprocessing.shared_memory` instead of pickled per client — and
receives back only the update vector, scalars, and (first time per
:attr:`~repro.fl.updates.ClientUpdate.decoder_version`) the CVAE decoder.
Client→worker placement is **sticky** (``client_id mod workers``), so
trained CVAEs, streamed datasets, and RNG streams never cross a process
boundary again — as on the paper's testbed, where each client's data and
CVAE stay on its own node.

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
* With the resident backend the *authoritative* client state (dataset,
  stream position, RNG, trained CVAE) lives in the workers; main-process
  ``FLClient`` objects stay at their construction-time snapshot, except
  that uploaded decoder vectors are written back for inspection (the
  train-once contract of the paper's footnote 5 stays observable).
  Consequently a federation should run on one backend for its whole
  lifetime — do not alternate backends mid-run.
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

    def client_states(self, client_ids: list[int]) -> dict[int, dict] | None:
        """Authoritative per-client checkpoint state held by this backend.

        Returns ``None`` when the main-process ``FLClient`` objects *are*
        the authoritative state (the sequential backend). The resident
        pool overrides this to harvest state from its workers.
        """
        return None

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


def _pack_update(update: ClientUpdate, elapsed: float,
                 shipped_versions: dict[int, int]) -> dict:
    """Worker side: reduce one fit result to its minimal IPC payload.

    The decoder vector ships only when its version is newer than the last
    one this worker sent for the client — the main process replays older
    versions from its store.
    """
    decoder = None
    if update.decoder_weights is not None:
        if shipped_versions.get(update.client_id) != update.decoder_version:
            decoder = update.decoder_weights
            shipped_versions[update.client_id] = update.decoder_version
    return {
        "client_id": update.client_id,
        "weights": update.weights,
        "num_samples": update.num_samples,
        "has_decoder": update.decoder_weights is not None,
        "decoder_weights": decoder,
        "decoder_version": update.decoder_version,
        "decoder_classes": update.decoder_classes,
        "train_loss": update.train_loss,
        "malicious": update.malicious,
        "elapsed_s": elapsed,
    }


def _resident_worker_main(conn) -> None:
    """Event loop of one persistent worker process.

    Protocol (every message is one pickled tuple over the duplex pipe):

    * ``("install", [ClientRecipe, ...])`` — rebuild and adopt clients;
      no reply (errors surface on the next round reply).
    * ``("round", round_idx, include_decoder, [client_id, ...],
      weights_ref, engine_kind)`` — fit the listed resident clients in
      order with the named training engine; replies
      ``("ok", [packed_update, ...])`` or ``("error", traceback)``.
    * ``("harvest", [client_id, ...])`` — read-only snapshot of the listed
      clients' checkpoint state (federation checkpointing); replies
      ``("ok", {client_id: state_dict})`` or ``("error", traceback)``.
    * ``("close",)`` — exit.
    """
    clients: dict[int, FLClient] = {}
    shipped_versions: dict[int, int] = {}
    engines: dict[str, TrainingEngine] = {}
    pending_error: str | None = None
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "close":
            conn.close()
            return
        if kind == "install":
            try:
                for recipe in message[1]:
                    clients[recipe.client_id] = recipe.build()
            except Exception:  # noqa: BLE001 - forwarded to the main process
                pending_error = traceback.format_exc()
            continue
        if kind == "harvest":
            try:
                if pending_error is not None:
                    raise RuntimeError(f"client install failed:\n{pending_error}")
                reply = ("ok", {cid: clients[cid].state_dict() for cid in message[1]})
            except Exception:  # noqa: BLE001 - forwarded to the main process
                reply = ("error", traceback.format_exc())
            conn.send_bytes(pickle.dumps(reply, protocol=_PICKLE_PROTOCOL))
            continue
        if kind == "round":
            try:
                if pending_error is not None:
                    raise RuntimeError(f"client install failed:\n{pending_error}")
                (_, round_idx, include_decoder, client_ids,
                 weights_ref, engine_kind) = message
                weights = _resolve_weights(weights_ref)
                engine = engines.get(engine_kind)
                if engine is None:
                    engine = engines[engine_kind] = make_engine(engine_kind)
                group = [clients[cid] for cid in client_ids]
                updates, times = engine.fit_clients(
                    group, weights, include_decoder, round_idx
                )
                results = [
                    _pack_update(update, elapsed, shipped_versions)
                    for update, elapsed in zip(updates, times)
                ]
                reply = ("ok", results)
            except Exception:  # noqa: BLE001 - forwarded to the main process
                reply = ("error", traceback.format_exc())
            conn.send_bytes(pickle.dumps(reply, protocol=_PICKLE_PROTOCOL))
            continue
        # Unknown tags are a protocol bug on the sender side: reply with
        # an error instead of silently dropping (the sender is blocked in
        # recv and would hang forever on a dropped message).
        reply = ("error", f"unknown message tag {kind!r}")
        conn.send_bytes(pickle.dumps(reply, protocol=_PICKLE_PROTOCOL))


class _WorkerHandle:
    """Main-process handle for one resident worker: process + counted pipe."""

    def __init__(self, ctx, index: int, ipc_stats: IPCStats) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_resident_worker_main,
            args=(child_conn,),
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
        self._workers: list[_WorkerHandle] | None = None
        self._mp_ctx = None
        self._resident_ids: set[int] = set()
        # The global model the last fit call trained against, and the
        # (attack id, client id) runtime colluders fitted against it.
        self._collusion_psi: np.ndarray | None = None
        self._colluders: set[tuple[int, int]] = set()
        # client_id -> (decoder_version, θ_j): replay store for updates
        # whose decoder stayed worker-side (already shipped earlier).
        self._decoder_store: dict[int, tuple[int, np.ndarray]] = {}
        # Dead workers replaced so far (fault injection / crash recovery).
        self.respawns = 0

    # -- pool management -----------------------------------------------------
    def _ensure_workers(self) -> list[_WorkerHandle]:
        if self._workers is None:
            n = self.max_workers or os.cpu_count() or 1
            methods = multiprocessing.get_all_start_methods()
            # fork shares the main process's regenerated-pool cache and
            # resource tracker; fall back to the platform default elsewhere.
            self._mp_ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._workers = [
                _WorkerHandle(self._mp_ctx, i, self.ipc_stats) for i in range(n)
            ]
        return self._workers

    # -- crash injection and recovery ---------------------------------------
    def inject_worker_crash(self, worker_idx: int) -> bool:
        """Kill one worker process (fault injection). Returns True if killed.

        The next ``fit_clients`` call notices the dead worker, respawns
        it, and re-installs the recipes of every client placed on it —
        the recovery path a real preempted node would exercise.
        """
        workers = self._ensure_workers()
        handle = workers[worker_idx % len(workers)]
        if not handle.process.is_alive():
            return False
        handle.process.kill()
        handle.process.join(timeout=5)
        return True

    def _respawn_worker(self, worker_idx: int) -> None:
        """Replace a dead worker and forget its resident clients.

        Dropping the ids from ``_resident_ids`` makes the next dispatch
        re-ship their recipes (PR 3's install path); rebuilt clients are
        deterministic functions of their recipes, so a crashed-and-replayed
        federation is reproducible run-to-run.
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
        workers[worker_idx] = _WorkerHandle(self._mp_ctx, worker_idx, self.ipc_stats)
        n = len(workers)
        self._resident_ids = {
            cid for cid in self._resident_ids if cid % n != worker_idx
        }
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
    def _dispatch_round(self, worker_idx: int, group: list[FLClient],
                        round_idx: int, include_decoder: bool, ref) -> None:
        """Install fresh recipes + send the round message to one worker.

        A broken pipe (the worker died between the liveness sweep and this
        send) triggers one respawn-and-replay: the respawn purges the
        worker's ids from ``_resident_ids``, so the retry re-installs
        everything the dead worker held. ``_resident_ids`` is only updated
        *after* a successful send — a failed install never strands ids.
        """
        workers = self._workers
        for final in (False, True):
            fresh = [
                client.make_recipe() for client in group
                if client.client_id not in self._resident_ids
            ]
            try:
                if fresh:
                    workers[worker_idx].send(("install", fresh))
                workers[worker_idx].send(
                    ("round", round_idx, include_decoder,
                     [client.client_id for client in group], ref,
                     self.engine_kind)
                )
                for recipe in fresh:
                    self._resident_ids.add(recipe.client_id)
                return
            except (BrokenPipeError, EOFError, OSError):
                if final:
                    raise
                self._respawn_worker(worker_idx)

    def _collect_round(self, worker_idx: int, group: list[FLClient],
                       round_idx: int, include_decoder: bool, ref) -> list[dict]:
        """Receive one worker's round reply, surviving a mid-round crash.

        If the worker died after dispatch (crash injection mid-fit), it is
        respawned, its clients re-installed from recipes, and the round
        replayed once. Replay is deterministic: rebuilt clients restart
        from their recipe state, exactly as an uninterrupted install would.
        """
        workers = self._workers
        try:
            status, payload = workers[worker_idx].recv()
        except (EOFError, OSError):
            self._respawn_worker(worker_idx)
            self._dispatch_round(worker_idx, group, round_idx, include_decoder, ref)
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
        # Replace workers that died since last round (crash injection);
        # their clients are re-installed from recipes below.
        self._reap_dead_workers()

        # Sticky placement: client_id mod workers, stable for the whole
        # federation, so resident state (CVAE, stream, RNG) never moves.
        n = len(workers)
        by_worker: dict[int, list[FLClient]] = {
            worker_idx: group
            for worker_idx in range(n)
            if (group := [c for c in clients if c.client_id % n == worker_idx])
        }

        ref, segment = self._publish_weights(weights)
        packed_by_id: dict[int, dict] = {}
        # Collection order across workers is free: results are keyed by
        # client id and reassembled in round order below, so the schedule
        # sanitizer may permute which worker is drained first and the
        # histories must not move.
        collect_items = list(by_worker.items())
        adversary = schedule_adversary()
        if adversary is not None:
            collect_items = [
                collect_items[i]
                for i in adversary.permutation(len(collect_items))
            ]
        try:
            for worker_idx, group in by_worker.items():
                self._dispatch_round(
                    worker_idx, group, round_idx, include_decoder, ref
                )
            for worker_idx, group in collect_items:
                payload = self._collect_round(
                    worker_idx, group, round_idx, include_decoder, ref
                )
                for packed in payload:
                    packed_by_id[packed["client_id"]] = packed
        finally:
            if segment is not None:
                segment.close()
                segment.unlink()

        # Reassemble in round order.
        packed_in_order = [packed_by_id[client.client_id] for client in clients]
        updates = [
            self._unpack_update(client, packed)
            for client, packed in zip(clients, packed_in_order)
        ]
        times = [packed["elapsed_s"] for packed in packed_in_order]
        self.ipc_stats.rounds += 1
        return updates, times

    def _unpack_update(self, client: FLClient, packed: dict) -> ClientUpdate:
        decoder = packed["decoder_weights"]
        if decoder is not None:
            self._decoder_store[packed["client_id"]] = (
                packed["decoder_version"], np.asarray(decoder, dtype=np.float64),
            )
            # Keep the main-process shell inspectable: the train-once CVAE
            # contract stays observable outside the worker.
            client._decoder_vector = self._decoder_store[packed["client_id"]][1]
            client._decoder_version = packed["decoder_version"]
        elif packed["has_decoder"]:
            stored = self._decoder_store.get(packed["client_id"])
            if stored is None or stored[0] != packed["decoder_version"]:
                raise RuntimeError(
                    f"decoder replay miss for client {packed['client_id']}: "
                    f"worker referenced version {packed['decoder_version']}, "
                    f"store has {stored[0] if stored else None}"
                )
            decoder = stored[1]
        return ClientUpdate(
            client_id=packed["client_id"],
            weights=packed["weights"],
            num_samples=packed["num_samples"],
            decoder_weights=decoder,
            decoder_classes=packed["decoder_classes"],
            decoder_version=packed["decoder_version"],
            train_loss=packed["train_loss"],
            malicious=packed["malicious"],
        )

    def client_states(self, client_ids: list[int]) -> dict[int, dict] | None:
        """Harvest authoritative checkpoint state from the workers.

        Only clients resident in a worker appear in the result, harvested
        live. Ids never fitted here are absent, and the caller falls back
        to the population (which *is* authoritative for them).
        """
        if self._workers is None:
            return {}
        self._reap_dead_workers()
        n = len(self._workers)
        by_worker: dict[int, list[int]] = {}
        for cid in client_ids:
            if cid in self._resident_ids:
                by_worker.setdefault(cid % n, []).append(cid)
        for worker_idx, ids in by_worker.items():
            self._workers[worker_idx].send(("harvest", ids))
        harvested: dict[int, dict] = {}
        for worker_idx in by_worker:
            status, payload = self._workers[worker_idx].recv()
            if status == "error":
                raise RuntimeError(f"resident worker harvest failed:\n{payload}")
            if status != "ok":
                raise RuntimeError(f"unexpected worker reply tag {status!r}")
            harvested.update(payload)
        return harvested

    def close(self) -> None:
        if self._workers is not None:
            for worker in self._workers:
                worker.shutdown()
            self._workers = None
            self._resident_ids.clear()
            self._decoder_store.clear()
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
