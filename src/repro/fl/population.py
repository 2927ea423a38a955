"""Lazy, array-backed virtual client populations.

The paper's evaluation stops at N=100, where one live
:class:`~repro.fl.client.FLClient` per client is affordable. Production
cross-device FL assumes the opposite regime: millions of registered
devices of which a few hundred participate per round. ``build_federation``
therefore never enumerates the population — no O(n_clients) objects, RNG
spawns, partition subsets, or stream objects up front:

* :class:`VirtualClientPopulation` — clients exist as *recipes*, not
  objects. A client materializes only when sampled (or explicitly peeked
  at) and evaporates after the round; everything needed to rebuild it
  bit-identically is derived on demand from its index:

  - its private RNG comes from an index-derived :class:`numpy.random.
    SeedSequence` spawn key, bit-identical to
    ``clients_rng.spawn(n)[cid]`` (a spawned child is a pure function of
    the parent's ``(entropy, spawn_key, pool_size)`` plus the child
    index — no O(n) spawn list needed);
  - its partition membership comes from a packed CSR-style
    ``(offsets, indices)`` pair built once from ``partition_indices()``
    (:class:`CSRPartition`), or — for the ``"virtual"`` scheme — from an
    O(samples_per_client) per-index derivation with no global state at
    all (:class:`VirtualPartition`);
  - its malicious designation is a sorted packed id array probed with
    ``searchsorted``.

* :class:`PackedStateStore` — per-client *mutable* state (PCG64 RNG
  counters, decoder versions) lives in one packed NumPy structured
  array. Only clients that actually participated own a row; decoder
  vectors and (opt-in) stream objects live in side tables keyed by id,
  O(touched) not O(n).

* :class:`EagerPopulation` — the adapter wrapping a live client list.
  Hand-built servers (``Server(clients=[...])``) go through it; the server
  only ever talks to the :class:`ClientPopulation` interface.

Bit-equality contract: materializing client ``cid`` replays
``FLClient.__init__`` exactly as a one-object-per-client construction
would (RNG ``clients_rng.spawn(n)[cid]``, the same data-poisoning draws,
the same shell-init draws: the P doubles a classifier init takes, even
though the process shares one classifier shell), then overlays the
packed mutable state captured at its last check-in — the same
construct-then-``load_state_dict`` sequence the checkpoint/resume path
already proves bit-identical. The
property suite in ``tests/property/test_population_properties.py``
asserts this against that construction, built in the test, for every
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import FederationConfig, ModelConfig
from .client import FLClient

__all__ = [
    "SeedParent",
    "CSRPartition",
    "VirtualPartition",
    "PackedStateStore",
    "ClientPopulation",
    "EagerPopulation",
    "VirtualClientPopulation",
]


# ---------------------------------------------------------------------------
# Index-derived RNG streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedParent:
    """A captured parent SeedSequence, able to derive any child in O(1).

    ``parent.spawn(n)[i]`` is a pure function of the parent's entropy,
    spawn key, pool size, and the child's index ``base + i`` — so instead
    of materializing n children up front, we capture those four values and
    derive ``child(i)`` on demand, bit-identical to the eager spawn.
    """

    entropy: object
    spawn_key: tuple
    pool_size: int
    base: int
    bit_generator: str = "PCG64"

    @classmethod
    def capture(cls, rng: np.random.Generator) -> "SeedParent":
        seq = rng.bit_generator.seed_seq
        return cls(
            entropy=seq.entropy,
            spawn_key=tuple(seq.spawn_key),
            pool_size=seq.pool_size,
            base=seq.n_children_spawned,
            bit_generator=type(rng.bit_generator).__name__,
        )

    def child(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.entropy,
            spawn_key=self.spawn_key + (self.base + index,),
            pool_size=self.pool_size,
        )

    def generator(self, index: int) -> np.random.Generator:
        bit_generator_cls = getattr(np.random, self.bit_generator)
        return np.random.Generator(bit_generator_cls(self.child(index)))


# ---------------------------------------------------------------------------
# Partition backends
# ---------------------------------------------------------------------------

class CSRPartition:
    """Packed (offsets, indices) form of a per-client index-array list.

    Built once from ``partition_indices()``; ``indices_for(cid)`` is a
    zero-copy slice carrying exactly the values the eager list held.
    """

    def __init__(self, parts: list[np.ndarray]) -> None:
        sizes = np.fromiter((len(p) for p in parts), dtype=np.int64,
                            count=len(parts))
        self.offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.indices = (
            np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
            if parts else np.empty(0, dtype=np.int64)
        )

    @property
    def n_clients(self) -> int:
        return len(self.offsets) - 1

    def indices_for(self, cid: int) -> np.ndarray:
        return self.indices[self.offsets[cid]:self.offsets[cid + 1]]


class VirtualPartition:
    """Index-derived partition membership: no global state at all.

    Backs the ``"virtual"`` partition scheme: client ``cid``'s indices are
    ``samples_per_client`` draws (with replacement) into the shared train
    pool from an index-derived child of the partition stream — O(k) per
    client, nothing stored, identical to the eager
    ``partition_indices(scheme="virtual")`` arrays.
    """

    def __init__(self, n_samples: int, n_clients: int,
                 samples_per_client: int, parent: SeedParent) -> None:
        if samples_per_client <= 0:
            raise ValueError(
                f"samples_per_client must be positive, got {samples_per_client}"
            )
        self.n_samples = n_samples
        self._n_clients = n_clients
        self.samples_per_client = samples_per_client
        self.parent = parent

    @property
    def n_clients(self) -> int:
        return self._n_clients

    def indices_for(self, cid: int) -> np.ndarray:
        from ..data.partition import virtual_client_indices

        return virtual_client_indices(
            self.n_samples, self.samples_per_client, self.parent.child(cid)
        )


# ---------------------------------------------------------------------------
# Packed mutable state
# ---------------------------------------------------------------------------

# One row per *touched* client. PCG64 state/inc are 128-bit integers packed
# into hi/lo uint64 pairs. Population clients always draw from PCG64, so a
# row holds nothing else and ``pack`` refuses any other bit generator.
_STATE_DTYPE = np.dtype([
    ("rng_state_hi", np.uint64), ("rng_state_lo", np.uint64),
    ("rng_inc_hi", np.uint64), ("rng_inc_lo", np.uint64),
    ("rng_has_uint32", np.uint8), ("rng_uinteger", np.uint64),
    ("decoder_version", np.int64),
])

_U64 = 1 << 64

# Rows a new store holds before its first doubling.
INITIAL_CAPACITY = 256


class PackedStateStore:
    """Array-backed store of per-client mutable state, O(touched) rows.

    The structured array lives on the heap, :data:`INITIAL_CAPACITY` rows
    to start; capacity doubles on demand.
    """

    def __init__(self) -> None:
        self._rows = np.zeros(INITIAL_CAPACITY, dtype=_STATE_DTYPE)
        self._slots: dict[int, int] = {}
        self._decoders: dict[int, np.ndarray] = {}
        self._objects: dict[int, tuple] = {}

    def __contains__(self, cid: int) -> bool:
        return cid in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def touched_ids(self) -> list[int]:
        return sorted(self._slots)

    def _slot_for(self, cid: int) -> int:
        slot = self._slots.get(cid)
        if slot is None:
            slot = len(self._slots)
            if slot >= len(self._rows):
                grown = np.zeros(2 * len(self._rows), dtype=_STATE_DTYPE)
                grown[: len(self._rows)] = self._rows
                self._rows = grown
            self._slots[cid] = slot
        return slot

    def pack(self, cid: int, state: dict) -> None:
        """Fold one ``FLClient.state_dict()`` payload into packed rows.

        A non-PCG64 RNG state raises ``ValueError`` and leaves ``cid``
        out of the store.
        """
        rng_state = state["rng_state"]
        if rng_state.get("bit_generator") != "PCG64":
            raise ValueError(
                f"client {cid}: packed client state needs a PCG64 RNG, "
                f"got {rng_state.get('bit_generator')!r}"
            )
        # Resolve the slot first: _slot_for may grow (replace) self._rows.
        slot = self._slot_for(cid)
        row = self._rows[slot]
        state_hi, state_lo = divmod(rng_state["state"]["state"], _U64)
        inc_hi, inc_lo = divmod(rng_state["state"]["inc"], _U64)
        row["rng_state_hi"], row["rng_state_lo"] = state_hi, state_lo
        row["rng_inc_hi"], row["rng_inc_lo"] = inc_hi, inc_lo
        row["rng_has_uint32"] = rng_state["has_uint32"]
        row["rng_uinteger"] = rng_state["uinteger"]
        row["decoder_version"] = state["decoder_version"]
        if state["decoder_vector"] is not None:
            self._decoders[cid] = state["decoder_vector"]
        else:
            self._decoders.pop(cid, None)
        if state["stream"] is not None:
            self._objects[cid] = (state["stream"], state["dataset"])
        else:
            self._objects.pop(cid, None)

    def unpack(self, cid: int) -> dict:
        """Rebuild the ``state_dict`` payload for a touched client."""
        row = self._rows[self._slots[cid]]
        stream, dataset = self._objects.get(cid, (None, None))
        return {
            "rng_state": {
                "bit_generator": "PCG64",
                "state": {
                    "state": (int(row["rng_state_hi"]) * _U64
                              + int(row["rng_state_lo"])),
                    "inc": (int(row["rng_inc_hi"]) * _U64
                            + int(row["rng_inc_lo"])),
                },
                "has_uint32": int(row["rng_has_uint32"]),
                "uinteger": int(row["rng_uinteger"]),
            },
            "decoder_vector": self._decoders.get(cid),
            "decoder_version": int(row["decoder_version"]),
            "stream": stream,
            "dataset": dataset,
        }


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

class ClientPopulation:
    """Interface the server talks to instead of a raw client list."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def model_config(self) -> ModelConfig:
        """The classifier architecture this population's clients train."""
        raise NotImplementedError

    def materialize(self, cid: int) -> FLClient:
        """Client ``cid`` with its current state (a resident worker's source)."""
        raise NotImplementedError

    def checkout(self, ids) -> list[FLClient]:
        """Materialize the sampled clients, in sampled order."""
        raise NotImplementedError

    def checkin(self, clients: list[FLClient]) -> None:
        """Absorb post-round state; checked-out objects evaporate after."""

    def iter_clients(self):
        """Yield every client one at a time (materialized transiently)."""
        raise NotImplementedError

    def clients_view(self):
        """Sequence view (len / index / iterate) over the whole population."""
        raise NotImplementedError

    def checkpoint_ids(self) -> list[int]:
        """Ids whose state a checkpoint must carry."""
        raise NotImplementedError

    def state_for(self, cid: int) -> dict:
        """Checkpoint state payload for one client."""
        raise NotImplementedError

    def import_state(self, cid: int, state: dict) -> None:
        """Restore one client's checkpointed state."""
        raise NotImplementedError


class EagerPopulation(ClientPopulation):
    """Adapter over a live client list (hand-built ``Server(clients=...)``)."""

    def __init__(self, clients: list[FLClient]) -> None:
        self._clients = list(clients)
        self._by_id = {c.client_id: c for c in self._clients}

    @property
    def size(self) -> int:
        return len(self._clients)

    @property
    def model_config(self) -> ModelConfig:
        return self._clients[0].config.model

    def materialize(self, cid: int) -> FLClient:
        return self._by_id[cid]

    def checkout(self, ids) -> list[FLClient]:
        return [self._clients[int(i)] for i in ids]

    def checkin(self, clients: list[FLClient]) -> None:
        pass  # live objects *are* the durable state

    def iter_clients(self):
        return iter(self._clients)

    def clients_view(self):
        return self._clients

    def checkpoint_ids(self) -> list[int]:
        return [c.client_id for c in self._clients]

    def state_for(self, cid: int) -> dict:
        return self._by_id[cid].state_dict()

    def import_state(self, cid: int, state: dict) -> None:
        self._by_id[cid].load_state_dict(state)


class _LazyClientView:
    """Read-only sequence view over a lazy population.

    Indexing materializes a fresh transient client; two accesses of the
    same index return *distinct* objects sharing identical state. Mutate
    population state through rounds/checkpoints, not through this view.
    """

    def __init__(self, population: "VirtualClientPopulation") -> None:
        self._population = population

    def __len__(self) -> int:
        return self._population.size

    def __getitem__(self, index):
        n = self._population.size
        if isinstance(index, slice):
            return [self._population.materialize(i)
                    for i in range(*index.indices(n))]
        i = int(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"client index {index} out of range for {n}")
        return self._population.materialize(i)

    def __iter__(self):
        return self._population.iter_clients()


class VirtualClientPopulation(ClientPopulation):
    """Clients as index-derived recipes; materialized only when sampled.

    Parameters
    ----------
    config:
        The federation config (training hyper-parameters, stream knobs).
    train_pool:
        The shared seeded training dataset partitions index into.
    partition:
        A :class:`CSRPartition` or :class:`VirtualPartition`.
    malicious_ids:
        Iterable of malicious client ids (packed to a sorted array).
    attack:
        The scenario's shared attack object — one instance for every
        malicious client, exactly as a hand-built client list shares it.
    client_parent:
        Captured ``clients_rng`` stream; child ``cid`` is bit-identical
        to ``clients_rng.spawn(n)[cid]``.
    stream_parent:
        Captured ``data_rng`` stream for per-client data streams (only
        when ``config.stream_samples_per_round > 0``), or ``None``.
    synth_cfg:
        The federation's :class:`~repro.data.synth.SynthMnistConfig`
        (stream construction); may be ``None`` when not streaming.
    """

    def __init__(
        self,
        config: FederationConfig,
        train_pool,
        partition,
        malicious_ids,
        attack,
        client_parent: SeedParent,
        stream_parent: SeedParent | None = None,
        synth_cfg=None,
    ) -> None:
        self._config = config
        self._pool = train_pool
        self._partition = partition
        self._malicious = np.array(sorted(malicious_ids), dtype=np.int64)
        self._attack = attack
        self._client_parent = client_parent
        self._stream_parent = stream_parent
        self._synth_cfg = synth_cfg
        self._store = PackedStateStore()

    @property
    def size(self) -> int:
        return self._partition.n_clients

    @property
    def model_config(self) -> ModelConfig:
        return self._config.model

    @property
    def partition(self):
        return self._partition

    def is_malicious(self, cid: int) -> bool:
        pos = int(np.searchsorted(self._malicious, cid))
        return pos < len(self._malicious) and int(self._malicious[pos]) == cid

    def materialize(self, cid: int) -> FLClient:
        """Rebuild client ``cid``: construction replay + packed-state overlay.

        Construction is bit-identical to building every client up front
        (index-derived RNG, shared attack object, partition slice); if the
        client has participated before, its packed mutable state is loaded
        on top — the same sequence checkpoint restore uses.
        """
        rng = self._client_parent.generator(cid)
        stream = None
        if self._stream_parent is not None:
            from ..data.stream import SynthMnistStream

            stream = SynthMnistStream(
                self._stream_parent.generator(cid), self._synth_cfg
            )
        client = FLClient(
            client_id=cid,
            dataset=self._pool.subset(self._partition.indices_for(cid)),
            config=self._config,
            rng=rng,
            attack=self._attack if self.is_malicious(cid) else None,
            stream=stream,
        )
        if cid in self._store:
            client.load_state_dict(self._store.unpack(cid))
        return client

    def checkout(self, ids) -> list[FLClient]:
        return [self.materialize(int(i)) for i in ids]

    def checkin(self, clients: list[FLClient]) -> None:
        # O(clients_per_round) state packing — bookkeeping, not round math.
        for client in clients:
            self._store.pack(client.client_id, client.state_dict())

    def iter_clients(self):
        for cid in range(self.size):
            yield self.materialize(cid)

    def clients_view(self):
        return _LazyClientView(self)

    def touched_ids(self) -> list[int]:
        return self._store.touched_ids()

    def checkpoint_ids(self) -> list[int]:
        # Untouched clients restore bit-identically from construction
        # replay alone, so the checkpoint carries only the touched set —
        # O(participants · rounds), never O(n_clients).
        return self._store.touched_ids()

    def state_for(self, cid: int) -> dict:
        return self._store.unpack(cid)

    def import_state(self, cid: int, state: dict) -> None:
        self._store.pack(cid, state)
