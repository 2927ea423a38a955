"""Client data partitioning schemes.

The paper partitions MNIST across N=100 clients with a Dirichlet
distribution (Hsu et al. 2019) at concentration α=10 — mildly non-IID.
:func:`dirichlet_partition` implements that scheme; IID and pathological
(shard-based) partitioners are provided for the heterogeneity ablations
discussed in the paper's future-work section.
"""

from __future__ import annotations

import numpy as np

from ..config import PARTITION_SCHEMES
from .dataset import Dataset

__all__ = [
    "dirichlet_partition",
    "iid_partition",
    "pathological_partition",
    "virtual_partition",
    "virtual_client_indices",
    "partition_indices",
    "partition_dataset",
]


def _repair_empty(
    parts: list[np.ndarray], rng: np.random.Generator, min_samples: int
) -> list[np.ndarray]:
    """Move samples from the largest partitions into any below ``min_samples``.

    Dirichlet draws at small α can starve a client entirely; every FL
    client needs at least a handful of samples to run local training.
    """
    parts = [np.asarray(p, dtype=np.int64) for p in parts]
    while True:
        sizes = np.array([p.size for p in parts])
        needy = int(np.argmin(sizes))
        if sizes[needy] >= min_samples:
            return parts
        donor = int(np.argmax(sizes))
        if sizes[donor] <= min_samples:
            raise ValueError(
                f"cannot guarantee {min_samples} samples per client: "
                f"total data too small for {len(parts)} clients"
            )
        take = min(min_samples - sizes[needy], sizes[donor] - min_samples)
        moved_idx = rng.choice(sizes[donor], size=take, replace=False)
        moved = parts[donor][moved_idx]
        keep_mask = np.ones(sizes[donor], dtype=bool)
        keep_mask[moved_idx] = False
        parts[donor] = parts[donor][keep_mask]
        parts[needy] = np.concatenate([parts[needy], moved])


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    alpha: float,
    rng: np.random.Generator,
    min_samples: int = 2,
) -> list[np.ndarray]:
    """Per-class Dirichlet split (Hsu, Qi & Brown 2019).

    For every class ``c``, proportions ``p ~ Dir(alpha · 1)`` over clients
    are drawn and the (shuffled) samples of that class are divided
    accordingly. Large α → near-IID; small α → each client dominated by a
    few classes. The paper uses α = 10.

    Returns a list of ``n_clients`` index arrays into ``labels``.
    """
    labels = np.asarray(labels)
    if n_clients <= 0:
        raise ValueError(f"n_clients must be positive, got {n_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    client_indices: list[list[np.ndarray]] = [[] for _ in range(n_clients)]  # repro: noqa[RG206] — global scheme is inherently O(n)
    for cls in np.unique(labels):
        cls_idx = np.flatnonzero(labels == cls)
        rng.shuffle(cls_idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        # Cumulative proportion boundaries -> contiguous chunks of the
        # shuffled class indices.
        boundaries = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(int)
        for client, chunk in enumerate(np.split(cls_idx, boundaries)):
            client_indices[client].append(chunk)
    parts = [
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        for chunks in client_indices
    ]
    for p in parts:
        rng.shuffle(p)
    return _repair_empty(parts, rng, min_samples)


def iid_partition(
    labels: np.ndarray, n_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniform random equal-size split."""
    n = len(labels)
    order = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(order, n_clients)]


def pathological_partition(
    labels: np.ndarray,
    n_clients: int,
    classes_per_client: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Extreme non-IID: each client sees only ``classes_per_client`` classes.

    Implements the shard scheme of McMahan et al. (2016): sort by label,
    cut into ``n_clients * classes_per_client`` shards, deal each client
    ``classes_per_client`` random shards.
    """
    labels = np.asarray(labels)
    n_shards = n_clients * classes_per_client
    if n_shards > len(labels):
        raise ValueError(
            f"need at least {n_shards} samples for {n_clients} clients × "
            f"{classes_per_client} shards, got {len(labels)}"
        )
    sorted_idx = np.argsort(labels, kind="stable")
    shards = np.array_split(sorted_idx, n_shards)
    shard_order = rng.permutation(n_shards)
    parts = []
    for client in range(n_clients):  # repro: noqa[RG206] — global scheme is inherently O(n)
        ids = shard_order[client * classes_per_client : (client + 1) * classes_per_client]
        parts.append(np.concatenate([shards[s] for s in ids]))
    return parts


def virtual_client_indices(
    n_samples: int,
    samples_per_client: int,
    child_seq: np.random.SeedSequence,
) -> np.ndarray:
    """One virtual client's indices into the shared pool, from its own seed.

    ``samples_per_client`` draws *with replacement* into ``n_samples``,
    from a generator seeded by the client's index-derived child sequence.
    A pure function of ``(n_samples, samples_per_client, child_seq)`` —
    no global partition state, so a million-client population can derive
    any single client's membership in O(samples_per_client).
    """
    rng = np.random.Generator(np.random.PCG64(child_seq))
    return rng.integers(0, n_samples, size=samples_per_client, dtype=np.int64)


def virtual_partition(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    samples_per_client: int = 0,
) -> list[np.ndarray]:
    """Cross-device scheme: every client draws its own subset of the pool.

    Unlike the Dirichlet/IID/pathological schemes, clients sample the pool
    *with replacement* and independently of each other — membership for
    client ``cid`` is a pure function of the partition stream's seed and
    ``cid``. That independence is what lets the lazy population
    (:class:`~repro.fl.population.VirtualPartition`) serve any single
    client without enumerating the rest; this eager form is the reference
    those per-client derivations are tested against at small n.
    """
    n_samples = len(labels)
    if samples_per_client <= 0:
        samples_per_client = max(n_samples // n_clients, 1)
    seq = rng.bit_generator.seed_seq
    base = seq.n_children_spawned
    spawn_key = tuple(seq.spawn_key)
    return [
        virtual_client_indices(
            n_samples,
            samples_per_client,
            np.random.SeedSequence(
                entropy=seq.entropy,
                spawn_key=spawn_key + (base + cid,),
                pool_size=seq.pool_size,
            ),
        )
        for cid in range(n_clients)  # repro: noqa[RG206] — eager enumeration is this function's contract
    ]


def partition_indices(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    scheme: str = "dirichlet",
    alpha: float = 10.0,
    classes_per_client: int = 2,
    min_samples: int = 2,
    samples_per_client: int = 0,
) -> list[np.ndarray]:
    """Per-client index arrays for the named scheme (see ``PARTITION_SCHEMES``).

    The index arrays are a partition's compact form: a client population
    packs them once and slices a client's dataset out of the shared train
    pool when it materializes the client. ``samples_per_client`` only
    applies to the ``"virtual"`` cross-device scheme (0 = pool size /
    n_clients).
    """
    if scheme == "dirichlet":
        return dirichlet_partition(labels, n_clients, alpha, rng, min_samples)
    if scheme == "iid":
        return iid_partition(labels, n_clients, rng)
    if scheme == "pathological":
        return pathological_partition(labels, n_clients, classes_per_client, rng)
    if scheme == "virtual":
        return virtual_partition(labels, n_clients, rng, samples_per_client)
    raise ValueError(
        f"unknown partition scheme {scheme!r}; known: {PARTITION_SCHEMES}"
    )


def partition_dataset(
    dataset: Dataset,
    n_clients: int,
    rng: np.random.Generator,
    scheme: str = "dirichlet",
    alpha: float = 10.0,
    classes_per_client: int = 2,
    min_samples: int = 2,
    samples_per_client: int = 0,
) -> list[Dataset]:
    """Split a dataset into per-client datasets using the named scheme."""
    parts = partition_indices(
        dataset.labels, n_clients, rng,
        scheme=scheme, alpha=alpha,
        classes_per_client=classes_per_client, min_samples=min_samples,
        samples_per_client=samples_per_client,
    )
    return [dataset.subset(p) for p in parts]
