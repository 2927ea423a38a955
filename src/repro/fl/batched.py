"""Local-training engines: the per-client loop and the batched stack.

The paper's Algorithm 1 trains the round's m sampled clients independently;
the seed simulation ran them as a Python loop of single-model fits. This
module factors that choice into a *training engine*:

* :class:`LoopEngine` — the reference semantics: fit each client in order,
  one model at a time. This is the per-client loop that every other
  execution path must reproduce bit-for-bit.
* :class:`BatchedEngine` — stacks the sampled clients' parameter vectors
  into one ``(K, ...)``-shaped model (``nn.stack_parameters``) and runs all
  local epochs as single leading-axis NumPy passes. Clients are grouped by
  dataset size (equal size ⇒ identical batch schedule); each group trains
  as one stack, ragged leftovers simply form smaller groups.

Bit-equivalence with the loop holds because every per-client RNG stream
sees the same draw sequence (epoch permutations, Dropout masks, attack and
CVAE draws) and stacked ``np.matmul``/elementwise math is bitwise identical
per slice to the 2-D code path. The only observable difference is timing
granularity: ``begin_fit``/``finish_fit`` (stream ingestion, CVAE
training) are timed per client and each stacked group's wall clock is
apportioned equally among that group's members, so per-client attribution
tracks actual batch share and straggler deadlines (``deadline_s``) work
without falling back to ``--engine loop``. Only intra-group variation
(unequal compute on equal-sized datasets) is averaged away.

Engines are selected by :attr:`repro.config.FederationConfig.engine`
(CLI ``--engine {loop,batched}``) and plugged into the execution backends
(:mod:`repro.fl.parallel`): the sequential backend delegates directly, and
the worker-resident pool runs one engine instance per worker so each
worker batches its own resident group.
"""

from __future__ import annotations

import time
from itertools import groupby

import numpy as np

from .. import nn
from ..models import build_classifier
from .client import FLClient
from .updates import ClientUpdate

__all__ = [
    "TrainingEngine",
    "LoopEngine",
    "BatchedEngine",
    "train_classifiers_batched",
    "make_engine",
    "ENGINE_KINDS",
]


def train_classifiers_batched(
    model,
    datasets,
    epochs: int,
    lr: float,
    batch_size: int,
    rngs,
    momentum: float = 0.0,
    optimizer: str = "sgd",
    proximal_mu: float = 0.0,
) -> np.ndarray:
    """Batched counterpart of :func:`~repro.fl.client.train_classifier`.

    ``model`` must already carry a stacked ``(K, ...)`` client axis
    (:func:`repro.nn.stack_parameters`) with ``K == len(datasets) ==
    len(rngs)``, and every dataset must have the same length so all
    clients share one batch schedule. Returns the ``(K,)`` vector of final
    mean epoch losses, each bit-identical to what the per-client loop
    would have produced.

    Per-stream draw order matches the loop exactly: each epoch draws one
    ``rng.permutation(n)`` per client (the loop's ``dataset.batches``),
    then any Dropout masks per step from the same per-client streams.
    """
    k = len(datasets)
    if model.client_axis != k:
        raise ValueError(
            f"model carries client_axis={model.client_axis}, expected {k}"
        )
    if len(rngs) != k:
        raise ValueError(f"got {len(rngs)} RNG streams for {k} datasets")
    sizes = {len(dataset) for dataset in datasets}
    if len(sizes) > 1:
        raise ValueError(
            f"batched training needs equal-sized datasets, got sizes {sorted(sizes)}"
        )

    if optimizer == "sgd":
        opt = nn.SGD(model.parameters(), lr=lr, momentum=momentum)
    elif optimizer == "adam":
        opt = nn.Adam(model.parameters(), lr=lr)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    loss_fn = nn.SoftmaxCrossEntropy()
    anchors = (
        [p.data.copy() for p in model.parameters()] if proximal_mu > 0.0 else None
    )

    # One generator per stacked client for any Dropout layers — a shared
    # stream would entangle the clients' mask draws.
    for module in model.modules():
        if isinstance(module, nn.Dropout):
            module.client_rngs = list(rngs)

    last_epoch_losses = np.full(k, np.nan, dtype=np.float64)
    n = sizes.pop()
    if n == 0:
        # The loop runs zero steps and reports a NaN loss; weights stay ψ.
        return last_epoch_losses

    features = np.stack([dataset.features for dataset in datasets])
    labels = np.stack([dataset.labels for dataset in datasets])
    rows = np.arange(k)[:, None]
    for _ in range(epochs):
        losses = []
        orders = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch_size):
            idx = orders[:, start : start + batch_size]
            loss = loss_fn(model(features[rows, idx]), labels[rows, idx])
            opt.zero_grad()
            model.backward(loss_fn.backward())
            if anchors is not None:
                for p, anchor in zip(model.parameters(), anchors):
                    p.grad += proximal_mu * (p.data - anchor)
            opt.step()
            losses.append(loss)
        # (K, steps) row-contiguous mean == each client's 1-D epoch mean.
        last_epoch_losses = np.stack(losses, axis=1).mean(axis=1)
    return last_epoch_losses


class TrainingEngine:
    """Interface: produce one round's local updates for the sampled clients."""

    kind: str = ""

    def fit_clients(
        self,
        clients: list[FLClient],
        global_weights: np.ndarray,
        include_decoder: bool,
        round_idx: int = 0,
    ) -> tuple[list[ClientUpdate], list[float]]:
        """Return (updates, per-client wall times), in client order."""
        raise NotImplementedError


class LoopEngine(TrainingEngine):
    """Reference semantics: fit each sampled client one model at a time."""

    kind = "loop"

    def fit_clients(self, clients, global_weights, include_decoder, round_idx=0):
        updates, times = [], []
        for client in clients:
            t0 = time.perf_counter()
            updates.append(client.fit(global_weights, include_decoder, round_idx))
            times.append(time.perf_counter() - t0)
        return updates, times


class BatchedEngine(TrainingEngine):
    """Train all sampled clients as stacked leading-axis passes.

    A round proceeds in three phases, preserving the loop's per-stream
    draw order and its cross-client ordering guarantees:

    1. ``begin_fit`` for every client in round order (stream ingestion may
       resize datasets, which determines this round's grouping);
    2. group by dataset size and train each group as one stacked model;
    3. ``finish_fit`` for every client in round order (runtime-colluding
       attacks read state the *first* colluder writes, so finalization
       order must match the loop).
    """

    kind = "batched"

    def __init__(self) -> None:
        # One reusable stacked shell per architecture; its init weights are
        # irrelevant (stack_parameters overwrites everything each group).
        self._shells: dict = {}

    def _shell(self, model_config):
        shell = self._shells.get(model_config)
        if shell is None:
            shell = build_classifier(model_config, np.random.default_rng(0))
            self._shells[model_config] = shell
        return shell

    def _begin_round(self, clients, round_idx: int, spent: dict) -> None:
        for client in clients:
            t0 = time.perf_counter()
            client.begin_fit(round_idx)
            spent[client.client_id] = time.perf_counter() - t0

    def _train_group(self, group, global_weights, trained) -> None:
        cfg = group[0].config
        model = self._shell(cfg.model)
        nn.stack_parameters(
            np.repeat(global_weights[None, :], len(group), axis=0), model
        )
        losses = train_classifiers_batched(
            model,
            [client.dataset for client in group],
            epochs=cfg.local_epochs,
            lr=cfg.client_lr,
            batch_size=cfg.batch_size,
            rngs=[client.rng for client in group],
            momentum=cfg.client_momentum,
            optimizer=cfg.client_optimizer,
            proximal_mu=cfg.proximal_mu,
        )
        weights = nn.unstack_parameters(model)
        for i, client in enumerate(group):
            trained[client.client_id] = (weights[i], float(losses[i]))

    def _finish_round(self, clients, trained, global_weights, include_decoder,
                      spent: dict):
        updates = []
        for client in clients:
            weights, train_loss = trained[client.client_id]
            t0 = time.perf_counter()
            updates.append(
                client.finish_fit(weights, global_weights, train_loss, include_decoder)
            )
            spent[client.client_id] += time.perf_counter() - t0
        return updates

    def fit_clients(self, clients, global_weights, include_decoder, round_idx=0):
        if not clients:
            return [], []
        global_weights = np.ascontiguousarray(global_weights, dtype=np.float64)
        # Per-client attribution: individually timed begin/finish phases
        # (stream ingestion, CVAE training land on the right client) plus
        # an equal share of each stacked group's wall clock.
        spent: dict[int, float] = {}
        self._begin_round(clients, round_idx, spent)
        keyed = sorted(clients, key=lambda c: len(c.dataset))
        trained: dict[int, tuple[np.ndarray, float]] = {}
        for _, members in groupby(keyed, key=lambda c: len(c.dataset)):
            group = list(members)
            t0 = time.perf_counter()
            self._train_group(group, global_weights, trained)
            share = (time.perf_counter() - t0) / len(group)
            for client in group:
                spent[client.client_id] += share
        updates = self._finish_round(
            clients, trained, global_weights, include_decoder, spent
        )
        return updates, [spent[client.client_id] for client in clients]


ENGINE_KINDS = ("loop", "batched")


def make_engine(kind: str) -> TrainingEngine:
    """Build the engine a :class:`~repro.config.FederationConfig` asks for."""
    if kind == "loop":
        return LoopEngine()
    if kind == "batched":
        return BatchedEngine()
    raise ValueError(f"unknown engine kind {kind!r}; known: {ENGINE_KINDS}")
