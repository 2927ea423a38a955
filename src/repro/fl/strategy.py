"""Strategy interface: how the server turns client updates into a new model.

Mirrors the role of a Flower ``Strategy``. A strategy receives the round's
:class:`~repro.fl.updates.ClientUpdate` list plus a :class:`ServerContext`
giving it the server-side resources the paper's defenses need (fresh model
shells to load parameters into, the synthesis RNG, an auxiliary dataset for
Spectral's pre-training) and returns an :class:`AggregationResult`.

The server — not the strategy — applies the server learning rate
(paper Fig. 5): ``global += server_lr * (aggregated - global)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.dataset import Dataset
from .parallel import ExecutionBackend
from .updates import ClientUpdate

__all__ = [
    "ServerContext",
    "AggregationResult",
    "Strategy",
    "weighted_average",
    "mean_cutoff",
    "keep_at_mean",
    "predict_each",
]


@dataclass
class ServerContext:
    """Server-side resources available to aggregation strategies.

    Attributes
    ----------
    make_classifier:
        Factory producing a fresh classifier shell (weights are then loaded
        from a flat vector) — used by FedGuard to audit updates.
    make_decoder:
        Factory producing a fresh CVAE-decoder shell for θ_j.
    num_classes:
        Number of task classes ``L``.
    t_samples:
        Synthetic validation samples per round (paper: t = 2·m).
    class_probs:
        The categorical ``alpha`` of Alg. 1 — assumed class probabilities
        for conditioning-label sampling (uniform in the paper).
    rng:
        Server RNG (latent/conditioning sampling, tie-breaking).
    auxiliary_dataset:
        A small public dataset. ONLY defenses that the paper grants one
        (Spectral) may touch it; FedGuard must not.
    backend:
        The execution backend :func:`predict_each` scores on. The server
        sets its own; the default scores in this process.
    """

    make_classifier: Callable[[], object]
    make_decoder: Callable[[], object]
    num_classes: int
    t_samples: int
    class_probs: np.ndarray
    rng: np.random.Generator
    auxiliary_dataset: Dataset | None = None
    backend: ExecutionBackend = field(default_factory=ExecutionBackend)


@dataclass
class AggregationResult:
    """Outcome of one aggregation step."""

    weights: np.ndarray
    accepted_ids: list[int] = field(default_factory=list)
    rejected_ids: list[int] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


class Strategy:
    """Base class for aggregation strategies.

    ``needs_decoder`` tells clients whether to train/ship their CVAE
    decoder (only FedGuard sets this); ``needs_auxiliary`` marks strategies
    that require the server-side public dataset (only Spectral).
    """

    name: str = "strategy"
    needs_decoder: bool = False
    needs_auxiliary: bool = False

    def setup(self, context: ServerContext) -> None:
        """One-time initialization before round 1 (e.g. Spectral pre-training)."""

    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        global_weights: np.ndarray,
        context: ServerContext,
    ) -> AggregationResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


def weighted_average(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted mean of update vectors (the FedAvg operator).

    Stacks the vectors into a single (clients, dims) matrix so the average
    is one vectorized reduction.
    """
    if not updates:
        raise ValueError("cannot average an empty update list")
    matrix = np.stack([u.weights for u in updates])
    weights = np.array([u.num_samples for u in updates], dtype=np.float64)
    weights /= weights.sum()
    return weights @ matrix


def mean_cutoff(scores: np.ndarray) -> np.ndarray:
    """Which scores the round-mean cutoff keeps (Alg. 1 line 7), as a mask.

    Higher is better: a defense that scores by error passes the negated
    errors, which keeps exactly the updates with ``error <= error.mean()``
    (negation is exact, so ``(-e).mean()`` is bitwise ``-(e.mean())``).
    When no score reaches the mean — an all-equal round whose mean rounds
    above every score, or a NaN score — every score is kept.
    """
    keep = scores >= scores.mean()
    if not keep.any():
        keep[:] = True
    return keep


def keep_at_mean(
    updates: list[ClientUpdate], scores: np.ndarray
) -> tuple[list[ClientUpdate], list[int]]:
    """Split ``updates`` by :func:`mean_cutoff`: the accepted updates and
    the rejected client ids, both in submission order."""
    keep = mean_cutoff(scores)
    accepted = [u for u, k in zip(updates, keep) if k]
    rejected = [u.client_id for u, k in zip(updates, keep) if not k]
    return accepted, rejected


def predict_each(
    updates: list[ClientUpdate], x: np.ndarray, context: ServerContext
) -> np.ndarray:
    """Every submitted classifier's predictions on one shared batch, ``(K, N)``.

    The round's ψ_j are scored on the server's execution backend
    (:meth:`~repro.fl.parallel.ExecutionBackend.predict`), one row per
    update, never a per-update loop. In process they are stacked into one
    client-batched shell (:func:`repro.nn.stack_parameters`) and scored by
    a single ``predict``, which walks ``x`` in memory-bounded sample
    blocks; a process pool scores shares of the stack in its workers,
    with the same bytes.
    """
    preds = context.backend.predict(
        context.make_classifier(),
        np.stack([u.weights for u in updates]),
        np.ascontiguousarray(x),
    )
    assert preds.shape == (len(updates), len(x))
    return preds
