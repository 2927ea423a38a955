"""Federated client: local classifier training, CVAE training, attacks.

Implements the ``Client`` function of the paper's Algorithm 1 (lines
22-27): receive global parameters ψ*, train the classifier on the private
partition, (for FedGuard) train a CVAE on the same partition, and return
(θ*, ψ*).

Attack plumbing mirrors the threat model:

* data-poisoning attacks rewrite the private dataset once, before any
  training (so both the classifier *and* the CVAE see poisoned data);
* model-poisoning attacks rewrite the trained classifier vector right
  before upload; the CVAE decoder is trained honestly (these attacks
  only manipulate the classifier update, cf. Section IV-B).

Per the paper's footnote 5, the partition is static so the CVAE is trained
once and cached across rounds.

A client owns no classifier. Every fit and evaluation overwrites all of
a model's weights from the incoming vector before reading any, so the
clients of one process share one classifier shell per
:class:`~repro.config.ModelConfig`, as the paper's Flower client keeps one
model per client process and overwrites it on every ``fit``. The shell's
optimizers adopt its flat buffers after the first fit
(:mod:`repro.nn.optim`), so loading and flattening weights are one copy
each.

With the worker-resident execution backend
(:class:`~repro.fl.parallel.ProcessPoolBackend`), a worker process builds
each of its clients from the server's population and keeps it as a
cache, so a client's dataset does not cross a process boundary, and each
worker has its own shell. After each fit the worker returns the client's
:meth:`FLClient.state_dict` with its update (the decoder once per
version), and the main-process population stores it, as on the
sequential backend.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..attacks.base import Attack, DataPoisoningAttack, ModelPoisoningAttack
from ..config import FederationConfig, ModelConfig
from ..data.dataset import Dataset
from ..models import build_classifier, build_cvae
from .updates import ClientUpdate

__all__ = ["FLClient", "train_classifier", "train_cvae"]

# One classifier shell, with its parameter count, per architecture in this
# process. Its weights are whatever the last fit or evaluation loaded, which
# is safe to share because each of them loads every weight before reading any.
_SHELLS: dict[ModelConfig, tuple[nn.Module, int]] = {}


def _shell(model_config: ModelConfig) -> tuple[nn.Module, int]:
    """This process's classifier shell for ``model_config`` and its size."""
    entry = _SHELLS.get(model_config)
    if entry is None:
        shell = build_classifier(model_config, np.random.default_rng(0))
        entry = (shell, sum(p.size for p in shell.parameters()))
        _SHELLS[model_config] = entry
    return entry


def train_classifier(
    model,
    dataset: Dataset,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
    momentum: float = 0.0,
    optimizer: str = "sgd",
    proximal_mu: float = 0.0,
) -> float:
    """Run local supervised training in place; returns the final mean epoch loss.

    ``proximal_mu > 0`` adds FedProx's proximal term (Sahu et al. 2018) —
    the local objective becomes ``L(w) + μ/2·‖w − w_global‖²``, anchoring
    each client near the incoming global model. The paper's future-work
    section (§VI-C) suggests FedProx as an alternative internal operator
    for FedGuard; this is its client half (the server half is unchanged
    averaging).
    """
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
    last_epoch_loss = float("nan")
    for _ in range(epochs):
        losses = []
        for features, labels in dataset.batches(batch_size, rng):
            loss = loss_fn(model(features), labels)
            opt.zero_grad()
            model.backward(loss_fn.backward())
            if anchors is not None:
                for p, anchor in zip(model.parameters(), anchors):
                    p.grad += proximal_mu * (p.data - anchor)
            opt.step()
            losses.append(loss)
        # np.mean's bytes (one pairwise sum, one division) without its dispatch.
        last_epoch_loss = (
            float(np.add.reduce(losses) / len(losses)) if losses else float("nan")
        )
    return last_epoch_loss


def train_cvae(
    cvae,
    dataset: Dataset,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Train the client CVAE on its private data (paper Alg. 1, line 25)."""
    opt = nn.Adam(cvae.parameters(), lr=lr)
    loss_fn = nn.CVAELoss()
    last_epoch_loss = float("nan")
    for _ in range(epochs):
        losses = []
        for features, labels in dataset.batches(batch_size, rng):
            target = cvae.reconstruction_target(features, labels)
            recon, mu, logvar = cvae.forward(features, labels, rng)
            loss = loss_fn(recon, target, mu, logvar)
            opt.zero_grad()
            cvae.backward(*loss_fn.backward())
            opt.step()
            losses.append(loss)
        last_epoch_loss = float(np.mean(losses)) if losses else float("nan")
    return last_epoch_loss


class FLClient:
    """One simulated federated participant.

    Parameters
    ----------
    client_id:
        Stable identifier within the federation.
    dataset:
        The client's private partition P_j.
    config:
        Federation-wide hyper-parameters.
    rng:
        This client's private random stream (derived from the federation
        seed so the whole simulation is deterministic).
    attack:
        ``None`` for benign clients; otherwise the installed adversarial
        behaviour.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        config: FederationConfig,
        rng: np.random.Generator,
        attack: Attack | None = None,
        stream=None,
    ) -> None:
        self.client_id = client_id
        self.config = config
        self.rng = rng
        self.attack = attack
        # Dynamic-dataset support (§VI-C): an optional DataStream the
        # client pulls fresh samples from each round.
        self.stream = stream

        if isinstance(attack, DataPoisoningAttack):
            dataset = attack.apply(dataset, rng)
        self.dataset = dataset

        # Draw the P doubles initializing a classifier would, so the stream
        # (and every history) matches a client that owns its model. Not
        # ``bit_generator.advance(P)``: that also drops the uint32 a
        # poisoning draw may have left buffered.
        rng.random(_shell(config.model)[1])
        self._decoder_vector: np.ndarray | None = None
        self._decoder_version = 0

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything that evolves after construction, for checkpoint/resume.

        The static dataset and the attack object are *not* included:
        construction replays them deterministically from the federation
        seed (data-poisoning included). The classifier shell belongs to the
        process, not the client, and every fit overwrites its weights from
        the incoming broadcast; local optimizers are rebuilt per fit. Only
        with an active stream does the dataset diverge from its
        construction-time state, so it (and the stream position) ship
        exactly then. The decoder vector is shared, not copied: nothing
        writes one in place (a retrain binds a new vector), so the
        population's check-in, which runs before the audit, holds no
        second copy of every fitted decoder.
        """
        streaming = self.stream is not None
        return {
            "rng_state": self.rng.bit_generator.state,
            "decoder_vector": self._decoder_vector,
            "decoder_version": self._decoder_version,
            "stream": self.stream if streaming else None,
            "dataset": self.dataset if streaming else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` on a freshly constructed client."""
        self.rng.bit_generator.state = state["rng_state"]
        self._decoder_vector = state["decoder_vector"]
        self._decoder_version = state["decoder_version"]
        if state["stream"] is not None:
            self.stream = state["stream"]
            self.dataset = state["dataset"]

    @property
    def is_malicious(self) -> bool:
        return self.attack is not None

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    # -- CVAE ---------------------------------------------------------------
    def decoder_vector(self) -> np.ndarray:
        """Train the CVAE once (lazily) and return the flattened decoder θ_j."""
        if self._decoder_vector is None:
            cfg = self.config
            cvae_data = self.dataset
            # Decoder-poisoning attackers corrupt only the CVAE's training
            # labels (§VI-B's "malicious decoders"); the classifier keeps
            # training on the honest data.
            poison = getattr(self.attack, "poison_cvae_data", None)
            if poison is not None:
                cvae_data = poison(self.dataset, self.rng)
            cvae = build_cvae(cfg.model, self.rng)
            train_cvae(
                cvae, cvae_data,
                epochs=cfg.cvae_epochs, lr=cfg.cvae_lr,
                batch_size=cfg.cvae_batch_size, rng=self.rng,
            )
            self._decoder_vector = nn.parameters_to_vector(cvae.decoder)
            # Version every (re)train: the process pool ships θ_j back to
            # the main process once per version.
            self._decoder_version += 1
        return self._decoder_vector

    @property
    def held_decoder_version(self) -> int | None:
        """Version of the trained decoder this client holds, None without one."""
        return self._decoder_version if self._decoder_vector is not None else None

    # -- dynamic data ---------------------------------------------------------
    def ingest_stream(self, round_idx: int) -> None:
        """Pull this round's fresh samples from the data stream, if any.

        Incoming samples pass through the same data-poisoning attack as the
        initial partition (a label-flipping client flips *everything* it
        trains on), and the retention window drops the oldest samples. When
        ``cvae_refresh_every`` is set, the cached decoder is invalidated on
        schedule so the CVAE re-trains on the current window.
        """
        cfg = self.config
        if self.stream is None or cfg.stream_samples_per_round <= 0:
            return
        fresh = self.stream.next_batch(cfg.stream_samples_per_round)
        if isinstance(self.attack, DataPoisoningAttack):
            fresh = self.attack.apply(fresh, self.rng)
        self.dataset = Dataset.concat(self.dataset, fresh)
        if cfg.stream_window > 0:
            self.dataset = self.dataset.tail(cfg.stream_window)
        if cfg.cvae_refresh_every > 0 and round_idx % cfg.cvae_refresh_every == 0:
            self._decoder_vector = None

    # -- federated round -------------------------------------------------------
    def begin_fit(self, round_idx: int) -> None:
        """Round-entry bookkeeping shared by the loop and batched engines.

        Must run before any training draw of the round: stream ingestion
        can grow the dataset (changing this round's batch schedule) and may
        consume this client's RNG (data-poisoning of fresh samples).
        """
        self.ingest_stream(round_idx)

    def finish_fit(
        self,
        weights: np.ndarray,
        global_weights: np.ndarray,
        train_loss: float,
        include_decoder: bool,
    ) -> ClientUpdate:
        """Post-training half of a local round: attack, decoder, upload.

        ``weights`` is the locally trained classifier vector (however it
        was produced — per-client loop or a slice of a batched stack).
        Draw order per client stream matches :meth:`fit` exactly: training
        draws, then attack draws, then (lazy) CVAE training draws.
        """
        if isinstance(self.attack, ModelPoisoningAttack):
            # Optimized attacks (Fang-style, scaling) exploit knowledge of
            # the global model (threat model TM-2); hand it over if the
            # attack declares the hook.
            bind = getattr(self.attack, "bind_global", None)
            if bind is not None:
                bind(global_weights)
            weights = self.attack.apply(weights, self.rng)
        decoder = self.decoder_vector() if include_decoder else None
        return ClientUpdate(
            client_id=self.client_id,
            weights=weights,
            num_samples=self.num_samples,
            decoder_weights=decoder,
            # §VI-B: advertise which classes the CVAE actually saw, so a
            # class-aware server never asks a decoder for a digit it
            # cannot draw. (For a label-flipping client this reflects the
            # *poisoned* labels — the attacker controls its own metadata.)
            decoder_classes=self.dataset.classes_present() if include_decoder else None,
            train_loss=train_loss,
            malicious=self.is_malicious,
        )

    def fit(
        self,
        global_weights: np.ndarray,
        include_decoder: bool,
        round_idx: int = 0,
    ) -> ClientUpdate:
        """Run one local round: load ψ*, train, (attack), upload.

        Parameters
        ----------
        global_weights:
            The current global classifier vector ψ₀.
        include_decoder:
            Whether the aggregation strategy asked for CVAE decoders
            (FedGuard). Triggers one-time CVAE training on first use.
        round_idx:
            Current federated round (drives stream ingestion and the CVAE
            refresh schedule in the dynamic-dataset setting).
        """
        cfg = self.config
        self.begin_fit(round_idx)
        shell, _ = _shell(cfg.model)
        nn.vector_to_parameters(global_weights, shell)
        train_loss = train_classifier(
            shell, self.dataset,
            epochs=cfg.local_epochs, lr=cfg.client_lr,
            batch_size=cfg.batch_size, rng=self.rng,
            momentum=cfg.client_momentum, optimizer=cfg.client_optimizer,
            proximal_mu=cfg.proximal_mu,
        )
        weights = nn.parameters_to_vector(shell)  # a copy: the next fit reloads the shell
        return self.finish_fit(weights, global_weights, train_loss, include_decoder)

    def evaluate(self, weights: np.ndarray, dataset: Dataset | None = None) -> float:
        """Accuracy of the given classifier vector on a dataset (local by default)."""
        data = dataset if dataset is not None else self.dataset
        shell, _ = _shell(self.config.model)
        nn.vector_to_parameters(weights, shell)
        return float(np.mean(shell.predict(data.features) == data.labels))
