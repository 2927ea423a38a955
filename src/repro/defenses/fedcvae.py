"""FedCVAE baseline (Gu & Yang, IPDPS 2021), reproduced from its description.

Like Spectral, FedCVAE detects malicious model updates by reconstruction
error — but with a *conditional* VAE whose conditioning variable captures
the training stage, because what a benign update looks like changes as
the model converges. The FedGuard paper could not find an open
implementation; this module reconstructs the approach:

1. **Pre-training.** Using an auxiliary dataset, the server simulates
   benign federated rounds exactly as Spectral does — the same
   :class:`~repro.defenses.spectral._SurrogateBaseline` builds the
   surrogates (last-layer delta + random projection) and their
   standardization — and tags every surrogate with its *round bucket*. A
   CVAE learns p(surrogate | bucket).
2. **Detection.** At federated time, each incoming update's surrogate is
   scored by the CVAE conditioned on the current round's bucket (clamped
   to the last pre-trained bucket once past it); updates whose error
   exceeds the round mean are excluded.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import aggregate_contract
from ..data.dataset import Dataset
from ..fl.client import train_cvae
from ..fl.strategy import (
    AggregationResult,
    ServerContext,
    Strategy,
    keep_at_mean,
    weighted_average,
)
from ..fl.updates import ClientUpdate
from ..models.cvae import CVAE
from ..nn import functional as F
from .spectral import _SurrogateBaseline

__all__ = ["FedCVAE"]


class FedCVAE(_SurrogateBaseline, Strategy):
    """Round-conditioned CVAE anomaly detection over update surrogates."""

    name = "fedcvae"

    def __init__(
        self,
        surrogate_dim: int = 32,
        pretrain_rounds: int = 4,
        pseudo_clients: int = 6,
        cvae_epochs: int = 80,
        pretrain_epochs: int = 3,
        pretrain_lr: float = 0.05,
        seed: int = 13,
    ) -> None:
        super().__init__(
            surrogate_dim, pretrain_rounds, pseudo_clients, pretrain_epochs,
            pretrain_lr, seed,
        )
        self.cvae_epochs = cvae_epochs
        self._cvae: CVAE | None = None

    def _bucket(self, round_idx: int) -> int:
        """Clamp the federated round onto the pre-trained bucket range."""
        return int(min(max(round_idx - 1, 0), self.pretrain_rounds - 1))

    def setup(self, context: ServerContext) -> None:
        rng = np.random.default_rng(self.seed)
        standardized, buckets = self._pretrain(context, rng)
        # Map standardized surrogates into [0, 1] through a (numerically
        # stable) logistic squash so the CVAE's Bernoulli likelihood applies.
        squashed = F.sigmoid(standardized)

        self._cvae = CVAE(
            input_dim=squashed.shape[1],
            num_classes=self.pretrain_rounds,   # conditioning = round bucket
            hidden=max(squashed.shape[1], 32),
            latent_dim=8,
            reconstruct_label=False,
            rng=rng,
        )
        # The clients' CVAE trainer, with the round buckets as labels.
        train_cvae(
            self._cvae, Dataset(squashed, buckets, num_classes=self.pretrain_rounds),
            epochs=self.cvae_epochs, lr=1e-3, batch_size=32, rng=rng,
        )

    def _errors(self, standardized: np.ndarray, bucket: int) -> np.ndarray:
        """Deterministic conditional reconstruction error per row."""
        squashed = F.sigmoid(standardized)
        labels = np.full(squashed.shape[0], bucket, dtype=np.int64)
        y = F.one_hot(labels, self._cvae.num_classes)
        mu, _ = self._cvae.encoder(squashed, y)
        recon = self._cvae.decoder(mu, y)
        return np.sum((recon - squashed) ** 2, axis=1)

    @aggregate_contract
    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        global_weights: np.ndarray,
        context: ServerContext,
    ) -> AggregationResult:
        if self._cvae is None:
            raise RuntimeError("FedCVAE.setup() was not called before aggregation")
        errors = self._errors(self._surrogates(updates, global_weights), self._bucket(round_idx))
        # Lower error is more benign-like: keep errors <= their mean.
        accepted, rejected = keep_at_mean(updates, -errors)
        return AggregationResult(
            weights=weighted_average(accepted),
            accepted_ids=[u.client_id for u in accepted],
            rejected_ids=rejected,
            metrics={"recon_error_mean": float(errors.mean())},
        )
