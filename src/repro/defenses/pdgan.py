"""PDGAN baseline (Zhao et al. 2019), reproduced from its description.

The FedGuard paper compares against PDGAN conceptually but notes that no
open implementation exists; this module reconstructs it from the
published description so the comparison can actually be run:

1. **Auxiliary GAN.** The server owns an auxiliary dataset and trains a
   GAN on it (here: at setup, for ``gan_epochs``; the original trains it
   progressively during federated rounds).
2. **Initialization window.** For the first ``init_rounds`` federated
   rounds the defense is *inactive* — updates are FedAvg'd
   indiscriminately. The original paper reports 400–600 such rounds; this
   warm-up window is the vulnerability FedGuard's "no preparation phase"
   advantage targets, so it is faithfully reproduced (scaled down).
3. **Audit.** After initialization, the server synthesizes unconditioned
   samples from the generator, labels them by the *majority vote* of the
   round's submitted classifiers (the class of generated data is unknown
   — PDGAN's structural deficiency vs the CVAE's controllable synthesis),
   scores each client's agreement with the majority, and drops clients
   below the mean agreement — FedGuard's selection rule, for
   comparability.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import aggregate_contract
from ..fl.strategy import (
    AggregationResult,
    ServerContext,
    Strategy,
    keep_at_mean,
    predict_each,
    weighted_average,
)
from ..fl.updates import ClientUpdate
from ..models.gan import GAN

__all__ = ["PDGAN"]


class PDGAN(Strategy):
    """GAN-synthesized auditing with majority-vote labels.

    Parameters
    ----------
    init_rounds:
        Rounds of plain FedAvg before the defense activates (the paper's
        400–600, scaled to the simulation's round counts).
    samples:
        Generated samples per audit round.
    gan_epochs / latent_dim / hidden:
        Server-side GAN training budget and architecture.
    """

    name = "pdgan"
    needs_auxiliary = True

    def __init__(
        self,
        init_rounds: int = 3,
        samples: int = 100,
        gan_epochs: int = 150,
        latent_dim: int = 16,
        hidden: int = 128,
        seed: int = 11,
    ) -> None:
        if init_rounds < 0:
            raise ValueError(f"init_rounds must be >= 0, got {init_rounds}")
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        self.init_rounds = init_rounds
        self.samples = samples
        self.gan_epochs = gan_epochs
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.seed = seed
        self._gan: GAN | None = None
        self._rng = np.random.default_rng(seed)

    def setup(self, context: ServerContext) -> None:
        if context.auxiliary_dataset is None:
            raise RuntimeError(
                "PDGAN requires an auxiliary dataset (needs_auxiliary=True)"
            )
        aux = context.auxiliary_dataset
        self._gan = GAN(
            data_dim=aux.dim, latent_dim=self.latent_dim, hidden=self.hidden,
            rng=np.random.default_rng(self.seed),
        )
        self._gan.fit(aux.features, epochs=self.gan_epochs, rng=self._rng)

    @aggregate_contract
    def aggregate(
        self,
        round_idx: int,
        updates: list[ClientUpdate],
        global_weights: np.ndarray,
        context: ServerContext,
    ) -> AggregationResult:
        if self._gan is None:
            raise RuntimeError("PDGAN.setup() was not called before aggregation")

        # Initialization window: defenseless FedAvg (the PDGAN weakness
        # the FedGuard paper's "no preparation phase" benefit addresses).
        if round_idx <= self.init_rounds:
            return AggregationResult(
                weights=weighted_average(updates),
                accepted_ids=[u.client_id for u in updates],
                rejected_ids=[],
                metrics={"pdgan_active": 0},
            )

        synth = self._gan.generate(self.samples, context.rng)

        # Majority-vote labels: the generator cannot tell the server what
        # class it drew, so the round's classifiers vote.
        all_preds = predict_each(updates, synth, context)
        votes = np.apply_along_axis(
            lambda col: np.bincount(col, minlength=context.num_classes).argmax(),
            0,
            all_preds,
        )
        agreement = (all_preds == votes[None, :]).mean(axis=1)
        accepted, rejected = keep_at_mean(updates, agreement)
        return AggregationResult(
            weights=weighted_average(accepted),
            accepted_ids=[u.client_id for u in accepted],
            rejected_ids=rejected,
            metrics={
                "pdgan_active": 1,
                "agreement_mean": float(agreement.mean()),
                "agreement_min": float(agreement.min()),
            },
        )
