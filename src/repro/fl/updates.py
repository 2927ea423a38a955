"""The unit of federated communication: one client's round contribution.

A :class:`ClientUpdate` carries the flattened classifier parameters ψ_j and
— for strategies that request it (FedGuard) — the flattened CVAE decoder
parameters θ_j, plus sample-count metadata for weighted aggregation.

Wire-size accounting lives in :mod:`repro.fl.transport`
(:func:`~repro.fl.transport.update_nbytes`): an update is payload, the
transport layer decides what shipping it costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClientUpdate"]


@dataclass(eq=False)  # identity semantics: ndarray fields make == ambiguous
class ClientUpdate:
    """One client's submission for a federated round."""

    client_id: int
    weights: np.ndarray                     # flattened classifier parameters ψ_j
    num_samples: int
    decoder_weights: np.ndarray | None = None  # flattened CVAE decoder θ_j
    decoder_classes: np.ndarray | None = None  # classes the CVAE saw (§VI-B)
    train_loss: float = float("nan")
    malicious: bool = False                 # ground truth, for diagnostics only:
                                            # no defense is allowed to read this.

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if self.num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")
        if self.decoder_weights is not None:
            self.decoder_weights = np.asarray(self.decoder_weights, dtype=np.float64).ravel()
        if self.decoder_classes is not None:
            self.decoder_classes = np.asarray(self.decoder_classes, dtype=np.int64).ravel()
