"""Loss functions.

Each loss exposes ``forward(prediction, target) -> float`` and
``backward() -> ndarray`` returning the gradient of the *mean* loss with
respect to the prediction, ready to feed into a model's ``backward``.

The CVAE objective of the paper (Eqn. 6) is provided as
:class:`CVAELoss` = reconstruction BCE (summed over pixels) + KL divergence
of the diagonal-Gaussian posterior against the standard-normal prior.
"""

from __future__ import annotations

import numpy as np

from . import functional as F

__all__ = [
    "SoftmaxCrossEntropy",
    "BCELoss",
    "MSELoss",
    "gaussian_kl",
    "gaussian_kl_grads",
    "CVAELoss",
]


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy on integer class labels.

    ``forward`` takes raw logits of shape (N, C) and labels of shape (N,).
    The fused gradient ``(softmax(x) - onehot(y)) / N`` is both faster and
    numerically better behaved than chaining a Softmax layer with a log
    loss.

    Client-batched mode: (K, N, C) logits with (K, N) labels return a
    ``(K,)`` vector of per-client mean losses, and ``backward`` returns the
    stacked per-client gradients — slice j is bit-identical to running the
    unstacked loss on client j alone.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
        labels = np.asarray(labels)
        if logits.ndim == 3:
            if labels.shape != logits.shape[:2]:
                raise ValueError(
                    f"client-batched labels must be {logits.shape[:2]}, "
                    f"got {labels.shape}"
                )
            log_probs = F.log_softmax(logits, axis=-1)
            clients, n = logits.shape[:2]
            picked = log_probs[
                np.arange(clients)[:, None], np.arange(n)[None, :], labels
            ]
            self._cache = (np.exp(log_probs), labels)
            return -picked.mean(axis=1)
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        log_probs = F.log_softmax(logits, axis=-1)
        n = logits.shape[0]
        # .mean()'s bytes (one pairwise sum, one division) with less dispatch.
        loss = -(log_probs[np.arange(n), labels].sum() / n)
        self._cache = (np.exp(log_probs), labels)
        return float(loss)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, labels = self._cache
        if probs.ndim == 3:
            clients, n = probs.shape[:2]
            grad = probs.copy()
            grad[np.arange(clients)[:, None], np.arange(n)[None, :], labels] -= 1.0
            grad /= n
            return grad
        n = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
        return self.forward(logits, labels)


class BCELoss:
    """Binary cross-entropy on probabilities in (0, 1).

    ``reduction='sum_per_sample'`` sums over feature dimensions and averages
    over the batch — the convention used by the VAE/CVAE reconstruction term
    (per-image log-likelihood).
    """

    def __init__(self, reduction: str = "mean", eps: float = 1e-7) -> None:
        if reduction not in ("mean", "sum", "sum_per_sample"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        pred = np.clip(prediction, self.eps, 1.0 - self.eps)
        self._cache = (pred, target)
        elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
        if self.reduction == "mean":
            return float(elem.mean())
        if self.reduction == "sum":
            return float(elem.sum())
        return float(elem.reshape(elem.shape[0], -1).sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        pred, target = self._cache
        grad = (pred - target) / (pred * (1.0 - pred))
        if self.reduction == "mean":
            return grad / pred.size
        if self.reduction == "sum":
            return grad
        return grad / pred.shape[0]

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class MSELoss:
    """Mean squared error."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._cache = (prediction, target)
        return float(np.mean((prediction - target) ** 2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        pred, target = self._cache
        return 2.0 * (pred - target) / pred.size

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL( N(mu, diag(exp(logvar))) || N(0, I) ), summed over latent dims,
    averaged over the batch.

    This is the regularization term of the ELBO (paper Eqn. 6).
    """
    per_sample = -0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1)
    return float(per_sample.mean())


def gaussian_kl_grads(mu: np.ndarray, logvar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`gaussian_kl` with respect to ``mu`` and ``logvar``."""
    n = mu.shape[0]
    dmu = mu / n
    dlogvar = 0.5 * (np.exp(logvar) - 1.0) / n
    return dmu, dlogvar


class CVAELoss:
    """The paper's CVAE training objective: BCE reconstruction + KL.

    ``beta`` scales the KL term (beta=1 is the vanilla ELBO); exposed
    because it is a common knob when the reconstruction term dominates.
    """

    def __init__(self, beta: float = 1.0) -> None:
        self.beta = beta
        self.recon = BCELoss(reduction="sum_per_sample")
        self._kl_cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(
        self,
        reconstruction: np.ndarray,
        target: np.ndarray,
        mu: np.ndarray,
        logvar: np.ndarray,
    ) -> float:
        recon_loss = self.recon(reconstruction, target)
        kl = gaussian_kl(mu, logvar)
        self._kl_cache = (mu, logvar)
        return recon_loss + self.beta * kl

    def backward(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (d_reconstruction, d_mu, d_logvar)."""
        if self._kl_cache is None:
            raise RuntimeError("backward called before forward")
        mu, logvar = self._kl_cache
        d_recon = self.recon.backward()
        dmu, dlogvar = gaussian_kl_grads(mu, logvar)
        return d_recon, self.beta * dmu, self.beta * dlogvar

    def __call__(self, reconstruction, target, mu, logvar) -> float:
        return self.forward(reconstruction, target, mu, logvar)
