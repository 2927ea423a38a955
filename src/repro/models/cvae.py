"""Conditional Variational AutoEncoder (paper Table III).

The CVAE is the heart of FedGuard: every client trains one on its private
data and ships only the *decoder* to the server, which then synthesizes
class-conditioned validation data by sampling ``z ~ N(0, I)`` and labels
``y ~ Cat(L, alpha)`` and running ``decoder(concat(z, onehot(y)))``.

Architecture (paper Table III, exact):

* encoder: Linear(784+10 → 400) + ReLU, then two heads
  Linear(400 → 20) for ``mu`` and Linear(400 → 20) for ``logvar``;
* decoder: Linear(20+10 → 400) + ReLU, Linear(400 → 794) + Sigmoid.

Two details worth noting:

* The decoder output dimension is 794 (= 784 pixels + 10 label slots): the
  paper's CVAE reconstructs the *concatenated* (image, one-hot label)
  input. ``generate`` therefore returns only the first 784 dims as the
  synthetic image.
* Table III labels the mu/logvar heads "ReLU"-activated. A ReLU on ``mu``
  and ``logvar`` would confine the posterior to the non-negative orthant
  and break the KL term, so — like every reference CVAE implementation —
  the heads are linear. The parameter totals (664,834 including biases)
  are unaffected and are asserted in tests.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F

__all__ = ["CVAE", "mnist_cvae", "scaled_cvae"]


class CVAE(nn.Module):
    """Conditional VAE with diagonal-Gaussian posterior and Bernoulli likelihood.

    Parameters
    ----------
    input_dim:
        Flattened image dimension (784 for 28×28).
    num_classes:
        Number of conditioning classes ``L``.
    hidden:
        Width of the single hidden layer in encoder and decoder (400).
    latent_dim:
        Dimension of the latent variable ``z`` (20).
    reconstruct_label:
        If True (paper behaviour), the decoder reconstructs the
        concatenated (image, one-hot) vector of dimension
        ``input_dim + num_classes``; otherwise just the image.
    """

    def __init__(
        self,
        input_dim: int = 784,
        num_classes: int = 10,
        hidden: int = 400,
        latent_dim: int = 20,
        reconstruct_label: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.hidden = hidden
        self.latent_dim = latent_dim
        self.reconstruct_label = reconstruct_label
        out_dim = input_dim + num_classes if reconstruct_label else input_dim

        self.encoder = CVAEEncoder(input_dim, num_classes, hidden, latent_dim, rng=rng)
        self.decoder = CVAEDecoder(latent_dim, num_classes, hidden, out_dim, rng=rng)

        self._cache: dict | None = None

    # -- forward ----------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode, reparameterize, decode.

        Parameters
        ----------
        x:
            Flattened images in [0, 1], shape (N, input_dim).
        labels:
            Integer labels, shape (N,).
        rng:
            Source of the reparameterization noise.

        Returns
        -------
        (reconstruction, mu, logvar)
        """
        x = x.reshape(x.shape[0], -1)
        y = F.one_hot(np.asarray(labels), self.num_classes)
        mu, logvar = self.encoder(x, y)
        eps = rng.standard_normal(mu.shape)
        sigma = np.exp(0.5 * logvar)
        z = mu + eps * sigma
        recon = self.decoder(z, y)
        self._cache = {"eps": eps, "sigma": sigma}
        return recon, mu, logvar

    def reconstruction_target(self, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The tensor the decoder is trained to reproduce."""
        x = x.reshape(x.shape[0], -1)
        if not self.reconstruct_label:
            return x
        y = F.one_hot(np.asarray(labels), self.num_classes)
        return np.concatenate([x, y], axis=1)

    # -- backward ----------------------------------------------------------
    def backward(
        self,
        d_recon: np.ndarray,
        d_mu: np.ndarray,
        d_logvar: np.ndarray,
    ) -> None:
        """Backpropagate ELBO gradients through decoder, reparameterization
        trick, and encoder. Gradients accumulate in the parameters.

        ``d_mu``/``d_logvar`` are the *direct* KL-term gradients; the
        reconstruction path contributes additional gradients to both via
        ``z = mu + eps * exp(logvar / 2)``.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        eps, sigma = self._cache["eps"], self._cache["sigma"]
        dz = self.decoder.backward(d_recon)
        d_mu_total = d_mu + dz
        d_logvar_total = d_logvar + dz * eps * 0.5 * sigma
        self.encoder.backward(d_mu_total, d_logvar_total)

    # -- generation ---------------------------------------------------------
    def generate(
        self,
        labels: np.ndarray,
        rng: np.random.Generator,
        z: np.ndarray | None = None,
    ) -> np.ndarray:
        """Synthesize images conditioned on ``labels`` (paper Alg. 1, line 4).

        Returns an array of shape (len(labels), input_dim) in [0, 1].
        """
        return self.decoder.generate(labels, rng, z=z)


class CVAEEncoder(nn.Module):
    """q(z | x, y): shared hidden layer with mu / logvar heads."""

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        hidden: int,
        latent_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_classes = num_classes
        self.fc1 = nn.Linear(input_dim + num_classes, hidden, rng=rng)
        self.relu = nn.ReLU()
        self.fc_mu = nn.Linear(hidden, latent_dim, rng=rng)
        self.fc_logvar = nn.Linear(hidden, latent_dim, rng=rng)

    def forward(self, x: np.ndarray, y_onehot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = self.relu(self.fc1(np.concatenate([x, y_onehot], axis=1)))
        return self.fc_mu(h), self.fc_logvar(h)

    def backward(self, d_mu: np.ndarray, d_logvar: np.ndarray) -> None:
        """Accumulate the encoder's parameter gradients from the heads'.

        ``fc1`` runs without its input gradient: the (image, one-hot)
        input is data, so nothing reads it and nothing is returned.
        """
        dh = self.fc_mu.backward(d_mu) + self.fc_logvar.backward(d_logvar)
        dh = self.relu.backward(dh)
        self.fc1.backward(dh, input_grad=False)


class CVAEDecoder(nn.Module):
    """p(x | z, y): the only component a FedGuard client uploads.

    Shipped to the server as a standalone module so its parameters can be
    flattened, transmitted (accounted), and used for data synthesis without
    the encoder.
    """

    def __init__(
        self,
        latent_dim: int,
        num_classes: int,
        hidden: int,
        out_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.latent_dim = latent_dim
        self.num_classes = num_classes
        self.out_dim = out_dim
        self.fc1 = nn.Linear(latent_dim + num_classes, hidden, rng=rng)
        self.relu = nn.ReLU()
        self.fc2 = nn.Linear(hidden, out_dim, rng=rng)
        self.sigmoid = nn.Sigmoid()

    @property
    def image_dim(self) -> int:
        """Width of the image part of the output: the label slots dropped
        when the decoder also reconstructs the label."""
        if self.out_dim > self.num_classes:
            return self.out_dim - self.num_classes
        return self.out_dim

    def forward(self, z: np.ndarray, y_onehot: np.ndarray) -> np.ndarray:
        # axis=-1 so the same code serves (N, ·) inputs and client-batched
        # (K, N, ·) stacks (the server's batched multi-decoder synthesis).
        h = self.relu(self.fc1(np.concatenate([z, y_onehot], axis=-1)))
        return self.sigmoid(self.fc2(h))

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        dh = self.sigmoid.backward(d_out)
        dh = self.fc2.backward(dh)
        dh = self.relu.backward(dh)
        d_in = self.fc1.backward(dh)
        return d_in[..., : self.latent_dim]

    def generate(
        self,
        labels: np.ndarray,
        rng: np.random.Generator,
        z: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode prior samples conditioned on ``labels`` into images.

        Returns the first :attr:`image_dim` dims of the output.
        """
        labels = np.asarray(labels)
        if z is None:
            z = rng.standard_normal((labels.shape[0], self.latent_dim))
        if z.shape != (labels.shape[0], self.latent_dim):
            raise ValueError(
                f"z has shape {z.shape}, expected ({labels.shape[0]}, {self.latent_dim})"
            )
        y = F.one_hot(labels, self.num_classes)
        return self.forward(z, y)[:, : self.image_dim]


def mnist_cvae(rng: np.random.Generator | None = None) -> CVAE:
    """The paper's exact Table III CVAE: 664,834 parameters (with biases)."""
    return CVAE(input_dim=784, num_classes=10, hidden=400, latent_dim=20,
                reconstruct_label=True, rng=rng)


def scaled_cvae(
    input_dim: int = 256,
    hidden: int = 96,
    latent_dim: int = 8,
    rng: np.random.Generator | None = None,
) -> CVAE:
    """Down-scaled CVAE for fast experiments (16×16 images by default)."""
    return CVAE(input_dim=input_dim, num_classes=10, hidden=hidden,
                latent_dim=latent_dim, reconstruct_label=True, rng=rng)
