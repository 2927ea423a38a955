"""Classifier architectures for the federated learning task.

:class:`CNNClassifier` generalizes the paper's Table II architecture to any
square input size divisible by 4 (two stride-2 pools). The exact paper
instance — 28×28 input, 5×5 convs with 32/64 channels, 512-unit FC, 10-way
output, 1,662,752 weight parameters — is built by :func:`mnist_cnn`.

Note on Table II: the paper lists conv output shapes (26×26, 12×12) that
are inconsistent with its own flatten size of 3136 = 64·7·7. Padding 2
("same" for a 5×5 kernel) yields 28→28→14→14→7 and reproduces both the
flatten size and the parameter totals, so that is what we use.

A small :class:`MLPClassifier` is provided for fast unit tests and scaled
benchmark runs.

Both share one inference path: :meth:`Classifier.predict` scores the
samples in blocks sized so that one block's activations stay within
:data:`PREDICT_BLOCK_BYTES`, however many samples and stacked models
there are.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from .. import nn

__all__ = [
    "PREDICT_BLOCK_BYTES", "Classifier", "CNNClassifier", "MLPClassifier",
    "mnist_cnn", "scaled_cnn",
]

# Activation bytes one inference block may hold: 16 MiB is 16-sample
# blocks for 10 stacked paper_scaled CNNs (a conv2 column block is
# 100 KiB per sample per model).
PREDICT_BLOCK_BYTES = 16 * 2**20


class Classifier(nn.Module):
    """Layer-stack passes and memory-bounded inference shared by the classifiers.

    Subclasses build ``_stack`` (the layers in forward order), shape raw
    inputs for it in ``_shape_input`` and set ``sample_nbytes``: the bytes
    of one sample's widest activation in one model — its largest im2col
    column block or hidden row, in float64.

    ``forward`` runs the whole input at once and caches it for
    ``backward``. ``predict`` and ``predict_proba`` instead score the input
    in blocks of ``block_shape(K)`` (models, samples), so their peak memory
    is set by :data:`PREDICT_BLOCK_BYTES`, not by the input size. Blocking changes
    the BLAS panelling of each GEMM and so can move logits in their last
    bits; predictions are unchanged unless two logits tie to within that
    rounding.
    """

    sample_nbytes: int

    def _shape_input(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw logits: (N, num_classes), or (K, N, num_classes) when stacked."""
        x = self._shape_input(x)
        for layer in self._stack:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate every parameter gradient from the logits' gradient.

        The input layer runs without its input gradient (for the CNN,
        conv1's ``dcols`` GEMM and ``col2im``; for the MLP, fc1's
        ``grad @ W``): training reads only the parameter gradients, so
        nothing is returned.
        """
        first, *rest = self._stack
        for layer in reversed(rest):
            grad_output = layer.backward(grad_output)
        first.backward(grad_output, input_grad=False)

    def block_shape(self, clients: int) -> tuple[int, int]:
        """(models, samples) per inference block for ``clients`` stacked models.

        All models share a block while one sample of each fits the budget;
        beyond that the models are split, one sample per block.
        """
        pairs = max(1, PREDICT_BLOCK_BYTES // self.sample_nbytes)
        models = min(clients, pairs)
        return models, pairs // models

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted integer class labels (per client in batched mode)."""
        return self._score(x, lambda out: np.argmax(out, axis=-1))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities (the paper's softmax output layer)."""
        return self._score(x, lambda out: nn.functional.softmax(out, axis=-1))

    def _score(
        self, x: np.ndarray, head: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """``head(forward(x))`` computed over blocks of models and samples.

        ``x`` is an unstacked ``(N, ...)`` batch, one ``(N, D)`` batch
        shared by every stacked model, or a per-model ``(K, N, ...)``
        stack; the output has a leading ``(K, N)`` in batched mode and
        ``(N,)`` otherwise.
        """
        stacked = self.client_axis is not None
        per_model = stacked and x.ndim > 2
        clients = self.client_axis or 1
        n = x.shape[1 if per_model else 0]
        models, samples = self.block_shape(clients)
        if models == clients and n <= samples:
            return head(self.forward(x))
        rows = []
        for lo in range(0, clients, models):
            hi = min(lo + models, clients)
            narrowed = (
                self._models(lo, hi) if models < clients else contextlib.nullcontext()
            )
            with narrowed:
                parts = [
                    head(self.forward(
                        x[lo:hi, s:s + samples] if per_model else x[s:s + samples]
                    ))
                    for s in range(0, n, samples)
                ]
            rows.append(np.concatenate(parts, axis=1 if stacked else 0))
        return np.concatenate(rows)

    @contextlib.contextmanager
    def _models(self, lo: int, hi: int):
        """Narrow the stacked parameters to models ``lo:hi`` (views)."""
        params = self.parameters()
        stacks = [p.data for p in params]
        clients = self.client_axis
        for p, data in zip(params, stacks):
            p.data = data[lo:hi]
        self.set_client_axis(hi - lo)
        try:
            yield
        finally:
            for p, data in zip(params, stacks):
                p.data = data
            self.set_client_axis(clients)


class CNNClassifier(Classifier):
    """Conv–pool–conv–pool–FC–FC classifier (paper Table II, generalized).

    Parameters
    ----------
    image_size:
        Side length of the square input image; must be divisible by 4.
    in_channels:
        Number of input image channels (1 for grayscale digits).
    channels:
        Output channels of the two conv layers.
    hidden:
        Width of the penultimate fully connected layer.
    num_classes:
        Number of output classes.
    kernel_size:
        Conv kernel (5 in the paper); padding is ``kernel_size // 2`` so
        spatial size is preserved by the convs and halved only by the pools.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        image_size: int = 28,
        in_channels: int = 1,
        channels: tuple[int, int] = (32, 64),
        hidden: int = 512,
        num_classes: int = 10,
        kernel_size: int = 5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if image_size % 4 != 0:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        rng = rng if rng is not None else np.random.default_rng()
        pad = kernel_size // 2
        c1, c2 = channels
        self.image_size = image_size
        self.in_channels = in_channels
        self.num_classes = num_classes
        final_spatial = image_size // 4
        self.flat_features = c2 * final_spatial * final_spatial
        area, half_area = image_size * image_size, (image_size // 2) ** 2
        field = kernel_size * kernel_size
        self.sample_nbytes = 8 * max(
            in_channels * field * area, c1 * area,   # conv1 columns, output
            c1 * field * half_area, c2 * half_area,  # conv2 columns, output
            hidden, num_classes,
        )

        self.conv1 = nn.Conv2d(in_channels, c1, kernel_size, padding=pad, rng=rng)
        self.relu1 = nn.ReLU()
        self.pool1 = nn.MaxPool2d(2)
        self.conv2 = nn.Conv2d(c1, c2, kernel_size, padding=pad, rng=rng)
        self.relu2 = nn.ReLU()
        self.pool2 = nn.MaxPool2d(2)
        self.flatten = nn.Flatten()
        self.fc1 = nn.Linear(self.flat_features, hidden, rng=rng)
        self.relu3 = nn.ReLU()
        self.fc2 = nn.Linear(hidden, num_classes, rng=rng)
        self._stack = [
            self.conv1, self.relu1, self.pool1,
            self.conv2, self.relu2, self.pool2,
            self.flatten, self.fc1, self.relu3, self.fc2,
        ]

    def _shape_input(self, x: np.ndarray) -> np.ndarray:
        """Images for conv1 from (N, C, H, W) images or flat (N, C*H*W) rows.

        In client-batched mode the same applies with a leading client axis
        — (K, N, ...) stacks — and a plain (N, D) batch is shared by every
        stacked client (one batch scored by K models) as a stride-0
        broadcast, which ``Conv2d`` unfolds once for all K.
        """
        image = (self.in_channels, self.image_size, self.image_size)
        if self.client_axis is not None:
            if x.ndim == 2:
                return np.broadcast_to(
                    x.reshape((x.shape[0],) + image),
                    (self.client_axis, x.shape[0]) + image,
                )
            if x.ndim == 3:
                return np.ascontiguousarray(x).reshape(x.shape[:2] + image)
            return x
        if x.ndim == 2:
            return x.reshape((-1,) + image)
        return x


class MLPClassifier(Classifier):
    """Two-layer MLP on flattened images — fast substitute for unit tests."""

    def __init__(
        self,
        input_dim: int,
        hidden: int = 64,
        num_classes: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.sample_nbytes = 8 * max(input_dim, hidden, num_classes)
        self.fc1 = nn.Linear(input_dim, hidden, rng=rng)
        self.relu = nn.ReLU()
        self.fc2 = nn.Linear(hidden, num_classes, rng=rng)
        self._stack = [self.fc1, self.relu, self.fc2]

    def _shape_input(self, x: np.ndarray) -> np.ndarray:
        """Flat rows: (N, D), or (K, N, D) with a shared batch copied per client."""
        if self.client_axis is not None:
            if x.ndim == 2:
                x = np.broadcast_to(x, (self.client_axis,) + x.shape)
            return np.ascontiguousarray(x).reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)


def mnist_cnn(rng: np.random.Generator | None = None) -> CNNClassifier:
    """The paper's exact Table II classifier: 1,662,752 weight parameters."""
    return CNNClassifier(
        image_size=28, in_channels=1, channels=(32, 64), hidden=512,
        num_classes=10, kernel_size=5, rng=rng,
    )


def scaled_cnn(image_size: int = 16, rng: np.random.Generator | None = None) -> CNNClassifier:
    """A down-scaled CNN (same topology) for laptop-speed experiments."""
    return CNNClassifier(
        image_size=image_size, in_channels=1, channels=(8, 16), hidden=64,
        num_classes=10, kernel_size=5, rng=rng,
    )
