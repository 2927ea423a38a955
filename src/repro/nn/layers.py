"""Trainable and structural layers: Linear, Conv2d, MaxPool2d, Flatten, Dropout.

Every layer implements the ``forward``/``backward`` contract of
:class:`repro.nn.module.Module`. Forward passes cache the minimum needed for
the backward pass; backward passes accumulate parameter gradients (``+=``)
so that gradient accumulation across micro-batches works naturally.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import client_batched
from . import functional as F
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "Conv2d", "MaxPool2d", "Flatten", "Dropout"]


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``.

    Parameters are stored in (out_features, in_features) layout to match
    PyTorch conventions, which makes the paper's parameter-count tables
    directly checkable.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.has_bias = bias
        if bias:
            self.bias = Parameter(init.uniform_fan_in((out_features,), in_features, rng))
        self._cache_input: np.ndarray | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        w = self.weight.data
        if w.ndim == 3:
            # Client-batched mode: K stacked weight matrices (K, out, in)
            # against K stacked batches (K, N, in). np.matmul dispatches a
            # per-slice BLAS GEMM, so slice j is bit-identical to the
            # unstacked x[j] @ w[j].T.
            if x.ndim != 3 or x.shape[-1] != self.in_features:
                raise ValueError(
                    f"client-batched Linear expects (K, N, {self.in_features}), "
                    f"got shape {x.shape}"
                )
            self._cache_input = x
            out = np.matmul(x, w.transpose(0, 2, 1))
            if self.has_bias:
                out += self.bias.data[:, None, :]
            return out
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, {self.in_features}), got shape {x.shape}")
        self._cache_input = x
        out = x @ w.T
        if self.has_bias:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._cache_input
        if x is None:
            raise RuntimeError("backward called before forward")
        if self.weight.data.ndim == 3:
            self.weight.grad += np.matmul(grad_output.transpose(0, 2, 1), x)
            if self.has_bias:
                self.bias.grad += grad_output.sum(axis=1)
            return np.matmul(grad_output, self.weight.data)
        self.weight.grad += grad_output.T @ x
        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) tensors via im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.has_bias = bias
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.uniform_fan_in((out_channels,), fan_in, rng))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.weight.data.ndim == 5:
            return self._forward_batched(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (N, {self.in_channels}, H, W), got shape {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        cols = F.im2col(x, k, k, padding=p, stride=s)  # (C*k*k, N*out_h*out_w)
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        out = w_flat @ cols  # (out_channels, N*out_h*out_w)
        out = out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.has_bias:
            out += self.bias.data[None, :, None, None]
        self._cache = (x.shape, cols)
        return np.ascontiguousarray(out)

    @client_batched
    def _forward_batched(self, x: np.ndarray) -> np.ndarray:
        # K stacked kernels (K, out_c, in_c, k, k) over K stacked image
        # batches (K, N, in_c, H, W). The client axis is folded into the
        # im2col batch and one stacked GEMM applies each client's kernel
        # to exactly its own columns: im2col's column index is m*L + l, so
        # splitting the m = j*N + i axis recovers client j's unstacked
        # column matrix bit-for-bit.
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"client-batched Conv2d expects (K, N, {self.in_channels}, H, W), "
                f"got shape {x.shape}"
            )
        clients, n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        if x.strides[0] == 0:
            # One batch shared by every client (a stride-0 broadcast):
            # unfold it once; matmul broadcasts the (C*k*k, N*L) columns
            # over the K kernels with the same per-client GEMM.
            cols = F.im2col(x[0], k, k, padding=p, stride=s)
        else:
            cols = F.im2col(
                np.ascontiguousarray(x).reshape(clients * n, self.in_channels, h, w),
                k, k, padding=p, stride=s,
            )  # (C*k*k, K*N*out_h*out_w)
            cols = cols.reshape(cols.shape[0], clients, -1).transpose(1, 0, 2)
        w_flat = self.weight.data.reshape(clients, self.out_channels, -1)
        out = np.matmul(w_flat, cols)  # (K, out_c, N*out_h*out_w)
        out = out.reshape(clients, self.out_channels, n, out_h, out_w)
        out = out.transpose(0, 2, 1, 3, 4)
        if self.has_bias:
            out += self.bias.data[:, None, :, None, None]
        self._cache = (x.shape, cols)
        return np.ascontiguousarray(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        if len(x_shape) == 5:
            # cols is each client's (K, C*k*k, N*L) view, or the one
            # (C*k*k, N*L) matrix of a shared batch.
            clients, n = x_shape[0], x_shape[1]
            grad = grad_output.transpose(0, 2, 1, 3, 4)
            grad = grad.reshape(clients, self.out_channels, -1)  # (K, out_c, N*L)
            self.weight.grad += np.matmul(grad, np.swapaxes(cols, -1, -2)).reshape(
                self.weight.data.shape
            )
            if self.has_bias:
                self.bias.grad += grad_output.sum(axis=(1, 3, 4))
            w_flat = self.weight.data.reshape(clients, self.out_channels, -1)
            dcols_b = np.matmul(w_flat.transpose(0, 2, 1), grad)  # (K, C*k*k, N*L)
            ckk = w_flat.shape[-1]
            dcols = np.ascontiguousarray(dcols_b.transpose(1, 0, 2)).reshape(ckk, -1)
            dx = F.col2im(
                dcols, (clients * n,) + x_shape[2:], k, k, padding=p, stride=s
            )
            return dx.reshape(x_shape)
        grad = grad_output.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.weight.grad += (grad @ cols.T).reshape(self.weight.data.shape)
        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        dcols = w_flat.T @ grad  # (C*k*k, N*out_h*out_w)
        return F.col2im(dcols, x_shape, k, k, padding=p, stride=s)


class MaxPool2d(Module):
    """Non-overlapping max pooling with ``kernel_size == stride``.

    The input is viewed as ``(..., H/k, k, W/k, k)`` windows. The forward
    takes the max with ``np.maximum`` over the ``k*k`` strided window
    slices, in row-major window order, instead of reducing over two
    non-adjacent axes; the backward counts each window's maxima as an
    integer sum of the same slices of the mask. Non-overlapping windows
    are all the paper's architecture needs (2×2/2). Ties route the
    gradient to every maximal element, split evenly.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 5:
            return self._forward_batched(x)
        n, c, h, w = x.shape
        return self._pool(x, (n, c))

    @client_batched
    def _forward_batched(self, x: np.ndarray) -> np.ndarray:
        # (K, N, C, H, W): the same windows with the client axis riding
        # in front; max/mask are exact per slice.
        clients, n, c, h, w = x.shape
        return self._pool(np.ascontiguousarray(x), (clients, n, c))

    def _pool(self, x: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
        h, w = x.shape[-2:]
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(
                f"MaxPool2d({k}) requires spatial dims divisible by {k}, got {h}x{w}"
            )
        windows = x.reshape(*lead, h // k, k, w // k, k)
        slices = [windows[..., a, :, b] for a in range(k) for b in range(k)]
        out = np.maximum(slices[0], slices[1]) if k > 1 else slices[0].copy()
        for window_slice in slices[2:]:
            np.maximum(out, window_slice, out=out)
        # Mask of argmax positions for routing gradients. Ties route the
        # gradient to every maximal element, matching subgradient semantics.
        mask = windows == out[..., None, :, None]
        self._cache = (x.shape, mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, mask = self._cache
        k = self.kernel_size
        counts = np.zeros(mask.shape[:-3] + mask.shape[-2:-1], dtype=np.int_)
        for a in range(k):
            for b in range(k):
                counts += mask[..., a, :, b]
        grad = (mask / counts[..., None, :, None]) * grad_output[..., None, :, None]
        return grad.reshape(x_shape)


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        if self.client_axis is not None:
            # (K, N, ...) -> (K, N, features): only the per-sample dims fold.
            return np.ascontiguousarray(x).reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout. Identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()
        # Client-batched mode: one generator per stacked client. A single
        # shared stream would entangle the clients' mask draws (client j's
        # mask would depend on how many clients precede it in the stack),
        # breaking bit-equivalence with the per-client loop.
        self.client_rngs: list[np.random.Generator] | None = None
        self._mask: np.ndarray | None = None

    @client_batched
    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        if self.client_axis is not None:
            rngs = self.client_rngs
            if rngs is None or len(rngs) != x.shape[0]:
                raise RuntimeError(
                    "client-batched Dropout requires one RNG stream per client: "
                    f"got {0 if rngs is None else len(rngs)} streams for "
                    f"{x.shape[0]} stacked clients (set `client_rngs`)"
                )
            # Each client's mask comes from its own stream with the same
            # per-client shape the loop engine draws — bit-identical masks.
            noise = np.stack([rng.random(x.shape[1:]) for rng in rngs])
            self._mask = (noise < keep) / keep
        else:
            self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
