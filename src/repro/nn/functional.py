"""Low-level vectorized tensor operations used by the layer implementations.

Everything in this module is a pure function on :class:`numpy.ndarray`
inputs. Layers in :mod:`repro.nn.layers` compose these primitives and add
parameter/state management on top.

The convolution primitives follow the classic im2col/col2im scheme: a
(batch, channels, H, W) tensor is unfolded into a matrix of receptive-field
columns so that the convolution itself becomes a single BLAS ``matmul``.
Both are strided-view kernels with no per-sample or per-pixel Python
loops and no index arrays: ``im2col`` copies one ``as_strided`` window
view of the padded input into the column matrix, and ``col2im`` folds
the columns back with one strided slice-add per kernel offset
(``fh*fw`` adds), so each pixel sums its contributions in ``(ki, kj)``
order.

Every public function carries an :func:`~repro.analysis.contracts.array_contract`
shape/dtype precondition. The decorators are no-ops (the raw functions,
zero wrapper overhead) unless ``REPRO_CHECK_CONTRACTS=1`` is set, in which
case a malformed tensor raises immediately with its offending shape
instead of propagating NaNs through a federation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..analysis.contracts import array_contract, client_batched

__all__ = [
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "sigmoid",
    "one_hot",
    "relu",
]


def _output_size(
    x_shape: tuple[int, ...],
    field_height: int,
    field_width: int,
    padding: int,
    stride: int,
) -> tuple[int, int]:
    """Spatial output size of an unfold; raises on a non-positive one."""
    height, width = x_shape[2], x_shape[3]
    out_height = (height + 2 * padding - field_height) // stride + 1
    out_width = (width + 2 * padding - field_width) // stride + 1
    if out_height <= 0 or out_width <= 0:
        raise ValueError(
            f"im2col produced non-positive output size for input "
            f"{tuple(x_shape)} with kernel ({field_height}, {field_width}), "
            f"padding {padding}, stride {stride}"
        )
    return out_height, out_width


@array_contract(x={"ndim": 4, "dtype": "numeric"})
def im2col(
    x: np.ndarray,
    field_height: int,
    field_width: int,
    padding: int = 0,
    stride: int = 1,
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns an owned, C-contiguous array of shape
    ``(C*fh*fw, N*out_h*out_w)`` whose columns are flattened receptive
    fields, ready to be multiplied by a flattened weight matrix. Row
    index is ``(c*fh + ki)*fw + kj``; column index is ``n*L + l`` with
    ``L = out_h*out_w`` (batch-major). The conv layer's output reshape
    relies on this exact layout.
    """
    batch, channels, height, width = x.shape
    out_height, out_width = _output_size(
        x.shape, field_height, field_width, padding, stride
    )
    if padding > 0:
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding), dtype=x.dtype
        )
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    # A zero-copy (C, fh, fw, N, out_h, out_w) view of the receptive
    # fields, in exactly the column matrix's element order, so one copy
    # materializes the columns.
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(channels, field_height, field_width, batch, out_height, out_width),
        strides=(sc, sh, sw, sn, stride * sh, stride * sw),
        writeable=False,
    )
    cols = np.empty(
        (channels * field_height * field_width, batch * out_height * out_width),
        dtype=x.dtype,
    )
    cols.reshape(windows.shape)[...] = windows
    return cols


@array_contract(cols={"ndim": 2, "dtype": "numeric"})
def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    field_height: int,
    field_width: int,
    padding: int = 0,
    stride: int = 1,
) -> np.ndarray:
    """Fold columns back into an image tensor, accumulating overlaps.

    This is the adjoint of :func:`im2col` and is used to propagate gradients
    through the unfold. Each kernel offset ``(ki, kj)`` adds its
    ``(N, C, out_h, out_w)`` slab of columns into one strided slice of the
    padded image, ``ki`` outer and ``kj`` inner, so every pixel sums its
    contributions in ``(ki, kj)`` order starting from 0.0.
    """
    batch, channels, height, width = x_shape
    out_height, out_width = _output_size(
        x_shape, field_height, field_width, padding, stride
    )
    x_padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols6 = cols.reshape(
        channels, field_height, field_width, batch, out_height, out_width
    )
    h_extent, w_extent = stride * out_height, stride * out_width
    for ki in range(field_height):
        for kj in range(field_width):
            x_padded[
                :, :, ki:ki + h_extent:stride, kj:kj + w_extent:stride
            ] += cols6[:, ki, kj].transpose(1, 0, 2, 3)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


@client_batched
@array_contract(x={"dtype": "numeric"})
def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


@client_batched
@array_contract(x={"dtype": "floating"})
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic sigmoid, in the input's dtype.

    With ``e = exp(-|x|)`` (never overflows) it is ``1 / (1 + e)`` where
    ``x >= 0`` and ``e / (1 + e)`` elsewhere: per element the operations
    of the classic masked two-branch form, so the bytes are the same,
    without its boolean gathers and scatters.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@client_batched
@array_contract(x={"min_ndim": 1, "dtype": "floating"})
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


@client_batched
@array_contract(x={"min_ndim": 1, "dtype": "floating"})
def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``.

    Reduces with the array methods, the same ``maximum``/``add`` reductions
    as ``np.max``/``np.sum`` without their dispatch.
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


@client_batched
@array_contract(labels={"dtype": "integer"})
def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer labels as one-hot vectors along a new trailing axis.

    (N,) labels become an (N, num_classes) matrix; client-batched (K, N)
    labels become a (K, N, num_classes) stack whose slice j equals the
    unstacked encoding of ``labels[j]``.
    """
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2):
        raise ValueError(f"labels must be 1-D or (K, N), got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros(labels.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out
