"""Bit-identity of the strided conv kernels against the gather/scatter originals.

``im2col``, ``col2im`` and ``MaxPool2d`` run as strided-view NumPy code.
The kernels they replaced are kept here as test-only references: the
fancy-index gather ``x[:, k, i, j]`` for ``im2col``, ``np.add.at`` for
``col2im``, and a reshape + ``max(axis=...)`` / ``mask.sum(axis=...)``
max-pool. The arithmetic is unchanged (a copy, the same per-pixel
accumulation order, an exact max), so every result must match the
reference byte for byte, not within a tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.models import CNNClassifier
from repro.nn import functional as F

KERNELS = (1, 2, 3, 5)
PADDINGS = (0, 1, 2)
STRIDES = (1, 2, 3)
BATCHES = (1, 7, 32)
CHANNELS = (1, 3, 8)
DTYPES = (np.float32, np.float64)


# ---------------------------------------------------------------------------
# Reference kernels (the implementations the strided ones replaced)
# ---------------------------------------------------------------------------


def _gather_indices(x_shape, field_height, field_width, padding, stride):
    _, channels, height, width = x_shape
    out_height = (height + 2 * padding - field_height) // stride + 1
    out_width = (width + 2 * padding - field_width) // stride + 1
    i0 = np.tile(np.repeat(np.arange(field_height), field_width), channels)
    i1 = stride * np.repeat(np.arange(out_height), out_width)
    j0 = np.tile(np.arange(field_width), field_height * channels)
    j1 = stride * np.tile(np.arange(out_width), out_height)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), field_height * field_width).reshape(-1, 1)
    return k, i, j


def reference_im2col(x, field_height, field_width, padding=0, stride=1):
    x_shape = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j = _gather_indices(x_shape, field_height, field_width, padding, stride)
    cols = x[:, k, i, j]  # (N, C*fh*fw, L)
    return cols.transpose(1, 0, 2).reshape(field_height * field_width * x.shape[1], -1)


def reference_col2im(cols, x_shape, field_height, field_width, padding=0, stride=1):
    batch, channels, height, width = x_shape
    x_padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    k, i, j = _gather_indices(x_shape, field_height, field_width, padding, stride)
    cols3 = cols.reshape(channels * field_height * field_width, batch, -1)
    np.add.at(x_padded, (slice(None), k, i, j), cols3.transpose(1, 0, 2))
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


def reference_maxpool(x, k):
    """(out, mask) of the reshape + max(axis=...) pool, 4-D or 5-D input."""
    *lead, h, w = x.shape
    windows = np.ascontiguousarray(x).reshape(*lead, h // k, k, w // k, k)
    axes = (windows.ndim - 3, windows.ndim - 1)
    out = windows.max(axis=axes)
    mask = windows == out[..., None, :, None]
    return out, mask


def reference_maxpool_backward(mask, grad_output, x_shape):
    axes = (mask.ndim - 3, mask.ndim - 1)
    counts = mask.sum(axis=axes, keepdims=True)
    return ((mask / counts) * grad_output[..., None, :, None]).reshape(x_shape)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_bytes_equal(actual, expected, context=""):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, context
    assert actual.dtype == expected.dtype, context
    assert actual.tobytes() == expected.tobytes(), context


def _spatial(k, padding, stride):
    """A non-square (H, W) with a positive output size and a ragged edge."""
    height = max(k - 2 * padding, 1) + 2 * stride + 1
    return height, height + 1


def _geometries():
    for k, padding, stride in itertools.product(KERNELS, PADDINGS, STRIDES):
        height, width = _spatial(k, padding, stride)
        yield k, padding, stride, height, width


def _input_layouts(rng, shape, dtype):
    """Contiguous, non-contiguous (strided and transposed) and stride-0 inputs."""
    n, c, h, w = shape
    yield "contiguous", rng.standard_normal(shape).astype(dtype)
    big = rng.standard_normal((n, c, 2 * h, 2 * w + 1)).astype(dtype)
    yield "strided", big[:, :, ::2, 1::2]
    yield "transposed", np.ascontiguousarray(
        rng.standard_normal((w, h, c, n)).astype(dtype)
    ).transpose(3, 2, 1, 0)
    row = rng.standard_normal((1, c, 1, w)).astype(dtype)
    yield "broadcast", np.broadcast_to(row, shape)


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("k", KERNELS)
def test_im2col_matches_gather(k, dtype):
    rng = np.random.default_rng(k)
    for padding, stride, n, c in itertools.product(PADDINGS, STRIDES, BATCHES, CHANNELS):
        shape = (n, c) + _spatial(k, padding, stride)
        x = rng.standard_normal(shape).astype(dtype)
        assert_bytes_equal(
            F.im2col(x, k, k, padding=padding, stride=stride),
            reference_im2col(x, k, k, padding=padding, stride=stride),
        )


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("k", KERNELS)
def test_col2im_matches_add_at(k, dtype):
    rng = np.random.default_rng(100 + k)
    for padding, stride, n, c in itertools.product(PADDINGS, STRIDES, BATCHES, CHANNELS):
        shape = (n, c) + _spatial(k, padding, stride)
        n_rows = c * k * k
        n_cols = reference_im2col(np.zeros(shape), k, k, padding, stride).shape[1]
        cols = rng.standard_normal((n_rows, n_cols)).astype(dtype)
        assert_bytes_equal(
            F.col2im(cols, shape, k, k, padding=padding, stride=stride),
            reference_col2im(cols, shape, k, k, padding=padding, stride=stride),
        )


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_im2col_col2im_non_contiguous_and_broadcast_inputs(dtype):
    rng = np.random.default_rng(7)
    for k, padding, stride, height, width in _geometries():
        shape = (3, 2, height, width)
        for layout, x in _input_layouts(rng, shape, dtype):
            cols = F.im2col(x, k, k, padding=padding, stride=stride)
            context = f"{layout} k={k} padding={padding} stride={stride}"
            assert_bytes_equal(
                cols, reference_im2col(x, k, k, padding=padding, stride=stride), context
            )
            # Transposed and stride-0 column matrices for the fold.
            grads = (
                np.ascontiguousarray(rng.standard_normal(cols.shape[::-1]).astype(dtype)).T,
                np.broadcast_to(rng.standard_normal((cols.shape[0], 1)).astype(dtype), cols.shape),
            )
            for g in grads:
                assert_bytes_equal(
                    F.col2im(g, shape, k, k, padding=padding, stride=stride),
                    reference_col2im(g, shape, k, k, padding=padding, stride=stride),
                    context,
                )


@pytest.mark.parametrize(
    "k, padding, stride",
    [(1, 0, 1), (3, 0, 1), (3, 1, 2), (2, 0, 3)],
)
def test_im2col_returns_owned_writable_c_contiguous(k, padding, stride):
    # The 1x1 / stride-1 / no-padding case is the one where a strided
    # reshape could hand back a view of the caller's input.
    x = np.random.default_rng(0).standard_normal((1, 1, 6, 6))
    snapshot = x.copy()
    cols = F.im2col(x, k, k, padding=padding, stride=stride)
    assert cols.flags.owndata
    assert cols.flags.writeable
    assert cols.flags.c_contiguous
    assert not np.shares_memory(cols, x)
    cols[...] = 0.0
    np.testing.assert_array_equal(x, snapshot)


def test_col2im_overlap_order_is_bit_exact():
    """Heavy overlap with catastrophic-cancellation values: any change of
    per-pixel summation order changes the low bits."""
    rng = np.random.default_rng(3)
    shape = (2, 2, 7, 7)
    for k, stride in [(3, 1), (5, 1), (5, 2)]:
        n_cols = reference_im2col(np.zeros(shape), k, k, 2, stride).shape[1]
        cols = rng.standard_normal((2 * k * k, n_cols)) * 10.0 ** rng.integers(
            -8, 9, (2 * k * k, n_cols)
        )
        assert_bytes_equal(
            F.col2im(cols, shape, k, k, padding=2, stride=stride),
            reference_col2im(cols, shape, k, k, padding=2, stride=stride),
        )


def test_non_positive_output_size_names_geometry():
    with pytest.raises(ValueError, match=r"\(1, 1, 2, 2\).*\(5, 5\).*padding 0.*stride 1"):
        F.im2col(np.zeros((1, 1, 2, 2)), 5, 5)


# ---------------------------------------------------------------------------
# MaxPool2d
# ---------------------------------------------------------------------------


def _pool_inputs(rng, shape, k, dtype):
    """ReLU activations (H = 2k, W = 3k) with planted ties, signed zeros and a NaN.

    ReLU computes ``x * (x > 0)``, so its zeros are -0.0 and an all-zero
    window is a k*k-way tie. On top of the random ones, the first and last
    (N, C) slices get a 2-way tie, a 3-way tie, an all-zero window, two
    +0.0/-0.0 ties and a NaN, each in its own window. Which zero a
    +0.0/-0.0 tie returns depends on the order the window is scanned in;
    the two planted ones tell row-major from reversed and column-major.
    """
    x = rng.standard_normal(shape).astype(dtype)
    x = x * (x > 0)
    # (slices, out_h, k, out_w, k) view of the contiguous activations.
    windows = x.reshape(-1, 2, k, 3, k)
    first, last = windows[0], windows[-1]
    if k > 1:
        peak = 2.5
        first[0, :, 0, :] = -1.0
        first[0, 0, 0, :2] = peak  # 2-way tie
        first[0, :, 1, :] = -1.0
        first[0, 0, 1, :] = peak
        first[0, 1, 1, 0] = peak  # 3-way tie
        last[1, :, 2, :] = -0.0  # all-zero window: k*k-way tie
        last[1, :, 0, :] = -0.0
        last[1, 0, 0, 0] = 0.0  # +0.0 first, -0.0 after
        last[0, :, 2, :] = -1.0
        last[0, 0, 2, 1] = -0.0
        last[0, 1, 2, 0] = 0.0  # -0.0 before +0.0 row-major, after column-major
    first[1, 0, 1, 0] = np.nan
    return x


# NaN windows have an all-False mask, so both pools divide 0 by 0 there.
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("batched", (False, True), ids=("4d", "5d"))
def test_maxpool_matches_reduce(k, dtype, batched):
    rng = np.random.default_rng(10 * k + batched)
    for n, c in itertools.product(BATCHES, CHANNELS):
        shape = (n, c, 2 * k, 3 * k)
        if batched:
            shape = (3,) + shape
        x = _pool_inputs(rng, shape, k, dtype)
        big = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=dtype)
        big[..., ::2] = x
        for layout, inp in (("contiguous", x), ("strided", big[..., ::2])):
            pool = nn.MaxPool2d(k)
            out = pool(inp)
            ref_out, ref_mask = reference_maxpool(inp, k)
            context = f"{layout} n={n} c={c}"
            assert_bytes_equal(out, ref_out, context)
            assert_bytes_equal(pool._cache[1], ref_mask, context)
            grad = rng.standard_normal(out.shape).astype(dtype)
            assert_bytes_equal(
                pool.backward(grad),
                reference_maxpool_backward(ref_mask, grad, shape),
                context,
            )


@pytest.mark.parametrize("batched", (False, True), ids=("4d", "5d"))
def test_maxpool_broadcast_input_and_all_tie_windows(batched):
    shape = (2, 3, 4, 6)
    if batched:
        shape = (2,) + shape
    for dtype in DTYPES:
        # Stride-0 input: every window is a 2- or 4-way tie.
        row = np.array([[1.0, 1.0, 0.5, -0.0, 3.0, 3.0]], dtype=dtype)
        x = np.broadcast_to(row, shape)
        pool = nn.MaxPool2d(2)
        out = pool(x)
        ref_out, ref_mask = reference_maxpool(x, 2)
        assert_bytes_equal(out, ref_out)
        assert_bytes_equal(pool._cache[1], ref_mask)
        grad = np.ones(out.shape, dtype=dtype)
        dx = pool.backward(grad)
        assert_bytes_equal(dx, reference_maxpool_backward(ref_mask, grad, shape))
        # Ties split the gradient evenly: a 4-way tie gives each 0.25.
        assert dx[..., 0, 0].flat[0] == 0.25


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_maxpool_nan_window_propagates():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    x[0, 0, 1, 1] = np.nan
    pool = nn.MaxPool2d(2)
    out = pool(x)
    assert np.isnan(out[0, 0, 0, 0])
    assert np.isfinite(out[0, 0, 1:, :]).all() and np.isfinite(out[0, 0, :, 1:]).all()
    ref_out, ref_mask = reference_maxpool(x, 2)
    assert_bytes_equal(out, ref_out)
    dx = pool.backward(np.ones_like(out))
    assert_bytes_equal(dx, reference_maxpool_backward(ref_mask, np.ones_like(out), x.shape))


def _non_finite_grads(rng, shape, dtype):
    """Upstream gradients with ±0, ±inf and ±NaN planted among finite values."""
    grad = rng.standard_normal(shape).astype(dtype)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
    planted = rng.random(shape) < 0.4
    grad[planted] = rng.choice(specials, int(planted.sum()))
    return grad


def _assert_pool_backward_matches(x, k, grad_rng, context):
    pool = nn.MaxPool2d(k)
    out = pool(x)
    ref_out, ref_mask = reference_maxpool(x, k)
    assert_bytes_equal(out, ref_out, context)
    grad = _non_finite_grads(grad_rng, out.shape, x.dtype)
    assert_bytes_equal(
        pool.backward(grad),
        reference_maxpool_backward(ref_mask, grad, x.shape),
        context,
    )


# The pooled-size backward scales (1/c) * g per window before the mask
# spreads it; ties (c > 1), NaN windows (c == 0) and non-finite upstream
# gradients must give the full-size (mask / c) * g bytes exactly.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("batched", (False, True), ids=("4d", "5d"))
def test_maxpool_backward_tie_heavy_non_finite_grads(k, dtype, batched):
    rng = np.random.default_rng(40 + 10 * k + batched)
    shape = (7, 3, 4 * k, 2 * k)
    if batched:
        shape = (3,) + shape
    # Four distinct levels, signed zeros among them: most windows tie.
    levels = np.array([-0.0, 0.0, 0.5, 1.0], dtype=dtype)
    x = rng.choice(levels, shape)
    nan_windows = x.reshape(-1, 4, k, 2, k)[::5]
    nan_windows[:, 1, 0, 0, k - 1] = np.nan  # some windows have no maximum
    _assert_pool_backward_matches(x, k, rng, f"k={k} {shape}")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", (1.0, -1.0))
def test_maxpool_backward_in_a_same_value_cnn(value):
    """Both pools of a scaled CNN whose every parameter is ``value`` (the
    same_value attack's model): blank image regions give constant conv
    maps, so windows tie in bulk; with -1 ReLU leaves only -0.0."""
    model = CNNClassifier(image_size=16, channels=(8, 16), hidden=64, rng=np.random.default_rng(0))
    nn.vector_to_parameters(np.full(model.count_parameters(), value), model)
    rng = np.random.default_rng(5)
    images = np.zeros((6, 1, 16, 16))
    images[:, :, 4:11, 5:12] = rng.random((6, 1, 7, 7))
    h = images
    pools = 0
    for layer in model._stack:
        if isinstance(layer, nn.MaxPool2d):
            _assert_pool_backward_matches(h, layer.kernel_size, rng, f"pool {pools}")
            pools += 1
        h = layer(h)
    assert pools == 2
