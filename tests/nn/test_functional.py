"""Unit tests for the low-level tensor ops in repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F


class TestIm2col:
    def test_identity_kernel_no_padding(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 1, 1)
        # 1x1 kernel: columns are just the pixels, batch-major.
        assert cols.shape == (1, 16)
        np.testing.assert_array_equal(cols.ravel(), x.ravel())

    def test_shape_with_padding(self):
        x = np.zeros((2, 3, 8, 8))
        cols = F.im2col(x, 5, 5, padding=2)
        # out 8x8 per sample, 3*25 rows, 2*64 columns
        assert cols.shape == (75, 128)

    def test_shape_with_stride(self):
        x = np.zeros((1, 1, 8, 8))
        cols = F.im2col(x, 2, 2, stride=2)
        assert cols.shape == (4, 16)

    def test_batch_major_column_order(self):
        """Columns must be ordered (batch, location) — the conv layer's
        output reshape depends on it (regression test for a batch-mixing
        bug found during development)."""
        x = np.zeros((2, 1, 2, 2))
        x[0] = 1.0
        x[1] = 2.0
        cols = F.im2col(x, 1, 1)
        np.testing.assert_array_equal(cols[0, :4], np.ones(4))
        np.testing.assert_array_equal(cols[0, 4:], np.full(4, 2.0))

    def test_receptive_field_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 3, 3)
        # first column = top-left 3x3 window
        np.testing.assert_array_equal(
            cols[:, 0], x[0, 0, :3, :3].ravel()
        )

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            F.im2col(np.zeros((1, 1, 2, 2)), 5, 5)


class TestCol2im:
    def test_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity
        that makes the conv backward pass correct."""
        x = rng.standard_normal((2, 3, 6, 6))
        for padding, stride, k in [(0, 1, 3), (1, 1, 3), (2, 1, 5), (0, 2, 2)]:
            cols = F.im2col(x, k, k, padding=padding, stride=stride)
            y = rng.standard_normal(cols.shape)
            lhs = np.sum(cols * y)
            back = F.col2im(y, x.shape, k, k, padding=padding, stride=stride)
            rhs = np.sum(x * back)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_overlap_accumulation(self):
        # 2x2 kernel stride 1 on 3x3: center pixel belongs to 4 windows.
        x_shape = (1, 1, 3, 3)
        cols = np.ones((4, 4))
        img = F.col2im(cols, x_shape, 2, 2)
        assert img[0, 0, 1, 1] == 4.0
        assert img[0, 0, 0, 0] == 1.0


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 7)) * 10
        s = F.softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, -1000.0]])
        s = F.softmax(x)
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(F.log_softmax(x), np.log(F.softmax(x)), atol=1e-12)


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Reference: the two-branch sigmoid with boolean gathers and scatters."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_masked_reference(self, dtype, rng):
        # Same per-element operations as the masked form, so equal bytes on
        # ±0, subnormals, ±inf and inputs whose exp would overflow.
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, info.tiny, -info.tiny, info.smallest_subnormal,
             -info.smallest_subnormal, np.inf, -np.inf, info.max, -info.max,
             100.0, -100.0, 800.0, -800.0],
            dtype=dtype,
        )
        x = np.concatenate([special, (rng.standard_normal(4096) * 30).astype(dtype)])
        x = x.reshape(2, -1)
        out = F.sigmoid(x)
        assert out.dtype == dtype and out.shape == x.shape
        assert out.tobytes() == masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_in_nan_out(self, dtype):
        out = F.sigmoid(np.array([np.nan, 0.5, -np.nan], dtype=dtype))
        np.testing.assert_array_equal(np.isnan(out), [True, False, True])

    def test_range_and_symmetry(self, rng):
        x = rng.standard_normal(100) * 8
        s = F.sigmoid(x)
        assert ((s > 0) & (s < 1)).all()
        np.testing.assert_allclose(F.sigmoid(-x), 1.0 - s, atol=1e-12)

    def test_extreme_no_overflow(self):
        # Far in the tails float64 rounds to exactly 0/1; what matters is
        # no overflow and correct saturation direction.
        s = F.sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_client_batched_2d(self):
        labels = np.array([[0, 2], [1, 1]])
        out = F.one_hot(labels, 3)
        assert out.shape == (2, 2, 3)
        for j in range(2):
            np.testing.assert_array_equal(out[j], F.one_hot(labels[j], 3))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2, 2), dtype=int), 3)

    def test_empty(self):
        assert F.one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(
            F.relu(np.array([-2.0, 0.0, 3.0])), np.array([0.0, 0.0, 3.0])
        )
