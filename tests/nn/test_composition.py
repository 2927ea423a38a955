"""Compositional NN tests: nesting, mixed configurations, edge geometries."""

import numpy as np
import pytest

from repro import nn

from ..conftest import numeric_gradient


class TestNestedSequential:
    def test_forward_backward_through_nesting(self, rng):
        inner = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU())
        outer = nn.Sequential(inner, nn.Linear(8, 3, rng=rng))
        x = rng.standard_normal((5, 4))
        out = outer(x)
        assert out.shape == (5, 3)
        grad_in = outer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_nested_parameters_counted_once(self, rng):
        inner = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU())
        outer = nn.Sequential(inner, nn.Linear(8, 3, rng=rng))
        expected = (4 * 8 + 8) + (8 * 3 + 3)
        assert outer.count_parameters() == expected
        assert len(outer.parameters()) == 4

    def test_nested_state_dict_roundtrip(self, rng):
        def build(seed):
            r = np.random.default_rng(seed)
            return nn.Sequential(
                nn.Sequential(nn.Linear(4, 6, rng=r), nn.Tanh()),
                nn.Linear(6, 2, rng=r),
            )

        a, b = build(1), build(2)
        b.load_state_dict(a.state_dict())
        x = np.random.default_rng(3).standard_normal((2, 4))
        np.testing.assert_allclose(a(x), b(x))


class TestConvGeometries:
    @pytest.mark.parametrize("size,kernel,stride,padding", [
        (8, 3, 1, 0),
        (8, 3, 1, 1),
        (9, 3, 2, 1),
        (8, 5, 1, 2),
        (8, 2, 2, 0),
        (7, 7, 1, 3),
    ])
    def test_output_shape_formula(self, rng, size, kernel, stride, padding):
        conv = nn.Conv2d(1, 2, kernel, stride=stride, padding=padding, rng=rng)
        out = conv(rng.standard_normal((1, 1, size, size)))
        expected = (size + 2 * padding - kernel) // stride + 1
        assert out.shape == (1, 2, expected, expected)

    @pytest.mark.parametrize("stride,padding,kernel", [(2, 1, 3), (2, 0, 2)])
    def test_strided_gradients(self, rng, stride, padding, kernel):
        conv = nn.Conv2d(1, 2, kernel, stride=stride, padding=padding, rng=rng)
        x = rng.standard_normal((2, 1, 6, 6))
        mse = nn.MSELoss()
        out = conv(x)
        target = np.zeros_like(out)

        def loss():
            return mse(conv(x), target)

        loss()
        conv.zero_grad()
        conv.backward(mse.backward())
        p = conv.weight
        numeric = numeric_gradient(loss, p.data, [0, p.size - 1])
        for idx, num in numeric.items():
            assert p.grad.ravel()[idx] == pytest.approx(num, abs=1e-6)

    def test_1x1_conv_is_channel_mix(self, rng):
        conv = nn.Conv2d(3, 2, 1, bias=False, rng=rng)
        x = rng.standard_normal((1, 3, 4, 4))
        out = conv(x)
        w = conv.weight.data.reshape(2, 3)
        manual = np.einsum("oc,nchw->nohw", w, x)
        np.testing.assert_allclose(out, manual, atol=1e-12)


class TestMixedPrecisionOfGradients:
    def test_deep_stack_gradcheck(self, rng):
        """A deeper stack (conv-pool-conv-flatten-linear-linear) keeps
        end-to-end gradients accurate — catches cache-aliasing bugs that
        single-layer tests miss."""
        model = nn.Sequential(
            nn.Conv2d(1, 2, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(2, 3, 3, padding=1, rng=rng),
            nn.Tanh(),
            nn.Flatten(),
            nn.Linear(3 * 4 * 4, 6, rng=rng),
            nn.ReLU(),
            nn.Linear(6, 4, rng=rng),
        )
        x = rng.standard_normal((2, 1, 8, 8))
        y = np.array([0, 3])
        ce = nn.SoftmaxCrossEntropy()

        def loss():
            return ce(model(x), y)

        loss()
        model.zero_grad()
        model.backward(ce.backward())
        for p in (model.parameters()[0], model.parameters()[-2]):
            numeric = numeric_gradient(loss, p.data, [0])
            assert p.grad.ravel()[0] == pytest.approx(numeric[0], abs=1e-6)
