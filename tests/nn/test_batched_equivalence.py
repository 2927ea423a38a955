"""Property suite: client-batched math is bit-identical to the per-client loop.

Every ``@client_batched`` layer (Linear, Conv2d, MaxPool2d, Flatten,
Dropout) and functional op (relu, sigmoid, softmax, log_softmax, one_hot)
is driven with a stacked ``(K, ...)`` input and compared **bitwise** — not
approximately — against running each client's slice through its own
single-model twin. The same holds through backward passes and optimizer
steps, which is the invariant the batched training engine
(:mod:`repro.fl.batched`) rests on.

Float32 coverage applies to the functional ops (Parameter data is always
float64 by construction); the dtype assertions double as the no-widening
half of the shape-oracle contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import CNNClassifier, MLPClassifier
from repro.nn import functional as F

K_VALUES = st.sampled_from([1, 2, 5])
SEEDS = st.integers(0, 2**32 - 1)
FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])


def stack_modules(make_module, k, seed):
    """K independently initialized twins plus one stacked (K, ...) shell."""
    singles = [make_module(np.random.default_rng(seed + 1 + j)) for j in range(k)]
    shell = make_module(np.random.default_rng(seed))
    nn.stack_parameters(
        np.stack([nn.parameters_to_vector(m) for m in singles]), shell
    )
    return singles, shell


def assert_stack_matches_singles(
    shell, singles, x, grad_out, lr=0.1, momentum=0.9, input_grad=True
):
    """Forward, backward, and one SGD step — all bitwise per slice.

    ``input_grad=False`` is for whole classifiers, whose input layer skips
    the input gradient: the stack and every single must return ``None``.
    """
    out = shell(x)
    dx = shell.backward(grad_out)
    opt = nn.SGD(shell.parameters(), lr=lr, momentum=momentum)
    opt.step()
    for j, single in enumerate(singles):
        out_j = single(x[j])
        dx_j = single.backward(grad_out[j])
        np.testing.assert_array_equal(out[j], out_j)
        if input_grad:
            np.testing.assert_array_equal(dx[j], dx_j)
        else:
            assert dx is None and dx_j is None
        nn.SGD(single.parameters(), lr=lr, momentum=momentum).step()
        for stacked, own in zip(shell.parameters(), single.parameters()):
            np.testing.assert_array_equal(stacked.grad[j], own.grad)
            np.testing.assert_array_equal(stacked.data[j], own.data)


class TestLinear:
    @given(K_VALUES, SEEDS, st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_forward_backward_sgd_bitwise(self, k, seed, n, d_in, d_out):
        rng = np.random.default_rng(seed)
        singles, shell = stack_modules(
            lambda r: nn.Linear(d_in, d_out, rng=r), k, seed
        )
        x = rng.standard_normal((k, n, d_in))
        grad_out = rng.standard_normal((k, n, d_out))
        assert_stack_matches_singles(shell, singles, x, grad_out)


class TestConv2d:
    @given(K_VALUES, SEEDS, st.integers(1, 3), st.integers(1, 2), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_forward_backward_sgd_bitwise(self, k, seed, n, in_c, out_c):
        rng = np.random.default_rng(seed)
        singles, shell = stack_modules(
            lambda r: nn.Conv2d(in_c, out_c, kernel_size=3, padding=1, rng=r),
            k, seed,
        )
        x = rng.standard_normal((k, n, in_c, 6, 6))
        grad_out = rng.standard_normal((k, n, out_c, 6, 6))
        assert_stack_matches_singles(shell, singles, x, grad_out)


class TestMaxPool2d:
    @given(K_VALUES, SEEDS, st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_forward_backward_bitwise(self, k, seed, n, c):
        # Parameterless: batched mode triggers on the 5-D input itself.
        rng = np.random.default_rng(seed)
        pool = nn.MaxPool2d(kernel_size=2)
        x = rng.standard_normal((k, n, c, 6, 6))
        grad_out = rng.standard_normal((k, n, c, 3, 3))
        out = pool(x)
        dx = pool.backward(grad_out)
        for j in range(k):
            single = nn.MaxPool2d(kernel_size=2)
            np.testing.assert_array_equal(out[j], single(x[j]))
            np.testing.assert_array_equal(dx[j], single.backward(grad_out[j]))


class TestFlatten:
    @given(K_VALUES, SEEDS, st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_forward_backward_bitwise(self, k, seed, n):
        rng = np.random.default_rng(seed)
        flat = nn.Flatten()
        flat.set_client_axis(k)
        x = rng.standard_normal((k, n, 2, 3, 3))
        out = flat(x)
        assert out.shape == (k, n, 18)
        grad_out = rng.standard_normal((k, n, 18))
        dx = flat.backward(grad_out)
        for j in range(k):
            single = nn.Flatten()
            np.testing.assert_array_equal(out[j], single(x[j]))
            np.testing.assert_array_equal(dx[j], single.backward(grad_out[j]))


class TestDropoutClientStreams:
    """Satellite regression: each stacked client's mask comes from its own
    RNG stream, pinned bitwise against per-client Dropout twins."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_batched_masks_match_per_client(self, k):
        p, shape = 0.4, (3, 7)
        batched = nn.Dropout(p)
        batched.set_client_axis(k)
        batched.client_rngs = [np.random.default_rng(100 + j) for j in range(k)]
        singles = [nn.Dropout(p, rng=np.random.default_rng(100 + j)) for j in range(k)]
        rng = np.random.default_rng(0)
        for _ in range(3):  # successive steps keep consuming the same streams
            x = rng.standard_normal((k,) + shape)
            grad_out = rng.standard_normal((k,) + shape)
            out = batched(x)
            dx = batched.backward(grad_out)
            for j, single in enumerate(singles):
                np.testing.assert_array_equal(out[j], single(x[j]))
                np.testing.assert_array_equal(dx[j], single.backward(grad_out[j]))

    def test_missing_client_rngs_raises(self):
        batched = nn.Dropout(0.5)
        batched.set_client_axis(2)
        with pytest.raises(RuntimeError, match="one RNG stream per client"):
            batched(np.zeros((2, 3, 4)))

    def test_wrong_stream_count_raises(self):
        batched = nn.Dropout(0.5)
        batched.set_client_axis(3)
        batched.client_rngs = [np.random.default_rng(0)]
        with pytest.raises(RuntimeError, match="1 streams for 3"):
            batched(np.zeros((3, 2, 2)))


class TestFunctionalOps:
    @given(K_VALUES, SEEDS, FLOAT_DTYPES)
    @settings(max_examples=25, deadline=None)
    def test_elementwise_and_softmax_bitwise_no_widening(self, k, seed, dtype):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, 4, 6)).astype(dtype)
        for fn in (F.relu, F.sigmoid, F.softmax, F.log_softmax):
            out = fn(x)
            assert out.dtype == dtype, fn.__name__  # float32 must stay float32
            for j in range(k):
                np.testing.assert_array_equal(out[j], fn(x[j]), err_msg=fn.__name__)

    @given(K_VALUES, SEEDS, FLOAT_DTYPES)
    @settings(max_examples=25, deadline=None)
    def test_one_hot_bitwise(self, k, seed, dtype):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 7, size=(k, 5))
        out = F.one_hot(labels, 7, dtype=dtype)
        assert out.shape == (k, 5, 7) and out.dtype == dtype
        for j in range(k):
            np.testing.assert_array_equal(out[j], F.one_hot(labels[j], 7, dtype=dtype))


class TestSoftmaxCrossEntropy:
    @given(K_VALUES, SEEDS, st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_loss_and_grad_bitwise(self, k, seed, n):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((k, n, 4))
        labels = rng.integers(0, 4, size=(k, n))
        loss_fn = nn.SoftmaxCrossEntropy()
        loss = loss_fn(logits, labels)
        grad = loss_fn.backward()
        assert loss.shape == (k,)
        for j in range(k):
            single = nn.SoftmaxCrossEntropy()
            assert loss[j] == single(logits[j], labels[j])
            np.testing.assert_array_equal(grad[j], single.backward())


class TestFullModels:
    """Composition: whole classifiers (the federated hot path) stay bitwise
    equivalent through forward, backward, and optimizer steps."""

    @given(K_VALUES, SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_mlp_classifier(self, k, seed):
        rng = np.random.default_rng(seed)
        singles, shell = stack_modules(
            lambda r: MLPClassifier(input_dim=16, hidden=6, num_classes=3, rng=r),
            k, seed,
        )
        x = rng.standard_normal((k, 4, 16))
        grad_out = rng.standard_normal((k, 4, 3))
        assert_stack_matches_singles(shell, singles, x, grad_out, input_grad=False)

    @given(K_VALUES, SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_cnn_classifier(self, k, seed):
        rng = np.random.default_rng(seed)
        singles, shell = stack_modules(
            lambda r: CNNClassifier(
                image_size=8, in_channels=1, channels=(2, 3), hidden=6,
                num_classes=3, kernel_size=3, rng=r,
            ),
            k, seed,
        )
        x = rng.standard_normal((k, 2, 64))  # flat images, per-model reshape
        grad_out = rng.standard_normal((k, 2, 3))
        assert_stack_matches_singles(shell, singles, x, grad_out, input_grad=False)

    @given(K_VALUES, SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_shared_batch_broadcast_predict(self, k, seed):
        # The FedGuard audit: one shared 2-D batch scored by K stacked
        # classifiers must equal each classifier's own predict.
        rng = np.random.default_rng(seed)
        singles, shell = stack_modules(
            lambda r: MLPClassifier(input_dim=16, hidden=6, num_classes=3, rng=r),
            k, seed,
        )
        x = rng.standard_normal((5, 16))
        preds = shell.predict(x)
        assert preds.shape == (k, 5)
        for j, single in enumerate(singles):
            np.testing.assert_array_equal(preds[j], single.predict(x))
