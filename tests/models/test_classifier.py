"""Behavioural tests for the classifier models."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.models import CNNClassifier, MLPClassifier, classifier, mnist_cnn, scaled_cnn

from ..conftest import numeric_gradient

# Blocked inference may move logits in their last bits (BLAS panelling
# follows the block shape); in float64 that is far inside this bound.
LOGIT_RTOL = 1e-10
LOGIT_ATOL = 1e-10


class TestCNNClassifier:
    def test_image_size_must_be_divisible_by_4(self):
        with pytest.raises(ValueError):
            CNNClassifier(image_size=14)

    def test_output_shape(self, rng):
        model = scaled_cnn(16, rng)
        assert model(rng.random((3, 1, 16, 16))).shape == (3, 10)

    def test_predict_returns_labels(self, rng):
        model = scaled_cnn(16, rng)
        preds = model.predict(rng.random((5, 256)))
        assert preds.shape == (5,)
        assert ((preds >= 0) & (preds < 10)).all()

    def test_predict_proba_rows_sum_to_one(self, rng):
        model = scaled_cnn(16, rng)
        probs = model.predict_proba(rng.random((4, 256)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4))

    def test_end_to_end_gradient(self, rng):
        model = CNNClassifier(image_size=8, channels=(2, 3), hidden=6,
                              kernel_size=3, rng=rng)
        x = rng.random((2, 1, 8, 8))
        y = np.array([1, 4])
        ce = nn.SoftmaxCrossEntropy()

        def loss():
            return ce(model(x), y)

        loss()
        model.zero_grad()
        model.backward(ce.backward())
        p = model.conv1.weight
        numeric = numeric_gradient(loss, p.data, [0, 5])
        for idx, num in numeric.items():
            assert p.grad.ravel()[idx] == pytest.approx(num, abs=1e-6)

    def test_can_overfit_tiny_batch(self, rng):
        model = scaled_cnn(16, rng)
        x = rng.random((8, 1, 16, 16))
        y = rng.integers(0, 10, size=8)
        opt = nn.Adam(model.parameters(), lr=3e-3)
        ce = nn.SoftmaxCrossEntropy()
        for _ in range(150):
            ce(model(x), y)
            opt.zero_grad()
            model.backward(ce.backward())
            opt.step()
        assert (model.predict(x.reshape(8, -1)) == y).all()


class TestMLPClassifier:
    def test_shapes(self, rng):
        model = MLPClassifier(64, hidden=16, rng=rng)
        assert model(rng.random((3, 64))).shape == (3, 10)

    def test_flattens_image_input(self, rng):
        model = MLPClassifier(64, hidden=16, rng=rng)
        assert model(rng.random((3, 1, 8, 8))).shape == (3, 10)

    def test_learns_separable_problem(self, rng):
        x = np.concatenate([rng.random((20, 64)) + 1.0, rng.random((20, 64)) - 1.0])
        y = np.array([0] * 20 + [1] * 20)
        model = MLPClassifier(64, hidden=8, num_classes=2, rng=rng)
        opt = nn.SGD(model.parameters(), lr=0.5)
        ce = nn.SoftmaxCrossEntropy()
        for _ in range(50):
            ce(model(x), y)
            opt.zero_grad()
            model.backward(ce.backward())
            opt.step()
        assert (model.predict(x) == y).mean() == 1.0


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = scaled_cnn(16, np.random.default_rng(5))
        b = scaled_cnn(16, np.random.default_rng(5))
        np.testing.assert_array_equal(
            nn.parameters_to_vector(a), nn.parameters_to_vector(b)
        )

    def test_different_seed_different_weights(self):
        a = scaled_cnn(16, np.random.default_rng(5))
        b = scaled_cnn(16, np.random.default_rng(6))
        assert not np.array_equal(
            nn.parameters_to_vector(a), nn.parameters_to_vector(b)
        )


# ---------------------------------------------------------------------------
# Memory-bounded (blocked) inference
# ---------------------------------------------------------------------------

def _small_cnn(rng):
    return CNNClassifier(image_size=8, channels=(2, 3), hidden=6, num_classes=4,
                         kernel_size=3, rng=rng)


def _small_mlp(rng):
    return MLPClassifier(64, hidden=6, num_classes=4, rng=rng)


MODELS = {"cnn": _small_cnn, "mlp": _small_mlp}
SAMPLES_PER_BLOCK = 4
# N around the block size B: 1, B-1, B, B+1, 3B+1.
SAMPLE_COUNTS = (1, 3, 4, 5, 13)


def _stacked(make, k, seed=0):
    """A K-stack of independently initialized models."""
    vectors = [nn.parameters_to_vector(make(np.random.default_rng(seed + j)))
               for j in range(k)]
    model = make(np.random.default_rng(seed))
    nn.stack_parameters(np.stack(vectors), model)
    return model


def _force_budget(monkeypatch, model, models, samples=1):
    """Budget for exactly ``models * samples`` (model, sample) pairs per block."""
    monkeypatch.setattr(
        classifier, "PREDICT_BLOCK_BYTES", models * samples * model.sample_nbytes
    )


def _blocked_logits(model, x):
    return model._score(x, lambda out: out)


def _assert_blocked_matches_one_shot(model, x):
    one_shot = model.forward(x)
    np.testing.assert_allclose(_blocked_logits(model, x), one_shot,
                               rtol=LOGIT_RTOL, atol=LOGIT_ATOL)
    np.testing.assert_array_equal(model.predict(x), np.argmax(one_shot, axis=-1))
    np.testing.assert_allclose(model.predict_proba(x),
                               nn.functional.softmax(one_shot, axis=-1),
                               rtol=LOGIT_RTOL, atol=LOGIT_ATOL)


class TestBlockedInference:
    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_unstacked(self, kind, n, monkeypatch):
        rng = np.random.default_rng(n)
        model = MODELS[kind](rng)
        _force_budget(monkeypatch, model, 1, SAMPLES_PER_BLOCK)
        assert model.block_shape(1) == (1, SAMPLES_PER_BLOCK)
        _assert_blocked_matches_one_shot(model, rng.random((n, 64)))

    @pytest.mark.parametrize("shared", [False, True], ids=["per_client", "shared"])
    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_stacked(self, kind, k, n, shared, monkeypatch):
        rng = np.random.default_rng(100 * k + n)
        model = _stacked(MODELS[kind], k)
        _force_budget(monkeypatch, model, k, SAMPLES_PER_BLOCK)
        assert model.block_shape(k) == (k, SAMPLES_PER_BLOCK)
        x = rng.random((n, 64)) if shared else rng.random((k, n, 64))
        assert model.predict(x).shape == (k, n)
        _assert_blocked_matches_one_shot(model, x)

    @pytest.mark.parametrize("shared", [False, True], ids=["per_client", "shared"])
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_models_split_when_a_sample_of_each_exceeds_budget(
        self, kind, shared, monkeypatch
    ):
        rng = np.random.default_rng(7)
        k, n = 5, 6
        model = _stacked(MODELS[kind], k)
        before = [p.data for p in model.parameters()]
        _force_budget(monkeypatch, model, 2)
        assert model.block_shape(k) == (2, 1)
        x = rng.random((n, 64)) if shared else rng.random((k, n, 64))
        _assert_blocked_matches_one_shot(model, x)
        # The stacked parameters come back untouched.
        assert model.client_axis == k
        assert all(p.data is data for p, data in zip(model.parameters(), before))

    def test_default_budget_scores_one_block_when_it_fits(self, rng):
        # Below one block the blocked path is exactly the one-shot forward.
        model = _stacked(_small_cnn, 3)
        x = rng.random((9, 64))
        assert _blocked_logits(model, x).tobytes() == model.forward(x).tobytes()


class TestSharedInputConv:
    """A stride-0 client axis (one batch for all K kernels) is unfolded once."""

    @pytest.mark.parametrize("padding,stride", [(0, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("k", [1, 3])
    def test_forward_and_backward_bytes_equal_copied_input(self, k, n, padding, stride):
        rng = np.random.default_rng(k * 10 + n)
        layers = [
            nn.Conv2d(2, 3, 3, stride=stride, padding=padding, rng=rng)
            for _ in range(2)
        ]
        vectors = rng.standard_normal((k, nn.parameters_to_vector(layers[0]).size))
        for layer in layers:
            nn.stack_parameters(vectors, layer)
        x = rng.standard_normal((n, 2, 7, 7))
        shared = np.broadcast_to(x, (k,) + x.shape)
        assert shared.strides[0] == 0
        copied = np.ascontiguousarray(shared)
        out_shared = layers[0](shared)
        out_copied = layers[1](copied)
        assert out_shared.tobytes() == out_copied.tobytes()
        grad = rng.standard_normal(out_shared.shape)
        dx_shared = layers[0].backward(grad)
        dx_copied = layers[1].backward(grad)
        assert dx_shared.shape == copied.shape
        assert dx_shared.tobytes() == dx_copied.tobytes()
        for a, b in zip(layers[0].parameters(), layers[1].parameters()):
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_cnn_unfolds_a_shared_batch_once(self, rng, monkeypatch):
        shapes = []
        im2col = nn.functional.im2col

        def recording_im2col(x, *args, **kwargs):
            shapes.append(x.shape)
            return im2col(x, *args, **kwargs)

        monkeypatch.setattr(nn.functional, "im2col", recording_im2col)
        _stacked(_small_cnn, 4).forward(rng.random((6, 64)))
        # conv1 unfolds the 6 shared images once; conv2 the 4 models' own maps.
        assert shapes == [(6, 1, 8, 8), (4 * 6, 2, 4, 4)]

    @pytest.mark.parametrize("k", [1, 4])
    def test_cnn_shared_batch_bytes_equal_per_client_copies(self, k, rng):
        model = _stacked(_small_cnn, k)
        x = rng.random((6, 64))
        shared = model.forward(x)
        copied = model.forward(np.ascontiguousarray(np.broadcast_to(x, (k,) + x.shape)))
        assert shared.tobytes() == copied.tobytes()


class TestBlockMemory:
    def test_paper_scaled_block_is_16_samples_for_10_models(self):
        model = scaled_cnn(16, np.random.default_rng(0))
        assert model.sample_nbytes == 8 * 8 * 25 * 8 * 8  # conv2 columns, 100 KiB
        assert model.block_shape(10) == (10, 16)

    def test_paper_full_block_stays_within_budget(self):
        # 50 clients per round, 28x28, 32/64 channels: one sample of conv2
        # columns is 1.2 MiB per model, so even one sample for all 50
        # models exceeds the budget and the models are split.
        model = mnist_cnn(np.random.default_rng(0))
        assert model.sample_nbytes == 8 * 32 * 25 * 14 * 14
        models, samples = model.block_shape(50)
        assert 1 <= models < 50 and samples == 1
        assert models * samples * model.sample_nbytes <= classifier.PREDICT_BLOCK_BYTES

    def test_stacked_predict_peak_does_not_grow_with_samples(self):
        model = _stacked(lambda r: scaled_cnn(16, r), 10)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (200, 1600):
            x = rng.random((n, 256))
            tracemalloc.start()
            try:
                model.predict(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 3 * classifier.PREDICT_BLOCK_BYTES


# ---------------------------------------------------------------------------
# Backward without the input layer's input gradient
# ---------------------------------------------------------------------------


def _full_backward(model, grad):
    """Every layer's full backward, the input layer's input gradient included."""
    for layer in reversed(model._stack):
        grad = layer.backward(grad)
    return grad


class TestInputLayerGradientSkip:
    """``Classifier.backward`` skips only the input layer's input gradient:
    every parameter gradient is byte-identical to the full backward."""

    @pytest.mark.parametrize("k", (None, 3), ids=("single", "stacked3"))
    @pytest.mark.parametrize("kind", ("cnn", "mlp"))
    def test_parameter_grads_bytes_equal_full_backward(self, kind, k):
        make = {"cnn": lambda r: scaled_cnn(16, r),
                "mlp": lambda r: MLPClassifier(256, hidden=32, rng=r)}[kind]
        models = [
            _stacked(make, k) if k else make(np.random.default_rng(0))
            for _ in range(2)
        ]
        rng = np.random.default_rng(1)
        lead = (k,) if k else ()
        x = rng.random(lead + (8, 256))
        grad = rng.standard_normal(lead + (8, 10))
        for model in models:
            model.zero_grad()
            model(x)
        assert models[0].backward(grad) is None
        assert _full_backward(models[1], grad).shape == models[1]._shape_input(x).shape
        for p, ref in zip(models[0].parameters(), models[1].parameters()):
            assert p.grad.tobytes() == ref.grad.tobytes(), p.name
