"""Optimizer tests: exact update math, flat-buffer byte oracles, convergence."""

import numpy as np
import pytest

from repro import nn
from repro.models import scaled_cnn, scaled_cvae
from repro.nn.module import Parameter


def quadratic_params(rng):
    p = Parameter(rng.standard_normal(5))
    return p


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad[...] = np.array([0.5, -0.5])
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = nn.SGD([p], lr=1.0, momentum=0.5)
        p.grad[...] = 1.0
        opt.step()  # v=1, p=-1
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad[...] = 1.0
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay(self):
        p = Parameter(np.array([2.0]))
        p.grad[...] = 0.0
        nn.SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_validation(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            nn.SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            nn.SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_converges_on_quadratic(self, rng):
        p = quadratic_params(rng)
        target = np.arange(5.0)
        opt = nn.SGD([p], lr=0.05, momentum=0.9)
        for _ in range(500):
            p.zero_grad()
            p.grad[...] = 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-5)


class TestAdam:
    def test_first_step_magnitude(self):
        """Adam's bias correction makes the first step ≈ lr regardless of
        gradient scale."""
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter(np.array([0.0]))
            opt = nn.Adam([p], lr=0.01)
            p.grad[...] = scale
            opt.step()
            assert p.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_validation(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            nn.Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            nn.Adam([p], betas=(1.0, 0.999))

    def test_converges_on_quadratic(self, rng):
        p = quadratic_params(rng)
        target = np.arange(5.0)
        opt = nn.Adam([p], lr=0.1)
        for _ in range(500):
            p.zero_grad()
            p.grad[...] = 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_zero_grad_via_optimizer(self, rng):
        p = quadratic_params(rng)
        p.grad[...] = 3.0
        opt = nn.Adam([p])
        opt.zero_grad()
        assert (p.grad == 0).all()


class TestOptimizerTrainsRealModel:
    @pytest.mark.parametrize("opt_name", ["sgd", "adam"])
    def test_loss_decreases_on_separable_data(self, rng, opt_name):
        x = np.concatenate([rng.standard_normal((30, 4)) + 3,
                            rng.standard_normal((30, 4)) - 3])
        y = np.array([0] * 30 + [1] * 30)
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))
        opt = (
            nn.SGD(model.parameters(), lr=0.1)
            if opt_name == "sgd"
            else nn.Adam(model.parameters(), lr=0.01)
        )
        ce = nn.SoftmaxCrossEntropy()
        first = ce(model(x), y)
        for _ in range(60):
            ce(model(x), y)
            opt.zero_grad()
            model.backward(ce.backward())
            opt.step()
        assert ce(model(x), y) < first * 0.2


# ---------------------------------------------------------------------------
# Byte-for-byte oracles: flat-buffer optimizers against per-parameter rules
# ---------------------------------------------------------------------------
#
# The optimizers own one flat value buffer and one flat gradient buffer and
# update them with whole-buffer operations. The per-parameter loops they
# replaced are kept here as references. Every element must see the same
# IEEE operations in the same order, so after every step the values and
# gradients must match the reference byte for byte, on every model layout
# the federation trains.


class ReferenceSGD:
    """The per-parameter SGD loop the flat-buffer SGD replaced."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = (
            [np.zeros_like(p.data) for p in self.params] if momentum > 0 else None
        )

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        for idx, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            if self._velocity is not None:
                v = self._velocity[idx]
                v *= self.momentum
                v += grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * grad


class ReferenceAdam:
    """The per-parameter Adam loop the flat-buffer Adam replaced."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._t += 1
        bias_c1 = 1.0 - self.beta1**self._t
        bias_c2 = 1.0 - self.beta2**self._t
        for idx, p in enumerate(self.params):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            m, v = self._m[idx], self._v[idx]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {
    "sgd": (nn.SGD, ReferenceSGD, dict(lr=0.05)),
    "sgd_momentum": (nn.SGD, ReferenceSGD, dict(lr=0.05, momentum=0.9)),
    "sgd_weight_decay": (nn.SGD, ReferenceSGD, dict(lr=0.05, weight_decay=0.01)),
    "adam": (nn.Adam, ReferenceAdam, dict(lr=1e-3)),
    "adam_weight_decay": (nn.Adam, ReferenceAdam, dict(lr=1e-3, weight_decay=0.01)),
}
STEPS = 25
BATCH = 8
STACK = 3


def _cnn_case(seed):
    """The scaled CNN (16×16 paper topology) on one client's batches."""
    model = scaled_cnn(16, np.random.default_rng(seed))
    loss_fn = nn.SoftmaxCrossEntropy()

    def train_pass(data_rng):
        x = data_rng.random((BATCH, 256))
        labels = data_rng.integers(0, 10, BATCH)
        loss_fn(model(x), labels)
        return lambda: model.backward(loss_fn.backward())

    return model, [model.parameters()], train_pass


def _stacked_cnn_case(seed):
    """K = 3 scaled CNNs stacked on a leading client axis (stack_parameters)."""
    model = scaled_cnn(16, np.random.default_rng(seed))
    vectors = [
        nn.parameters_to_vector(scaled_cnn(16, np.random.default_rng(seed + 1 + j)))
        for j in range(STACK)
    ]
    nn.stack_parameters(np.stack(vectors), model)
    loss_fn = nn.SoftmaxCrossEntropy()

    def train_pass(data_rng):
        x = data_rng.random((STACK, BATCH, 256))
        labels = data_rng.integers(0, 10, (STACK, BATCH))
        loss_fn(model(x), labels)
        return lambda: model.backward(loss_fn.backward())

    return model, [model.parameters()], train_pass


def _cvae_train_pass(cvae):
    loss_fn = nn.CVAELoss()

    def train_pass(data_rng):
        x = data_rng.random((BATCH, 256))
        labels = data_rng.integers(0, 10, BATCH)
        recon, mu, logvar = cvae.forward(x, labels, data_rng)
        loss_fn(recon, cvae.reconstruction_target(x, labels), mu, logvar)
        return lambda: cvae.backward(*loss_fn.backward())

    return train_pass


def _cvae_case(seed):
    """The scaled CVAE (54,810 parameters) under one optimizer."""
    cvae = scaled_cvae(rng=np.random.default_rng(seed))
    return cvae, [cvae.parameters()], _cvae_train_pass(cvae)


def _disjoint_case(seed):
    """Two optimizers over disjoint parameter sets of one model (the GAN's
    generator/discriminator pattern): the CVAE's encoder and decoder."""
    cvae = scaled_cvae(rng=np.random.default_rng(seed))
    groups = [cvae.encoder.parameters(), cvae.decoder.parameters()]
    return cvae, groups, _cvae_train_pass(cvae)


MODEL_CASES = {
    "cnn": _cnn_case,
    "cnn_stacked": _stacked_cnn_case,
    "cvae": _cvae_case,
    "disjoint_optimizers": _disjoint_case,
}


def _assert_same_bytes(model, reference, context):
    for p, ref in zip(model.parameters(), reference.parameters()):
        assert p.data.tobytes() == ref.data.tobytes(), f"{context}: {p.name} data"
        assert p.grad.tobytes() == ref.grad.tobytes(), f"{context}: {p.name} grad"


class TestFlatBuffersMatchPerParameterRules:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_bytes_match_reference_every_step(self, case, opt_name):
        make_flat, make_reference, kwargs = OPTIMIZERS[opt_name]
        model, groups, train_pass = MODEL_CASES[case](seed=7)
        reference, ref_groups, ref_train_pass = MODEL_CASES[case](seed=7)
        opts = [make_flat(group, **kwargs) for group in groups]
        ref_opts = [make_reference(group, **kwargs) for group in ref_groups]
        data_rng, ref_data_rng = np.random.default_rng(3), np.random.default_rng(3)
        for step in range(STEPS):
            backward, ref_backward = train_pass(data_rng), ref_train_pass(ref_data_rng)
            for opt, ref_opt in zip(opts, ref_opts):
                opt.zero_grad()
                ref_opt.zero_grad()
            backward()
            ref_backward()
            for opt, ref_opt in zip(opts, ref_opts):
                opt.step()
                ref_opt.step()
            _assert_same_bytes(model, reference, f"{case}/{opt_name} step {step}")
        # Training never rebinds a parameter: each still views its
        # optimizer's buffers.
        for opt in opts:
            for p in opt.params:
                assert np.shares_memory(p.data, opt._data)
                assert np.shares_memory(p.grad, opt._grad)

    def test_repeated_parameter_refused(self):
        p = Parameter(np.zeros(3))
        with pytest.raises(ValueError, match="same parameter twice"):
            nn.SGD([p, p], lr=0.1)
