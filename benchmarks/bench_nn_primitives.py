"""Microbenchmarks of the NN substrate's hot paths.

Not tied to a paper table — these measure the primitives every federated
round is built from (conv forward/backward via im2col, the im2col/col2im
and max-pool kernels themselves, a full client training step, CVAE ELBO
step, flat-vector round-trip), so performance regressions in the
substrate are visible independently of the federation benches.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import scaled_cnn, scaled_cvae


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    return rng.random((32, 1, 16, 16)), rng.integers(0, 10, 32)


def test_bench_cnn_forward(benchmark, batch):
    x, _ = batch
    model = scaled_cnn(16, np.random.default_rng(1))
    benchmark(lambda: model(x))


def test_bench_cnn_training_step(benchmark, batch):
    x, y = batch
    model = scaled_cnn(16, np.random.default_rng(1))
    opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
    ce = nn.SoftmaxCrossEntropy()

    def step():
        ce(model(x), y)
        opt.zero_grad()
        model.backward(ce.backward())
        opt.step()

    benchmark(step)


def test_bench_cvae_training_step(benchmark, batch):
    x, y = batch
    flat = x.reshape(32, -1)
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    opt = nn.Adam(cvae.parameters(), lr=1e-3)
    loss_fn = nn.CVAELoss()
    rng = np.random.default_rng(2)

    def step():
        target = cvae.reconstruction_target(flat, y)
        recon, mu, logvar = cvae.forward(flat, y, rng)
        loss_fn(recon, target, mu, logvar)
        opt.zero_grad()
        cvae.backward(*loss_fn.backward())
        opt.step()

    benchmark(step)


def _with_gradients(model):
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.grad[...] = 1e-3 * rng.standard_normal(p.shape)
    return model


def test_bench_adam_step(benchmark):
    """One Adam step over the scaled CVAE's 54,810 parameters."""
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    opt = nn.Adam(cvae.parameters(), lr=1e-3)
    _with_gradients(cvae)
    benchmark(opt.step)


def test_bench_sgd_step(benchmark):
    """One plain SGD step (the clients' optimizer) over the scaled CNN."""
    model = scaled_cnn(16, np.random.default_rng(1))
    opt = nn.SGD(model.parameters(), lr=0.05)
    _with_gradients(model)
    benchmark(opt.step)


def test_bench_decoder_generation(benchmark):
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    labels = np.tile(np.arange(10), 10)
    rng = np.random.default_rng(2)
    benchmark(lambda: cvae.generate(labels, rng))


@pytest.fixture(scope="module")
def conv_input():
    """The input of the paper_scaled CNN's second conv in training: a
    32-sample batch of 8-channel 8x8 maps (5x5 kernel, padding 2)."""
    return np.random.default_rng(3).standard_normal((32, 8, 8, 8))


def test_bench_im2col(benchmark, conv_input):
    benchmark(lambda: nn.functional.im2col(conv_input, 5, 5, padding=2))


def test_bench_col2im(benchmark, conv_input):
    cols = nn.functional.im2col(conv_input, 5, 5, padding=2)
    benchmark(lambda: nn.functional.col2im(cols, conv_input.shape, 5, 5, padding=2))


def test_bench_maxpool_forward_backward(benchmark, conv_input):
    activations = np.maximum(conv_input, 0.0)
    pool = nn.MaxPool2d(2)
    grad = np.ones((32, 8, 4, 4))

    def step():
        pool(activations)
        pool.backward(grad)

    benchmark(step)


def test_bench_parameter_roundtrip(benchmark):
    model = scaled_cnn(16, np.random.default_rng(1))
    buf = np.empty(model.count_parameters())

    def roundtrip():
        nn.parameters_to_vector(model, out=buf)
        nn.vector_to_parameters(buf, model)

    benchmark(roundtrip)
