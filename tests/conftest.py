"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.config import FederationConfig, ModelConfig
from repro.data import Dataset, SynthMnistConfig, generate_dataset


@pytest.fixture(scope="module", autouse=True)
def no_pool_worker_outlives_the_module():
    """Fail a test module that leaves a resident pool worker running.

    Module-scoped, because a class-scoped pool legitimately outlives single
    tests. The leftovers are killed first, so the next module starts clean.
    """
    yield
    left = [process for process in multiprocessing.active_children()
            if process.name.startswith("repro-resident-worker-")]
    for process in left:
        process.kill()
        process.join(timeout=5)
    if left:
        pytest.fail(f"pool workers outlived the module: {[p.name for p in left]}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dataset(rng) -> Dataset:
    """120 samples of 8×8 SynthMNIST — enough for fast behavioural tests."""
    return generate_dataset(120, rng, SynthMnistConfig(image_size=8))


@pytest.fixture
def tiny_config() -> FederationConfig:
    return FederationConfig.tiny()


@pytest.fixture
def mlp_model_config() -> ModelConfig:
    return ModelConfig(kind="mlp", image_size=8, mlp_hidden=24, cvae_hidden=24, cvae_latent=4)


def numeric_gradient(loss_fn, param_array: np.ndarray, indices, eps: float = 1e-6):
    """Central-difference gradient of ``loss_fn()`` w.r.t. selected entries.

    ``loss_fn`` must recompute the loss from scratch (re-running forward).
    """
    flat = param_array.ravel()
    grads = {}
    for idx in indices:
        original = flat[idx]
        flat[idx] = original + eps
        loss_plus = loss_fn()
        flat[idx] = original - eps
        loss_minus = loss_fn()
        flat[idx] = original
        grads[idx] = (loss_plus - loss_minus) / (2.0 * eps)
    return grads
