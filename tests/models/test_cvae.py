"""CVAE behaviour: gradients, generation, conditioning, training."""

import numpy as np
import pytest

from repro import nn
from repro.fl.client import train_cvae
from repro.models import CVAE

from ..conftest import numeric_gradient


def small_cvae(rng=None, **kw):
    defaults = dict(input_dim=16, num_classes=4, hidden=12, latent_dim=3)
    defaults.update(kw)
    return CVAE(rng=rng or np.random.default_rng(0), **defaults)


class TestForward:
    def test_shapes(self, rng):
        cvae = small_cvae(rng)
        x = rng.random((5, 16))
        recon, mu, logvar = cvae.forward(x, np.array([0, 1, 2, 3, 0]), rng)
        assert recon.shape == (5, 20)   # 16 pixels + 4 label slots
        assert mu.shape == (5, 3)
        assert logvar.shape == (5, 3)

    def test_reconstruction_in_unit_interval(self, rng):
        cvae = small_cvae(rng)
        recon, _, _ = cvae.forward(rng.random((3, 16)), np.array([0, 1, 2]), rng)
        assert (recon >= 0).all() and (recon <= 1).all()

    def test_accepts_image_shaped_input(self, rng):
        cvae = small_cvae(rng)
        recon, _, _ = cvae.forward(rng.random((2, 4, 4)), np.array([0, 1]), rng)
        assert recon.shape == (2, 20)

    def test_reconstruct_label_false(self, rng):
        cvae = small_cvae(rng, reconstruct_label=False)
        recon, _, _ = cvae.forward(rng.random((2, 16)), np.array([0, 1]), rng)
        assert recon.shape == (2, 16)


class TestReconstructionTarget:
    def test_concatenates_one_hot(self, rng):
        cvae = small_cvae(rng)
        x = rng.random((2, 16))
        target = cvae.reconstruction_target(x, np.array([1, 3]))
        assert target.shape == (2, 20)
        np.testing.assert_array_equal(target[:, :16], x)
        np.testing.assert_array_equal(target[0, 16:], [0, 1, 0, 0])

    def test_without_label_reconstruction(self, rng):
        cvae = small_cvae(rng, reconstruct_label=False)
        x = rng.random((2, 16))
        np.testing.assert_array_equal(cvae.reconstruction_target(x, np.array([0, 1])), x)


class TestBackward:
    def test_gradients_match_numeric(self, rng):
        cvae = small_cvae(rng)
        x = rng.random((4, 16))
        labels = np.array([0, 1, 2, 3])
        loss_fn = nn.CVAELoss()
        target = cvae.reconstruction_target(x, labels)

        def loss(seed=11):
            recon, mu, logvar = cvae.forward(x, labels, np.random.default_rng(seed))
            return loss_fn(recon, target, mu, logvar)

        loss()
        cvae.zero_grad()
        cvae.backward(*loss_fn.backward())
        for p in (cvae.encoder.fc1.weight, cvae.encoder.fc_logvar.weight,
                  cvae.decoder.fc2.weight):
            numeric = numeric_gradient(loss, p.data, [0, 3])
            for idx, num in numeric.items():
                assert p.grad.ravel()[idx] == pytest.approx(num, abs=1e-5)

    def test_parameter_grads_bytes_equal_full_backward(self, rng):
        """The encoder's fc1 skips its input gradient; every parameter
        gradient stays byte-identical to running each layer's full backward."""
        cvae, ref = small_cvae(), small_cvae()
        x = rng.random((6, 16))
        labels = np.array([0, 1, 2, 3, 0, 1])
        loss_fn = nn.CVAELoss()
        for model in (cvae, ref):
            recon, mu, logvar = model.forward(x, labels, np.random.default_rng(5))
            loss_fn(recon, model.reconstruction_target(x, labels), mu, logvar)
        d_recon, d_mu, d_logvar = loss_fn.backward()
        assert cvae.backward(d_recon, d_mu, d_logvar) is None
        # Reference: CVAE.backward with every layer's full backward.
        eps, sigma = ref._cache["eps"], ref._cache["sigma"]
        dz = ref.decoder.backward(d_recon)
        enc = ref.encoder
        dh = enc.fc_mu.backward(d_mu + dz) + enc.fc_logvar.backward(
            d_logvar + dz * eps * 0.5 * sigma
        )
        assert enc.fc1.backward(enc.relu.backward(dh)).shape == (6, 20)
        for p, own in zip(cvae.parameters(), ref.parameters()):
            assert p.grad.tobytes() == own.grad.tobytes(), p.name

    def test_backward_before_forward_raises(self, rng):
        cvae = small_cvae(rng)
        with pytest.raises(RuntimeError):
            cvae.backward(np.zeros((1, 20)), np.zeros((1, 3)), np.zeros((1, 3)))


class TestGeneration:
    def test_shapes_and_range(self, rng):
        cvae = small_cvae(rng)
        out = cvae.generate(np.array([0, 1, 2]), rng)
        assert out.shape == (3, 16)
        assert (out >= 0).all() and (out <= 1).all()

    def test_given_z_is_deterministic(self, rng):
        cvae = small_cvae(rng)
        z = rng.standard_normal((2, 3))
        labels = np.array([0, 1])
        a = cvae.generate(labels, rng, z=z)
        b = cvae.generate(labels, rng, z=z)
        np.testing.assert_array_equal(a, b)

    def test_wrong_z_shape_raises(self, rng):
        cvae = small_cvae(rng)
        with pytest.raises(ValueError):
            cvae.generate(np.array([0, 1]), rng, z=rng.standard_normal((3, 3)))

    def test_conditioning_changes_output(self, rng):
        cvae = small_cvae(rng)
        z = rng.standard_normal((1, 3))
        a = cvae.generate(np.array([0]), rng, z=z)
        b = cvae.generate(np.array([1]), rng, z=z)
        assert not np.allclose(a, b)


class TestTraining:
    def test_loss_decreases(self, rng, tiny_dataset):
        cvae = CVAE(input_dim=64, num_classes=10, hidden=32, latent_dim=4, rng=rng)
        first = train_cvae(cvae, tiny_dataset, epochs=1, lr=1e-3, batch_size=32, rng=rng)
        last = train_cvae(cvae, tiny_dataset, epochs=10, lr=1e-3, batch_size=32, rng=rng)
        assert last < first

    def test_trained_cvae_conditions_generation(self, rng, tiny_dataset):
        """After training, samples generated for class c should be closer
        (on average) to real class-c images than to other classes' images."""
        cvae = CVAE(input_dim=64, num_classes=10, hidden=48, latent_dim=6, rng=rng)
        train_cvae(cvae, tiny_dataset, epochs=100, lr=2e-3, batch_size=32, rng=rng)
        present = tiny_dataset.classes_present()
        hits = 0
        total = 0
        centroids = {
            c: tiny_dataset.features[tiny_dataset.labels == c].mean(axis=0)
            for c in present
        }
        for c in present:
            samples = cvae.generate(np.full(8, c), rng)
            mean_sample = samples.mean(axis=0)
            dists = {k: np.linalg.norm(mean_sample - v) for k, v in centroids.items()}
            nearest = min(dists, key=dists.get)
            hits += nearest == c
            total += 1
        assert hits / total >= 0.7
