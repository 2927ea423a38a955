"""Detection-quality analysis tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import DetectionReport, auc, detection_report, roc_curve
from repro.fl.strategy import keep_at_mean


class TestRocCurve:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.85, 0.1, 0.05])  # high = benign
        malicious = np.array([False, False, False, True, True])
        fpr, tpr, _ = roc_curve(scores, malicious)
        assert auc(fpr, tpr) == pytest.approx(1.0)

    def test_no_signal(self):
        rng = np.random.default_rng(0)
        scores = rng.random(2000)
        malicious = rng.random(2000) < 0.5
        fpr, tpr, _ = roc_curve(scores, malicious)
        assert auc(fpr, tpr) == pytest.approx(0.5, abs=0.05)

    def test_inverted_signal(self):
        # malicious score HIGHER than benign → AUC below 0.5
        scores = np.array([0.1, 0.2, 0.9, 0.95])
        malicious = np.array([False, False, True, True])
        fpr, tpr, _ = roc_curve(scores, malicious)
        assert auc(fpr, tpr) < 0.5

    def test_curve_endpoints(self):
        scores = np.array([0.3, 0.7])
        malicious = np.array([True, False])
        fpr, tpr, _ = roc_curve(scores, malicious)
        assert tpr.min() == 0.0 and tpr.max() == 1.0
        assert fpr.min() == 0.0 and fpr.max() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([0.5]), np.array([True]))  # no benign
        with pytest.raises(ValueError):
            roc_curve(np.array([0.5, 0.6]), np.array([True]))  # shape


class TestDetectionReport:
    def test_fields(self):
        scores = np.array([0.9, 0.85, 0.1, 0.15])
        malicious = np.array([False, False, True, True])
        report = detection_report(scores, malicious)
        assert isinstance(report, DetectionReport)
        assert report.auc == pytest.approx(1.0)
        assert report.mean_threshold_tpr == 1.0
        assert report.mean_threshold_fpr == 0.0
        assert report.margin == pytest.approx(0.875 - 0.125)

    def test_mean_threshold_can_be_suboptimal(self):
        """One extreme benign score drags the round mean above the other
        benign scores, so the mean-threshold rule rejects them as false
        positives even though the scores are perfectly separable — the
        fragility the AUC view exposes."""
        scores = np.array([10.0, 0.30, 0.29, 0.2, 0.22])
        malicious = np.array([False, False, False, True, True])
        report = detection_report(scores, malicious)
        assert report.auc == pytest.approx(1.0)            # perfectly separable...
        assert report.mean_threshold_fpr > 0.5             # ...but benign get cut

    def test_tied_round_flags_what_the_defenses_reject(self):
        """Three equal scores average to a mean that rounds above each of
        them; the defenses keep all three, so the report flags none."""
        scores = np.array([0.1, 0.1, 0.1])
        malicious = np.array([True, False, False])
        report = detection_report(scores, malicious)
        assert report.mean_threshold_tpr == 0.0
        assert report.mean_threshold_fpr == 0.0
        updates = [SimpleNamespace(client_id=i) for i in range(3)]
        assert keep_at_mean(updates, scores) == (updates, [])

    def test_on_real_fedguard_audit(self, rng):
        """AUC of actual FedGuard audit scores on a tiny federation."""
        from repro import nn
        from repro.attacks import AttackScenario
        from repro.config import FederationConfig, ModelConfig
        from repro.defenses import FedGuard
        from repro.fl.simulation import build_federation

        config = FederationConfig.tiny(
            cvae_epochs=60, local_epochs=8, train_samples=900, client_lr=0.1,
            model=ModelConfig(kind="mlp", image_size=8, mlp_hidden=32,
                              cvae_hidden=48, cvae_latent=6),
        )
        server = build_federation(config, FedGuard(), AttackScenario.same_value(0.5))
        participants = server.sample_clients()
        updates = [c.fit(server.global_weights, True) for c in participants]
        guard = server.strategy
        synth_x, synth_y = guard.synthesize(updates, server.context)
        classifier = server.context.make_classifier()
        scores = []
        for update in updates:
            nn.vector_to_parameters(update.weights, classifier)
            scores.append(np.mean(classifier.predict(synth_x) == synth_y))
        malicious = np.array([u.malicious for u in updates])
        if malicious.any() and (~malicious).any():
            report = detection_report(np.array(scores), malicious)
            assert report.auc > 0.8
