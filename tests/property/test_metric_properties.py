"""Property-based tests for metrics and analysis tools."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import PAPER_FLIP_PAIRS
from repro.experiments import auc, roc_curve
from repro.experiments.update_geometry import cosine_matrix
from repro.metrics import attack_success_rate, confusion_matrix, per_class_accuracy

labels_lists = st.lists(st.integers(0, 9), min_size=2, max_size=100)


class TestConfusionMatrixProperties:
    @given(labels_lists, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_sums_are_class_counts(self, labels, seed):
        labels = np.array(labels)
        preds = np.random.default_rng(seed).integers(0, 10, labels.size)
        cm = confusion_matrix(labels, preds, 10)
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(labels, minlength=10))
        np.testing.assert_array_equal(cm.sum(axis=0), np.bincount(preds, minlength=10))

    @given(labels_lists)
    @settings(max_examples=50, deadline=None)
    def test_perfect_prediction_diagonal(self, labels):
        labels = np.array(labels)
        cm = confusion_matrix(labels, labels, 10)
        assert cm.sum() == np.diag(cm).sum()


class TestPerClassAccuracyProperties:
    @given(labels_lists, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_values_in_unit_interval_or_nan(self, labels, seed):
        labels = np.array(labels)
        preds = np.random.default_rng(seed).integers(0, 10, labels.size)
        acc = per_class_accuracy(labels, preds, 10)
        finite = acc[~np.isnan(acc)]
        assert ((finite >= 0) & (finite <= 1)).all()


class TestAttackSuccessRateProperties:
    @given(labels_lists, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, labels, seed):
        labels = np.array(labels)
        preds = np.random.default_rng(seed).integers(0, 10, labels.size)
        rate = attack_success_rate(labels, preds, PAPER_FLIP_PAIRS)
        assert np.isnan(rate) or 0.0 <= rate <= 1.0

    @given(labels_lists)
    @settings(max_examples=50, deadline=None)
    def test_zero_on_perfect_prediction(self, labels):
        labels = np.array(labels)
        rate = attack_success_rate(labels, labels, PAPER_FLIP_PAIRS)
        assert np.isnan(rate) or rate == 0.0


class TestRocProperties:
    scores_and_flags = st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n),
            st.integers(1, n - 1),
        )
    )

    @given(scores_and_flags)
    @settings(max_examples=50, deadline=None)
    def test_auc_bounded_and_monotone_curve(self, data):
        scores_list, n_malicious = data
        scores = np.array(scores_list)
        malicious = np.zeros(scores.size, dtype=bool)
        malicious[:n_malicious] = True
        fpr, tpr, _ = roc_curve(scores, malicious)
        assert 0.0 <= auc(fpr, tpr) <= 1.0
        # thresholds ascend → flagged sets grow → both rates non-decreasing
        assert (np.diff(fpr) >= -1e-12).all()
        assert (np.diff(tpr) >= -1e-12).all()


class TestCosineMatrixProperties:
    # Subnormal entries are excluded: scaling [[0, 0], [0, 5e-324]] by 0.5
    # underflows its second row to zero, which no cosine survives.
    matrices = st.integers(2, 6).flatmap(
        lambda n: st.integers(2, 8).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
                    min_size=d, max_size=d,
                ),
                min_size=n, max_size=n,
            )
        )
    )

    @given(matrices)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, rows):
        m = np.array(rows)
        sims = cosine_matrix(m)
        np.testing.assert_allclose(sims, sims.T, atol=1e-10)
        assert (sims >= -1.0).all() and (sims <= 1.0).all()

    @given(matrices, st.floats(0.1, 10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, rows, scale):
        m = np.array(rows)
        np.testing.assert_allclose(
            cosine_matrix(m), cosine_matrix(m * scale), atol=1e-8
        )
