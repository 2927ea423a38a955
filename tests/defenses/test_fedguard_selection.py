"""FedGuard selection unit tests with a stubbed synthesis stage.

These isolate Alg. 1 lines 5-7 (scoring + mean-threshold filtering) from
the CVAE machinery: a stub classifier shell maps each row of the stacked
update matrix to a predetermined prediction pattern, so the audit
accuracies — and therefore the selection outcome — are exact and fast to
compute. The keep rule's own cases live with
:func:`repro.fl.strategy.keep_at_mean` in ``tests/fl/test_strategy.py``;
here one case checks that FedGuard's audit scores reach it.
"""

import numpy as np
import pytest

from repro.defenses import FedGuard
from repro.fl import ClientUpdate
from repro.fl.strategy import ServerContext


class StubDecoder:
    """Decoder shell: 'generates' a fixed zero image per label."""

    latent_dim = 2
    num_classes = 4

    def __init__(self):
        self._params = [np.zeros(1)]

    def parameters(self):
        return self._params

    def generate(self, labels, rng, z=None):
        return np.zeros((len(labels), 6))


class StubClassifier:
    """Stacked classifier shell whose accuracies equal its loaded weights.

    Each row of the stacked 'weights' matrix is a single scalar a ∈ [0, 1];
    predict() returns one row per loaded scalar, matching the true labels
    for the first ⌊a·n⌋ samples and garbage for the rest, so row i's audit
    accuracy == a_i exactly.
    """

    def __init__(self):
        self.values = np.zeros(1)

    def predict(self, x):
        n = len(x)
        preds = np.full((self.values.size, n), -1)
        for i, value in enumerate(self.values):
            correct = int(round(float(value) * n))
            preds[i, :correct] = StubContext.LABELS[:correct]
        return preds


class StubContext:
    LABELS = None  # set per test run


def make_context(t=8):
    classifier = StubClassifier()

    def make_classifier():
        return classifier

    context = ServerContext(
        make_classifier=make_classifier,
        make_decoder=lambda: StubDecoder(),
        num_classes=4,
        t_samples=t,
        class_probs=np.full(4, 0.25),
        rng=np.random.default_rng(0),
    )
    return context, classifier


def patched_guard():
    """FedGuard with a trivial synthesis stage (audit data is all-zeros)."""
    guard = FedGuard()

    def fake_synthesize(updates, context):
        n = 100
        StubContext.LABELS = np.zeros(n, dtype=np.int64)
        return np.zeros((n, 6)), StubContext.LABELS

    guard.synthesize = fake_synthesize
    return guard


def updates_with_scores(scores):
    # encode the desired accuracy in the single-scalar weight vector;
    # stack_parameters loads the (K, 1) matrix into StubClassifier.values.
    return [
        ClientUpdate(i, np.array([s]), 10, decoder_weights=np.zeros(1))
        for i, s in enumerate(scores)
    ]


@pytest.fixture
def selection_env(monkeypatch):
    """Wire stack_parameters so loading the ψ matrix sets the stub's accuracies."""
    from repro.defenses import fedguard as fedguard_module

    def fake_stack(matrix, model):
        assert isinstance(model, StubClassifier), "unexpected model type in stub test"
        model.values = np.asarray(matrix)[:, 0]

    monkeypatch.setattr(fedguard_module.nn, "stack_parameters", fake_stack)
    return fake_stack


class TestMeanThresholdSelection:
    def run_selection(self, scores):
        guard = patched_guard()
        context, _ = make_context()
        updates = updates_with_scores(scores)
        result = guard.aggregate(1, updates, np.zeros(1), context)
        return result

    def test_exact_mean_boundary_kept(self, selection_env):
        # binary-exact scores: [0.25, 0.5, 0.75], mean exactly 0.5 —
        # the boundary update scores >= mean and must be kept
        result = self.run_selection([0.25, 0.5, 0.75])
        assert set(result.accepted_ids) == {1, 2}
        assert result.rejected_ids == [0]

    def test_metrics_match_scores(self, selection_env):
        result = self.run_selection([0.2, 0.8])
        assert result.metrics["audit_acc_mean"] == pytest.approx(0.5)
        assert result.metrics["audit_acc_min"] == pytest.approx(0.2)
        assert result.metrics["audit_acc_max"] == pytest.approx(0.8)
