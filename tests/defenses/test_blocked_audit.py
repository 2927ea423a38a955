"""Blocked inference leaves the FedGuard audit and the PDGAN vote unchanged.

Both score every submission with one stacked ``predict``, which runs in
blocks sized by :data:`repro.models.classifier.PREDICT_BLOCK_BYTES`; so do
the server and client evaluations. Blocking can move a logit in its last
bits, so each cell of the attack matrix runs with the budget forced small
and forced unbounded (one block per call: the one-shot reference), and the
normalized histories must be equal. PDGAN audits from round 1 here
(``init_rounds=0``); with its default warm-up the vote would never run in
these short federations.

The small budgets are 16 samples per block for the round's stacked models
(several audit blocks even for the tiny MLP) and 1 byte, one (model,
sample) pair per block, which also splits the stacked models.
``same_value_50`` uploads constant models whose logits tie exactly in every
row; which class such a tie goes to is decided by rounding, which follows
the BLAS kernel the block shape selects. With up to 32 (model, sample)
pairs per block on the tiny MLP, OpenBLAS 0.3.31 (Haswell kernels) breaks
some of those ties differently from the one-shot pass, so
``same_value_50`` runs at 16-sample blocks only.

A two-worker process pool scores the audit in its workers whenever the
one-process predict would take more than one block, each worker running
its share of the stacked models with the full stack's block. At 16-sample
blocks its histories must equal the same one-shot reference, ties
included.
"""

import numpy as np
import pytest

from repro.config import FederationConfig
from repro.defenses import PDGAN, FedGuard
from repro.experiments.scenarios import make_scenario
from repro.fl.simulation import run_federation
from repro.models import build_classifier, classifier

from ..fl.test_batched_engine import normalized

SCENARIOS = ("no_attack", "additive_noise_50", "label_flipping_30",
             "sign_flipping_50", "same_value_50")
TIED_LOGITS = "same_value_50"
STRATEGIES = {"fedguard": FedGuard, "pdgan": lambda: PDGAN(init_rounds=0)}
UNBOUNDED = np.iinfo(np.int64).max


def _history(config, strategy, scenario, budget, monkeypatch):
    monkeypatch.setattr(classifier, "PREDICT_BLOCK_BYTES", budget)
    history = run_federation(config, STRATEGIES[strategy](), make_scenario(scenario))
    return normalized(history)


def _assert_budget_invisible(config, strategy, scenario, monkeypatch, pool=False):
    sample_nbytes = build_classifier(config.model).sample_nbytes
    budgets = [16 * config.clients_per_round * sample_nbytes]
    if scenario != TIED_LOGITS:
        budgets.append(1)
    reference = _history(config, strategy, scenario, UNBOUNDED, monkeypatch)
    for budget in budgets:
        assert _history(config, strategy, scenario, budget, monkeypatch) == reference, (
            f"{strategy}/{scenario} history changed at a {budget}-byte block budget"
        )
    if pool:
        pooled = config.replace(backend="process", backend_workers=2)
        assert _history(pooled, strategy, scenario, budgets[0], monkeypatch) == reference, (
            f"{strategy}/{scenario} history changed when the pool scored the audit"
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_tiny_mlp_histories_independent_of_block_budget(
    strategy, scenario, seed, monkeypatch
):
    _assert_budget_invisible(FederationConfig.tiny(seed=seed), strategy, scenario,
                             monkeypatch, pool=seed == 0)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_paper_scaled_cnn_histories_independent_of_block_budget(
    strategy, scenario, seed, monkeypatch
):
    config = FederationConfig.paper_scaled(
        seed=seed, n_clients=6, clients_per_round=6, rounds=2,
        train_samples=240, test_samples=60, local_epochs=1, cvae_epochs=2,
    )
    _assert_budget_invisible(config, strategy, scenario, monkeypatch, pool=True)
