"""Batched training engine: loop equivalence and FedGuard audit caching.

These pin the engine-level guarantees end to end: ``engine="batched"``
reproduces ``engine="loop"`` histories bit-for-bit across ragged client
groups, optimizer variants, and the worker-resident process pool; and the
FedGuard synthesized-validation-set cache returns byte-identical audit
data to re-synthesizing from the frozen seed every round.
"""

import numpy as np
import pytest

from repro.config import FederationConfig, ModelConfig
from repro.data.dataset import Dataset
from repro.defenses import FedGuard
from repro.experiments import run_cell
from repro.experiments.scenarios import (
    STRATEGY_FACTORIES,
    make_scenario,
)
from repro.experiments.storage import history_to_dict
from repro.fl.batched import (
    BatchedEngine,
    LoopEngine,
    make_engine,
    train_classifiers_batched,
)
from repro.fl.simulation import build_federation, run_federation
from repro.models import build_classifier
from repro import nn


def normalized(history, drop_metrics=()):
    """History dict minus wall-clock noise (and any explicitly dropped metrics)."""
    data = history_to_dict(history)
    rounds = []
    for r in data["rounds"]:
        r = {k: v for k, v in r.items() if k != "duration_s"}
        r["metrics"] = {
            k: v
            for k, v in r["metrics"].items()
            if not k.endswith("_s") and k not in drop_metrics
        }
        rounds.append(r)
    return {
        "strategy": data["strategy"],
        "scenario": data["scenario"],
        "rounds": rounds,
    }


class TestEngineFactory:
    def test_known_kinds(self):
        assert isinstance(make_engine("loop"), LoopEngine)
        assert isinstance(make_engine("batched"), BatchedEngine)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("vectorised")

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            FederationConfig.tiny(engine="warp")


class TestBatchedTrainingValidation:
    def _stacked(self, k):
        model_config = ModelConfig(kind="mlp", image_size=4, mlp_hidden=8)
        model = build_classifier(model_config, np.random.default_rng(0))
        vec = nn.parameters_to_vector(model)
        nn.stack_parameters(np.repeat(vec[None, :], k, axis=0), model)
        return model

    def _dataset(self, n, rng):
        return Dataset(
            rng.standard_normal((n, 16)),
            rng.integers(0, 10, size=n),
            num_classes=10,
            image_size=4,
        )

    def test_client_axis_mismatch_raises(self):
        rng = np.random.default_rng(0)
        model = self._stacked(2)
        datasets = [self._dataset(4, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="client_axis=2, expected 3"):
            train_classifiers_batched(
                model, datasets, epochs=1, lr=0.1, batch_size=2,
                rngs=[np.random.default_rng(i) for i in range(3)],
            )

    def test_rng_count_mismatch_raises(self):
        rng = np.random.default_rng(0)
        model = self._stacked(2)
        datasets = [self._dataset(4, rng) for _ in range(2)]
        with pytest.raises(ValueError, match="1 RNG streams for 2"):
            train_classifiers_batched(
                model, datasets, epochs=1, lr=0.1, batch_size=2,
                rngs=[np.random.default_rng(0)],
            )

    def test_unequal_sizes_raise(self):
        rng = np.random.default_rng(0)
        model = self._stacked(2)
        datasets = [self._dataset(4, rng), self._dataset(6, rng)]
        with pytest.raises(ValueError, match="equal-sized datasets"):
            train_classifiers_batched(
                model, datasets, epochs=1, lr=0.1, batch_size=2,
                rngs=[np.random.default_rng(i) for i in range(2)],
            )

    def test_empty_datasets_return_nan_losses(self):
        rng = np.random.default_rng(0)
        model = self._stacked(2)
        before = nn.unstack_parameters(model).copy()
        losses = train_classifiers_batched(
            model, [self._dataset(0, rng) for _ in range(2)],
            epochs=1, lr=0.1, batch_size=2,
            rngs=[np.random.default_rng(i) for i in range(2)],
        )
        assert np.isnan(losses).all()
        np.testing.assert_array_equal(nn.unstack_parameters(model), before)


class TestLoopEquivalence:
    def test_tiny_partition_is_ragged(self):
        # The Dirichlet tiny partition produces unequal dataset sizes, so
        # the equivalence runs below genuinely exercise multi-group rounds.
        server = build_federation(
            FederationConfig.tiny(), STRATEGY_FACTORIES["fedavg"]()
        )
        sizes = {len(client.dataset) for client in server.clients}
        assert len(sizes) > 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"client_optimizer": "adam", "client_momentum": 0.0},
            {"proximal_mu": 0.1},
        ],
        ids=["sgd", "adam", "fedprox"],
    )
    def test_batched_matches_loop(self, overrides):
        histories = [
            run_cell(
                FederationConfig.tiny(engine=engine, **overrides),
                "fedavg",
                "label_flipping_30",
            )
            for engine in ("loop", "batched")
        ]
        assert normalized(histories[0]) == normalized(histories[1])

    def test_resident_pool_batched_matches_sequential_loop(self):
        loop = run_cell(FederationConfig.tiny(), "fedguard", "label_flipping_30")
        pooled = run_cell(
            FederationConfig.tiny(
                engine="batched", backend="process", backend_workers=2
            ),
            "fedguard",
            "label_flipping_30",
        )
        assert normalized(loop) == normalized(pooled)

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_FACTORIES))
    def test_all_strategies_batched_match_loop(self, strategy):
        histories = [
            run_cell(
                FederationConfig.tiny(engine=engine), strategy, "label_flipping_30"
            )
            for engine in ("loop", "batched")
        ]
        assert normalized(histories[0]) == normalized(histories[1])


class FreshSynthesisFedGuard(FedGuard):
    """Cache-defeating variant: re-synthesizes from the frozen seed every
    round. Must be indistinguishable from the caching strategy (except for
    the hit counter) — that equality is what makes the cache sound."""

    def synthesize(self, updates, context):
        self._sample_cache.clear()
        return super().synthesize(updates, context)


class TestFedGuardAuditCache:
    def _run(self, strategy):
        return run_federation(
            FederationConfig.tiny(engine="batched"),
            strategy,
            make_scenario("label_flipping_30"),
        )

    def test_cache_hits_metric_tracks_resampled_decoders(self):
        history = self._run(FedGuard())
        hits = [r.metrics["audit_cache_hits"] for r in history.rounds]
        assert hits[0] == 0  # nothing cached before the first round
        selected = [set(r.selected_ids) for r in history.rounds]
        assert hits[1] == len(selected[0] & selected[1])

    def test_cached_samples_equal_fresh_synthesis(self):
        cached = self._run(FedGuard())
        fresh = self._run(FreshSynthesisFedGuard())
        assert normalized(cached, drop_metrics=("audit_cache_hits",)) == normalized(
            fresh, drop_metrics=("audit_cache_hits",)
        )
        assert all(
            r.metrics["audit_cache_hits"] == 0 for r in fresh.rounds
        )

    def test_cache_off_still_supported(self):
        # cache_synthesis=False redraws the validation set every round (the
        # pre-cache behavior); round 1 is identical either way because the
        # frozen seed *is* the round-1 draw.
        on = normalized(self._run(FedGuard()))
        off = normalized(
            self._run(FedGuard(cache_synthesis=False)),
            drop_metrics=("audit_cache_hits",),
        )
        on_r1 = {
            k: v
            for k, v in on["rounds"][0]["metrics"].items()
            if k != "audit_cache_hits"
        }
        assert on_r1 == off["rounds"][0]["metrics"]
