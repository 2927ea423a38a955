"""Multi-seed replication tests."""

import json
import pathlib

import numpy as np
import pytest

from repro.config import FederationConfig
from repro.experiments import ReplicationResult, replicate_cell

RECORD_PATH = (
    pathlib.Path(__file__).parents[2] / "results"
    / "replication_fedguard_signflip.json"
)


class TestReplicateCell:
    def test_runs_distinct_seeds(self):
        config = FederationConfig.tiny()
        result, histories = replicate_cell(config, "fedavg", "no_attack", n_seeds=3)
        assert result.seeds == (0, 1, 2)
        assert len(histories) == 3
        assert result.tail_means.shape == (3,)
        # different seeds → different data → different curves
        assert not np.array_equal(histories[0].accuracies, histories[1].accuracies)

    def test_statistics(self):
        config = FederationConfig.tiny()
        result, _ = replicate_cell(config, "fedavg", "no_attack", n_seeds=2)
        assert 0.0 <= result.mean_of_means <= 1.0
        lo, hi = result.confidence_interval()
        assert lo <= result.mean_of_means <= hi

    def test_summary_string(self):
        config = FederationConfig.tiny()
        result, _ = replicate_cell(config, "fedavg", "no_attack", n_seeds=2)
        text = result.summary()
        assert "fedavg/no_attack" in text
        assert "2 seeds" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_cell(FederationConfig.tiny(), "fedavg", "no_attack", n_seeds=0)

    def test_base_seed_offsets(self):
        config = FederationConfig.tiny()
        result, _ = replicate_cell(
            config, "fedavg", "no_attack", n_seeds=2, base_seed=10
        )
        assert result.seeds == (10, 11)


def _result(tail_means) -> ReplicationResult:
    n = len(tail_means)
    return ReplicationResult(
        strategy="fedguard", scenario="sign_flipping_50",
        seeds=tuple(range(n)), tail_means=np.asarray(tail_means),
        tail_stds=np.zeros(n), detection_tprs=np.ones(n),
    )


class TestConfidenceInterval:
    def test_recorded_signflip_replication(self):
        # The 3-seed record EXPERIMENTS.md quotes: the sample standard
        # deviation (ddof 1), and an upper bound clipped at accuracy 1.
        record = json.loads(RECORD_PATH.read_text())
        result = _result(record["tail_means"])
        assert result.std_of_means == pytest.approx(0.03727, abs=5e-6)
        lo, hi = result.confidence_interval()
        assert lo == pytest.approx(0.9198, abs=5e-5)
        assert hi == 1.0

    def test_single_seed_has_no_spread(self):
        result = _result([0.9])
        assert np.isnan(result.std_of_means)
        assert all(np.isnan(result.confidence_interval()))
