"""Multi-seed replication: variance of the reproduced statistics.

A single federated run's tail accuracy is one draw from a noisy process
(client sampling, attack designation, SGD order). This module repeats a
(strategy, scenario) cell over independent seeds and aggregates the
statistics — the honest way to report the reproduction's stability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import FederationConfig
from ..fl.history import History
from .runner import run_cell

__all__ = ["ReplicationResult", "replicate_cell"]


@dataclass(frozen=True)
class ReplicationResult:
    """Aggregate over n independent seeds of one experiment cell."""

    strategy: str
    scenario: str
    seeds: tuple[int, ...]
    tail_means: np.ndarray       # per-seed tail mean accuracy
    tail_stds: np.ndarray        # per-seed tail std
    detection_tprs: np.ndarray   # per-seed detection rates (nan if benign)

    @property
    def mean_of_means(self) -> float:
        return float(self.tail_means.mean())

    @property
    def std_of_means(self) -> float:
        """Across-seed sample standard deviation (nan for a single seed)."""
        if len(self.tail_means) < 2:
            return float("nan")
        return float(self.tail_means.std(ddof=1))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI of the mean tail accuracy, within [0, 1]."""
        half = z * self.std_of_means / np.sqrt(len(self.seeds))
        lo, hi = np.clip(
            [self.mean_of_means - half, self.mean_of_means + half], 0.0, 1.0
        )
        return (float(lo), float(hi))

    def summary(self) -> str:
        lo, hi = self.confidence_interval()
        return (
            f"{self.strategy}/{self.scenario} over {len(self.seeds)} seeds: "
            f"{self.mean_of_means:.2%} (95% CI [{lo:.2%}, {hi:.2%}])"
        )


def replicate_cell(
    config: FederationConfig,
    strategy_name: str,
    scenario_name: str,
    n_seeds: int = 3,
    base_seed: int = 0,
) -> tuple[ReplicationResult, list[History]]:
    """Run one cell under ``n_seeds`` independent seeds.

    Returns the aggregate and the raw histories (for per-round plots).
    """
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    seeds = tuple(base_seed + i for i in range(n_seeds))
    histories = [
        run_cell(config.replace(seed=seed), strategy_name, scenario_name)
        for seed in seeds
    ]
    tail = np.array([h.tail_stats() for h in histories])
    tprs = np.array([h.detection_summary()["tpr"] for h in histories])
    result = ReplicationResult(
        strategy=strategy_name,
        scenario=scenario_name,
        seeds=seeds,
        tail_means=tail[:, 0],
        tail_stds=tail[:, 1],
        detection_tprs=tprs,
    )
    return result, histories
