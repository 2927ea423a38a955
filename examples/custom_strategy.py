#!/usr/bin/env python
"""Writing a custom aggregation strategy against the public API.

Builds two strategies the paper's future-work section (§VI-C) suggests and
runs them against stock FedGuard under a 50 % sign-flip attack:

* ``FedGuard(inner_aggregator=geomed)`` — FedGuard's selective filter with
  a geometric-median inner operator instead of FedAvg (defense in depth:
  even if a poisoned update slips past the audit, the median blunts it);
* ``MajorityVoteGuard`` — a from-scratch Strategy subclass that audits on
  synthetic data like FedGuard but keeps the top half of updates by rank
  instead of thresholding at the mean.

    python examples/custom_strategy.py [--rounds N]
"""

import argparse

import numpy as np

from repro.attacks import AttackScenario
from repro.config import FederationConfig
from repro.defenses import FedGuard
from repro.defenses.geomed import geometric_median
from repro.fl import run_federation
from repro.fl.strategy import AggregationResult, predict_each, weighted_average


class MajorityVoteGuard(FedGuard):
    """FedGuard variant: keep the best-scoring half instead of >= mean.

    A rank-based cut guarantees a fixed acceptance rate per round, which
    removes the mean-threshold's sensitivity to audit-score outliers at
    the price of sometimes keeping a mediocre update.
    """

    name = "rank_guard"

    def aggregate(self, round_idx, updates, global_weights, context):
        synth_x, synth_y = self.synthesize(updates, context)
        # One stacked predict scores every update: a (K, N) prediction matrix.
        scores = (predict_each(updates, synth_x, context) == synth_y).mean(axis=1)

        keep_n = max(len(updates) // 2, 1)
        order = set(np.argsort(scores)[::-1][:keep_n].tolist())
        accepted = [u for i, u in enumerate(updates) if i in order]
        rejected = [u.client_id for i, u in enumerate(updates) if i not in order]
        return AggregationResult(
            weights=weighted_average(accepted),
            accepted_ids=[u.client_id for u in accepted],
            rejected_ids=rejected,
            metrics={"audit_acc_mean": float(scores.mean())},
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = FederationConfig.paper_scaled(seed=args.seed, rounds=args.rounds)
    scenario = AttackScenario.sign_flipping(0.5)

    def geomed_inner(updates):
        return geometric_median(np.stack([u.weights for u in updates]))

    strategies = {
        "fedguard (stock)": FedGuard(),
        "fedguard + geomed inner op": FedGuard(inner_aggregator=geomed_inner),
        "rank-based guard (custom)": MajorityVoteGuard(),
    }
    for name, strategy in strategies.items():
        history = run_federation(config, strategy, scenario)
        mean, std = history.tail_stats()
        detection = history.detection_summary()
        print(f"{name:30s} tail acc {mean:6.2%} ± {std:5.2%}  "
              f"tpr {detection['tpr']:.2f}  fpr {detection['fpr']:.2f}")


if __name__ == "__main__":
    main()
