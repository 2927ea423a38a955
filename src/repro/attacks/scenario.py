"""Attack scenarios: which clients are malicious and what they do.

A :class:`AttackScenario` bundles an attack with a malicious fraction and
deterministically designates which client ids are corrupted (paper TM-4:
"the adversary corrupts multiple clients"). The paper's evaluation
scenarios are exposed as constructors; :mod:`repro.experiments.scenarios`
names them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Attack
from .data_poisoning import LabelFlippingAttack
from .model_poisoning import AdditiveNoiseAttack, SameValueAttack, SignFlippingAttack

__all__ = ["AttackScenario", "no_attack"]


@dataclass(frozen=True)
class AttackScenario:
    """An attack plus the fraction of the client population it corrupts."""

    name: str
    attack: Attack | None
    malicious_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ValueError(
                f"malicious_fraction must be in [0, 1], got {self.malicious_fraction}"
            )
        if self.attack is None and self.malicious_fraction > 0:
            raise ValueError("scenario with malicious clients needs an attack")

    def malicious_ids(self, n_clients: int, rng: np.random.Generator) -> set[int]:
        """Designate round(n · fraction) malicious client ids, uniformly."""
        count = int(round(n_clients * self.malicious_fraction))
        if count == 0 or self.attack is None:
            return set()
        return set(rng.choice(n_clients, size=count, replace=False).tolist())

    # -- the paper's evaluation scenarios (Section IV-B) --------------------
    @staticmethod
    def additive_noise(fraction: float = 0.5, sigma: float = 1.0) -> "AttackScenario":
        return AttackScenario(
            name=f"additive_noise_{int(fraction * 100)}",
            attack=AdditiveNoiseAttack(sigma=sigma),
            malicious_fraction=fraction,
        )

    @staticmethod
    def label_flipping(fraction: float = 0.3) -> "AttackScenario":
        return AttackScenario(
            name=f"label_flipping_{int(fraction * 100)}",
            attack=LabelFlippingAttack(),
            malicious_fraction=fraction,
        )

    @staticmethod
    def sign_flipping(fraction: float = 0.5) -> "AttackScenario":
        return AttackScenario(
            name=f"sign_flipping_{int(fraction * 100)}",
            attack=SignFlippingAttack(),
            malicious_fraction=fraction,
        )

    @staticmethod
    def same_value(fraction: float = 0.5, value: float = 1.0) -> "AttackScenario":
        return AttackScenario(
            name=f"same_value_{int(fraction * 100)}",
            attack=SameValueAttack(value=value),
            malicious_fraction=fraction,
        )


def no_attack() -> AttackScenario:
    """The benign baseline every figure/table includes."""
    return AttackScenario(name="no_attack", attack=None, malicious_fraction=0.0)
