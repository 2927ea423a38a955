"""Optimized model-poisoning attacks — paper reference [29].

Fang et al., "Local model poisoning attacks to Byzantine-robust federated
learning", show that an adversary who knows (or estimates) the benign
update direction can craft poisoned updates that specifically defeat
Krum-style defenses: instead of sending obvious garbage, all colluders
send updates just inside the benign cluster but deviated *against* the
true descent direction. Because the colluders are mutually close, Krum's
nearest-neighbour score favours them.

Two attacks from that family:

* :class:`DirectedDeviationAttack` — push λ·sign-deviation against the
  client's own honestly-computed update direction (the paper's
  full-knowledge approximation: each colluder derives the direction from
  its local training, and all agree on λ);
* :class:`ScalingAttack` — classic model-replacement boosting
  (w ← global + γ·(w − global)), which defeats plain averaging by
  amplifying a (possibly backdoored) update.

Both are *model* attacks applied after honest local training and require
the incoming global weights, so they implement the extended
``apply_with_context`` hook.
"""

from __future__ import annotations

import numpy as np

from .base import ModelPoisoningAttack

__all__ = ["DirectedDeviationAttack", "ScalingAttack"]


class DirectedDeviationAttack(ModelPoisoningAttack):
    """Fang-style attack: deviate against the benign update direction.

    The poisoned update is ``global − λ · sign(w_honest − global)``: a
    vector of plausible magnitude whose every coordinate moves the model
    the *wrong* way. Colluders share λ, so their submissions form a tight
    cluster — the configuration that defeats Krum's selection.
    """

    name = "directed_deviation"

    def __init__(self, lam: float = 0.5, colluding: bool = True) -> None:
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        self.lam = lam
        self.colluding = colluding
        # Colluders share the first colluder's direction, built at runtime
        # from its own update — state process-pool workers cannot share.
        self.runtime_collusion = colluding
        self._global: np.ndarray | None = None
        self._shared_direction: np.ndarray | None = None

    def bind_global(self, global_weights: np.ndarray) -> None:
        """Give the attacker the round's global model (threat model TM-2:
        'the federated model is visible to all parties')."""
        # A private copy: the server updates ψ in place, and an alias would
        # equal the next round's ψ and never start a new direction.
        global_weights = np.array(global_weights, dtype=np.float64)
        if self._global is None or not np.array_equal(self._global, global_weights):
            # New round: the colluders re-estimate the benign direction.
            self._shared_direction = None
        self._global = global_weights

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self._global is None or self._global.shape != weights.shape:
            # No global bound (e.g. direct use outside the client loop):
            # fall back to deviating against the update itself.
            return -self.lam * np.sign(weights)
        direction = np.sign(weights - self._global)
        if self.colluding:
            # TM-5: the first colluder's estimated benign direction is
            # shared by all, so every poisoned submission is identical —
            # the tight cluster that defeats Krum's selection rule.
            if self._shared_direction is None:
                self._shared_direction = direction
            direction = self._shared_direction
        return self._global - self.lam * direction


class ScalingAttack(ModelPoisoningAttack):
    """Model replacement: boost the own update by γ.

    ``w ← global + γ·(w − global)``. With γ ≈ m (clients per round) a
    single attacker fully replaces the FedAvg aggregate with its own
    model — the standard vehicle for inserting backdoors past plain
    averaging.
    """

    name = "scaling"

    def __init__(self, gamma: float = 10.0) -> None:
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma
        self._global: np.ndarray | None = None

    def bind_global(self, global_weights: np.ndarray) -> None:
        self._global = np.asarray(global_weights, dtype=np.float64)

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self._global is None or self._global.shape != weights.shape:
            return self.gamma * weights
        return self._global + self.gamma * (weights - self._global)
