"""Client sampling policies.

The paper samples participants uniformly (Alg. 1: ``sample(range(1, N),
m)``) but its conclusion suggests FedGuard's audit signal "could further be
used ... for enabling a better sampling of quality candidates in FL
systems". :class:`ReputationSampler` implements that idea: every
accept/reject decision the aggregation strategy makes feeds a per-client
reputation, and subsequent rounds sample in proportion to it (with an
exploration floor so new or recovered clients keep getting audited).

Both samplers are sized for virtual populations (``repro.fl.population``):
cost per round is O(m + touched), never O(n_clients). Below the
:data:`EXACT_BELOW` threshold they reproduce the historical dense-array
draws bit-for-bit (golden histories depend on this); above it they
switch to sparse algorithms — Floyd's sampling for the uniform case, a
two-group weighted draw for reputations — that never allocate an
n_clients-sized array.
"""

from __future__ import annotations

import numpy as np

from .history import RoundRecord

__all__ = [
    "ClientSampler",
    "UniformSampler",
    "ReputationSampler",
    "floyd_sample",
]

# Populations smaller than this use the historical dense-array draws so
# existing seeds reproduce bit-identically; every paper-scale config
# (N <= 100) is far below it. Both samplers read it at call time.
EXACT_BELOW = 1 << 16


def floyd_sample(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of ``m`` distinct ints from ``range(n)`` in O(m).

    Robert Floyd's algorithm: for j in [n-m, n), draw t in [0, j]; take t
    unless already taken, else take j. Each m-subset is equally likely and
    only O(m) memory is touched — no permutation of the full index space.
    The resulting *set* is uniform but the order is not a uniform shuffle
    (nor is it ``rng.choice``'s order), which is why small populations
    keep the dense draw.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    selected: dict[int, None] = {}  # insertion-ordered
    for j in range(n - m, n):
        t = int(rng.integers(0, j + 1))
        selected[j if t in selected else t] = None
    return np.fromiter(selected, dtype=np.int64, count=m)


class ClientSampler:
    """Interface: choose m of N clients per round, learn from outcomes."""

    def sample(self, n_clients: int, m: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def observe(self, record: RoundRecord) -> None:
        """Feedback hook called by the server after every round."""


class UniformSampler(ClientSampler):
    """The paper's uniform-without-replacement sampling.

    Populations below :data:`EXACT_BELOW` draw via ``rng.choice`` (the
    historical path, bit-identical to every recorded history); larger
    ones use :func:`floyd_sample`, which is O(m) instead of the O(n)
    permutation ``choice`` builds internally.
    """

    def sample(self, n_clients: int, m: int, rng: np.random.Generator) -> np.ndarray:
        if n_clients < EXACT_BELOW:
            return rng.choice(n_clients, size=m, replace=False)
        return floyd_sample(n_clients, m, rng)


class ReputationSampler(ClientSampler):
    """Sample proportionally to audit-derived reputation.

    Reputation is an exponential moving average of accept (+1) / reject
    (0) outcomes, initialized optimistically at 1.0. Sampling weights are
    ``epsilon/N + (1 - epsilon) * reputation / Σ reputation`` — the
    epsilon floor guarantees every client remains reachable, so a
    recovered client (or a false positive) can rebuild its standing.

    Storage is sparse: only clients whose reputation has ever been
    updated ("touched") are stored, as float64, keyed by client id —
    every untouched client is implicitly at the optimistic 1.0. The
    population may grow or shrink between rounds (virtual populations
    make N a free parameter); shrinking drops touched entries beyond the
    new range. Below :data:`EXACT_BELOW` the dense probability vector is
    reconstructed and drawn exactly as the historical implementation did;
    above it a two-group weighted draw (touched clients by cumulative
    weight, the untouched mass by rejection sampling) keeps the round
    O(m·(m + touched)).

    Parameters
    ----------
    decay:
        EMA factor; higher = longer memory.
    epsilon:
        Exploration mass spread uniformly over all clients.
    """

    def __init__(self, decay: float = 0.8, epsilon: float = 0.2) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.decay = decay
        self.epsilon = epsilon
        self._touched: dict[int, float] = {}  # cid -> EMA value (float64)
        self._primed = False  # observe() is a no-op until first sample

    def _ensure(self, n_clients: int) -> None:
        """Adopt the population size; drop touched state beyond it."""
        if n_clients <= 0:
            raise ValueError(f"n_clients must be positive, got {n_clients}")
        self._primed = True
        stale = [cid for cid in self._touched if cid >= n_clients]
        for cid in stale:
            del self._touched[cid]

    def _dense(self, n_clients: int) -> np.ndarray:
        rep = np.ones(n_clients, dtype=np.float64)
        for cid, value in self._touched.items():
            rep[cid] = value
        return rep

    def reputation(self, n_clients: int) -> np.ndarray:
        """Current per-client reputation as a dense float64 array."""
        self._ensure(n_clients)
        return self._dense(n_clients)

    def sample(self, n_clients: int, m: int, rng: np.random.Generator) -> np.ndarray:
        self._ensure(n_clients)
        if n_clients < EXACT_BELOW:
            rep = self._dense(n_clients)
            if rep.sum() > 0:
                base = rep / rep.sum()
            else:
                base = np.full(n_clients, 1.0 / n_clients, dtype=np.float64)
            probs = self.epsilon / n_clients + (1.0 - self.epsilon) * base
            probs /= probs.sum()
            return rng.choice(n_clients, size=m, replace=False, p=probs)
        return self._sample_sparse(n_clients, m, rng)

    def _sample_sparse(
        self, n_clients: int, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Weighted draw without replacement, never O(n_clients).

        Two groups: touched clients carry individual weights; the
        (n - touched) untouched clients all share the optimistic weight.
        Each draw splits on the groups' total masses, then resolves the
        touched group by cumsum/searchsorted and the untouched group by
        rejection-sampling a uniform index (collision probability is
        ~(touched + m)/n, vanishing at scale).
        """
        rep_sum = float(n_clients - len(self._touched)) + float(
            sum(self._touched.values())
        )
        floor = self.epsilon / n_clients

        def weight(value: float) -> float:
            return floor + (1.0 - self.epsilon) * value / rep_sum

        touched_ids = np.fromiter(
            self._touched, dtype=np.int64, count=len(self._touched)
        )
        touched_w = np.array(
            [weight(self._touched[int(c)]) for c in touched_ids],
            dtype=np.float64,
        )
        untouched_w = weight(1.0)
        n_untouched = n_clients - len(touched_ids)
        taken: set[int] = set()
        out = np.empty(m, dtype=np.int64)
        alive = np.ones(len(touched_ids), dtype=bool)
        for k in range(m):
            touched_mass = float(touched_w[alive].sum())
            total = touched_mass + n_untouched * untouched_w
            u = float(rng.uniform(0.0, total))
            if u < touched_mass and alive.any():
                cum = np.cumsum(touched_w[alive])
                pos = int(np.searchsorted(cum, u, side="right"))
                pos = min(pos, cum.size - 1)
                idx = np.flatnonzero(alive)[pos]
                cid = int(touched_ids[idx])
                alive[idx] = False
            else:
                while True:
                    cid = int(rng.integers(0, n_clients))
                    if cid not in taken and cid not in self._touched:
                        break
                n_untouched -= 1
            taken.add(cid)
            out[k] = cid
        return out

    def observe(self, record: RoundRecord) -> None:
        if not self._primed:
            return
        accepted = set(record.accepted_ids)
        for cid in record.sampled_ids:
            outcome = 1.0 if cid in accepted else 0.0
            value = self._touched.get(cid, 1.0)
            self._touched[cid] = (
                self.decay * value + (1.0 - self.decay) * outcome
            )
