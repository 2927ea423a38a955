"""Strategy interface, weighted-average operator and mean-keep rule tests."""

import numpy as np
import pytest

from repro.fl import ClientUpdate, Strategy, weighted_average
from repro.fl.strategy import keep_at_mean


def update(cid, vec, n=10, malicious=False):
    return ClientUpdate(client_id=cid, weights=np.asarray(vec, dtype=float),
                        num_samples=n, malicious=malicious)


class TestWeightedAverage:
    def test_equal_weights_is_mean(self):
        updates = [update(0, [1.0, 2.0]), update(1, [3.0, 4.0])]
        np.testing.assert_allclose(weighted_average(updates), [2.0, 3.0])

    def test_sample_count_weighting(self):
        updates = [update(0, [0.0], n=1), update(1, [10.0], n=9)]
        np.testing.assert_allclose(weighted_average(updates), [9.0])

    def test_single_update_identity(self):
        np.testing.assert_allclose(weighted_average([update(0, [5.0, -1.0])]), [5.0, -1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_average([])

    def test_result_in_convex_hull(self, rng):
        updates = [update(i, rng.standard_normal(8), n=int(rng.integers(1, 20)))
                   for i in range(5)]
        avg = weighted_average(updates)
        matrix = np.stack([u.weights for u in updates])
        assert (avg >= matrix.min(axis=0) - 1e-12).all()
        assert (avg <= matrix.max(axis=0) + 1e-12).all()


class TestStrategyBase:
    def test_aggregate_abstract(self):
        with pytest.raises(NotImplementedError):
            Strategy().aggregate(1, [], np.zeros(2), None)

    def test_default_flags(self):
        s = Strategy()
        assert not s.needs_decoder
        assert not s.needs_auxiliary

    def test_setup_is_noop_by_default(self):
        Strategy().setup(None)  # must not raise


# (scores, accepted ids); every other id is rejected, in submission order.
KEEP_CASES = {
    # binary-exact scores with mean exactly 0.5: the boundary is kept
    "exact_mean_boundary": ([0.25, 0.5, 0.75], [1, 2]),
    "all_equal": ([0.5, 0.5, 0.5, 0.5], [0, 1, 2, 3]),
    "single_update": ([0.3], [0]),
    # one stellar update lifts the cutoff above the mediocre majority
    "outlier_lifts_cutoff": ([1.0, 0.3, 0.3, 0.3], [0]),
    # the mean 0.10000000000000002 rounds above every score: none reaches
    # it, so all are kept
    "rounded_mean_above_all": ([0.1, 0.1, 0.1], [0, 1, 2]),
    # a NaN mean compares false with every score: all are kept
    "nan_score": ([0.2, np.nan, 0.8], [0, 1, 2]),
}


def _updates(n):
    return [update(i, [float(i)]) for i in range(n)]


def _low_error_keep(errors):
    """The error-side rule: keep ``e <= e.mean()``, or all when none is."""
    keep = errors <= errors.mean()
    if not keep.any():
        keep[:] = True
    return keep


class TestKeepAtMean:
    @pytest.mark.parametrize("case", sorted(KEEP_CASES))
    def test_keep_rule(self, case):
        scores, kept = KEEP_CASES[case]
        updates = _updates(len(scores))
        accepted, rejected = keep_at_mean(updates, np.array(scores))
        assert [u.client_id for u in accepted] == kept
        assert rejected == [i for i in range(len(scores)) if i not in kept]
        assert all(a is updates[a.client_id] for a in accepted)

    def test_rounded_mean_really_exceeds_every_score(self):
        scores = np.array([0.1, 0.1, 0.1])
        assert (scores < scores.mean()).all()

    @pytest.mark.parametrize("kind", ["random", "tie_heavy", "all_equal"])
    def test_negated_errors_keep_exactly_the_low_errors(self, kind):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            if kind == "random":
                errors = rng.exponential(size=n)
            elif kind == "tie_heavy":
                errors = rng.choice([0.1, 0.2, 0.3, 1.0 / 3.0], size=n)
            else:
                errors = np.full(n, rng.choice([0.1, 0.7, 1.0 / 3.0, 2.2]))
            assert (-errors).mean().tobytes() == (-(errors.mean())).tobytes()
            updates = _updates(n)
            accepted, rejected = keep_at_mean(updates, -errors)
            expected = _low_error_keep(errors)
            assert [u.client_id for u in accepted] == np.flatnonzero(expected).tolist()
            assert rejected == np.flatnonzero(~expected).tolist()
