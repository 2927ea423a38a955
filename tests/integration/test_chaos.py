"""Chaos suite: every strategy under the canonical fault plan, twice.

The canonical plan stacks the three failure modes the recovery layer
handles — 30 % random submit drops, one worker crash mid-federation, and
a scripted straggler pushed past the deadline — on the worker-resident
process backend with retries, a straggler deadline, and a quorum floor
all enabled. Every registered strategy must complete all rounds, respect
the quorum contract, replay bit-identically on a second run of the same
plan and seed, and equal the same plan run on the sequential backend,
which has no worker to crash: losing a worker loses no client state.

These runs are minutes of CPU across the registry; the whole module is
marked ``chaos`` and runs in CI's full-suite job, not the tier-1 gate.
"""

import numpy as np
import pytest

from repro.attacks import AttackScenario
from repro.config import FederationConfig
from repro.experiments import STRATEGY_FACTORIES
from repro.experiments.scenarios import make_strategy
from repro.fl import (
    FaultPlan,
    FaultyChannel,
    ProcessPoolBackend,
    SequentialBackend,
    build_federation,
)
from repro.fl.transport import InMemoryChannel, LatencyChannel

pytestmark = pytest.mark.chaos

ROUNDS = 10
CRASH_ROUND = 4
STRAGGLER_ID = 2
MIN_QUORUM = 1


def canonical_plan() -> FaultPlan:
    return (
        FaultPlan(seed=11)
        .random_submit_drops(0.3)
        .crash_worker(0, round_idx=CRASH_ROUND)
        .delay_submit(10.0, client_id=STRAGGLER_ID)
    )


def _run(config, strategy_name: str, channel, pool: bool):
    """One chaos run on a two-worker pool, or sequentially; returns
    (history, respawns)."""
    backend = ProcessPoolBackend(max_workers=2) if pool else SequentialBackend()
    try:
        server = build_federation(
            config, make_strategy(strategy_name),
            AttackScenario.sign_flipping(0.5),
            backend=backend, channel=channel,
        )
        return server.run(), getattr(backend, "respawns", 0)
    finally:
        backend.close()


def run_under_chaos(strategy_name: str, pool: bool = True):
    config = FederationConfig.tiny(
        rounds=ROUNDS,
        retries=1,
        retry_backoff_s=0.1,
        deadline_s=5.0,
        min_quorum=MIN_QUORUM,
    )
    channel = FaultyChannel(InMemoryChannel(), canonical_plan())
    return _run(config, strategy_name, channel, pool)


def _comparable(history):
    return [
        (r.round_idx, r.accuracy, tuple(r.sampled_ids), tuple(r.accepted_ids),
         tuple(r.rejected_ids), r.submits_dropped,
         r.metrics.get("stragglers_dropped"), r.metrics.get("quorum_failed"))
        for r in history.rounds
    ]


@pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
def test_strategy_completes_and_replays_under_canonical_plan(strategy_name):
    first, respawns_a = run_under_chaos(strategy_name)
    second, respawns_b = run_under_chaos(strategy_name)

    # Completion: all rounds ran despite drops, the crash, and stragglers.
    assert len(first.rounds) == ROUNDS
    assert respawns_a == 1  # the scheduled crash was delivered and recovered

    for record in first.rounds:
        assert 0.0 <= record.accuracy <= 1.0
        # The scripted straggler (when selected and delivered) never
        # reaches aggregation: its simulated link time exceeds the deadline.
        assert STRAGGLER_ID not in record.sampled_ids
        # Quorum contract: either the round aggregated a pool at or above
        # the floor, or it was skipped and recorded as such.
        if record.metrics.get("quorum_failed"):
            assert record.accepted_ids == []
            assert record.metrics["quorum_delivered"] < MIN_QUORUM
        else:
            assert len(record.sampled_ids) >= MIN_QUORUM
        # Selection sanity on the shrunken pool: the strategy decided over
        # exactly what was delivered, never over phantom clients.
        decided = set(record.accepted_ids) | set(record.rejected_ids)
        assert decided <= set(record.sampled_ids)

    # Deterministic replay: same plan + same seed => identical history.
    assert _comparable(first) == _comparable(second)
    assert respawns_a == respawns_b
    # The crash costs nothing: the sequential run of the plan is the same.
    sequential, _ = run_under_chaos(strategy_name, pool=False)
    assert _comparable(first) == _comparable(sequential)


def test_chaos_run_differs_from_lossless_baseline():
    """The plan must actually bite: drops + stragglers show in the record."""
    history, _ = run_under_chaos("fedavg")
    total_submit_drops = sum(r.submits_dropped for r in history.rounds)
    total_stragglers = sum(
        r.metrics.get("stragglers_dropped", 0) for r in history.rounds
    )
    assert total_submit_drops > 0
    assert total_stragglers > 0


def test_fedguard_filters_on_shrunken_pools():
    """FedGuard's selection stays sane when drops thin the candidate pool."""
    history, _ = run_under_chaos("fedguard")
    for record in history.rounds:
        if record.metrics.get("quorum_failed"):
            continue
        # m_a accepted out of the delivered pool, never more than delivered.
        assert len(record.accepted_ids) <= len(record.sampled_ids)
        assert len(record.accepted_ids) >= 1
        # Weights stay finite through partial aggregation.
        assert np.isfinite(record.accuracy)


# -- the async tier ---------------------------------------------------------
# The same canonical failure stack, but over FedBuff-style buffered
# aggregation: drops re-arm dispatch slots instead of thinning a barrier
# cohort, the worker crash fires at a flush-window boundary, and the
# scripted 10 s submit delay turns client 2 into a straggler the deadline
# rejects. A second, *sub-deadline* delay on client 3 plus a buffer
# smaller than the viable population (3 of 5 — with 5 the flush would
# need every viable client, so nothing could ever stay in flight) makes
# its uploads land several model versions late: stragglers past
# ``max_staleness=1`` rather than past the deadline, so the stale-drop
# path runs for real, and everything must still replay bit-identically.
MAX_STALENESS = 1
BUFFER_SIZE = 3
SLOW_ID = 3  # scripted 4 s submit delay: under the deadline, past the bound


def async_plan() -> FaultPlan:
    return canonical_plan().delay_submit(4.0, client_id=SLOW_ID)


def run_under_async_chaos(strategy_name: str, pool: bool = True):
    config = FederationConfig.tiny(
        rounds=ROUNDS,
        retries=1,
        retry_backoff_s=0.1,
        deadline_s=5.0,
        min_quorum=MIN_QUORUM,
        server_mode="async",
        buffer_size=BUFFER_SIZE,
        max_staleness=MAX_STALENESS,
        channel="latency",  # config-level default; the explicit channel below wins
    )
    channel = FaultyChannel(
        LatencyChannel(base_s=0.05, spread=1.0, seed=23), async_plan()
    )
    return _run(config, strategy_name, channel, pool)


def _comparable_async(history):
    return [
        (*row, r.metrics["staleness_max"], r.metrics["stale_dropped"],
         r.metrics["model_version"])
        for row, r in zip(_comparable(history), history.rounds)
    ]


@pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
def test_strategy_survives_async_chaos_and_replays(strategy_name):
    first, respawns_a = run_under_async_chaos(strategy_name)
    second, respawns_b = run_under_async_chaos(strategy_name)

    # Completion: every flush window produced a record despite drops,
    # the crash, stragglers, and the staleness bound.
    assert len(first.rounds) == ROUNDS
    assert respawns_a == 1

    for record in first.rounds:
        assert 0.0 <= record.accuracy <= 1.0
        assert record.metrics["buffer_flush"] == 1
        # The scripted straggler's 10 s link time always exceeds the
        # deadline: it is dropped at dispatch, never buffered.
        assert STRAGGLER_ID not in record.sampled_ids
        # Whatever survived the staleness bound is what the strategy saw.
        if record.metrics.get("quorum_failed"):
            assert record.accepted_ids == []
            assert record.metrics["quorum_delivered"] < MIN_QUORUM
        decided = set(record.accepted_ids) | set(record.rejected_ids)
        assert decided <= set(record.sampled_ids)
        # Anything aggregated respected the staleness bound.
        assert record.metrics["staleness_max"] <= MAX_STALENESS

    # Deterministic replay: same plan + same seed => identical flushes,
    # staleness metrics included.
    assert _comparable_async(first) == _comparable_async(second)
    assert respawns_a == respawns_b
    sequential, _ = run_under_async_chaos(strategy_name, pool=False)
    assert _comparable_async(first) == _comparable_async(sequential)


def test_async_chaos_exercises_staleness_and_drops():
    """The async plan must bite: drops, stragglers, and stale rejections."""
    history, _ = run_under_async_chaos("fedavg")
    assert sum(r.submits_dropped for r in history.rounds) > 0
    assert sum(
        r.metrics.get("stragglers_dropped", 0) for r in history.rounds
    ) > 0
    assert sum(r.metrics["stale_dropped"] for r in history.rounds) > 0

    # The delivery summary accounts flushes as flushes — not idle rounds.
    summary = history.delivery_summary()
    assert summary["buffer_flushes"] == ROUNDS
    assert summary["idle_rounds"] == 0
    assert summary["stale_dropped"] > 0

    # Weights stay finite through partial, staleness-thinned aggregation.
    assert all(np.isfinite(r.accuracy) for r in history.rounds)
