"""Property-based tests: schedules are invisible to federation histories.

The RG300 static rules prove the *shape* of the determinism contract —
total-order heap keys, canonical reassembly, unconditional RNG draws.
These properties exercise the contract itself: under the schedule
adversary (``REPRO_CHECK_SCHEDULES=1`` machinery) that shuffles event
heaps and permutes worker drain order, histories must stay bit-identical
to the unperturbed run — for same-timestamp tie storms (zero-latency
channel) and for realistic latency spreads alike.
"""

import heapq

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.contracts import (
    ScheduleAdversary,
    disable_schedule_adversary,
    enable_schedule_adversary,
)
from repro.attacks import no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg
from repro.fl import ProcessPoolBackend, build_federation

from .test_async_properties import normalized_bytes


# -- heap tie-break algebra -------------------------------------------------
_TIMES = st.lists(
    st.sampled_from([0.0, 0.1, 0.1, 0.5]), min_size=1, max_size=12
)


@given(times=_TIMES, seed=st.integers(min_value=0, max_value=2**16))
def test_shuffle_heap_preserves_pop_order_under_seq_tiebreak(times, seed):
    # The adversary's shuffle+heapify is semantics-preserving exactly
    # because every entry carries the (time, seq, ...) contract RG305
    # enforces: pop order is the total order, whatever the layout.
    entries = [(t, seq, "result", None) for seq, t in enumerate(times)]
    heap = []
    for entry in entries:
        heapq.heappush(heap, entry)
    ScheduleAdversary(seed=seed).shuffle_heap(heap)
    popped = [heapq.heappop(heap) for _ in range(len(heap))]
    assert popped == sorted(entries)


@given(times=_TIMES)
def test_reversed_push_order_of_ties_does_not_change_pop_order(times):
    entries = [(t, seq, "result", None) for seq, t in enumerate(times)]
    forward, backward = [], []
    for entry in entries:
        heapq.heappush(forward, entry)
    for entry in reversed(entries):
        heapq.heappush(backward, entry)
    assert [heapq.heappop(forward) for _ in range(len(forward))] == [
        heapq.heappop(backward) for _ in range(len(backward))
    ]


# -- federation-level invariance --------------------------------------------
def _async_history(adversary_seed=None, backend_cls=None, workers=1,
                   **overrides):
    base = dict(server_mode="async", buffer_size=4, rounds=2)
    base.update(overrides)
    config = FederationConfig.tiny(seed=0, **base)
    try:
        if adversary_seed is not None:
            enable_schedule_adversary(seed=adversary_seed)
        if backend_cls is None:
            return build_federation(config, FedAvg(), no_attack()).run()
        with backend_cls(max_workers=workers) as backend:
            server = build_federation(
                config, FedAvg(), no_attack(), backend=backend
            )
            return server.run()
    finally:
        disable_schedule_adversary()


def test_same_timestamp_tie_storm_survives_adversarial_order():
    # The in-memory channel delivers every update at the same simulated
    # instant: the event heap is one big tie pile. Shuffling it must not
    # move a single history byte.
    reference = normalized_bytes(_async_history())
    for seed in (1, 2):
        assert normalized_bytes(_async_history(adversary_seed=seed)) == reference


def test_latency_schedule_survives_adversarial_order():
    latency = dict(
        channel="latency", channel_latency_base_s=0.05,
        channel_latency_spread=0.6,
    )
    reference = normalized_bytes(_async_history(**latency))
    assert normalized_bytes(
        _async_history(adversary_seed=3, **latency)
    ) == reference


def test_permuted_worker_placement_is_invisible():
    # Worker count changes sticky placement (client_id mod workers) and
    # the adversary permutes drain order on top — histories must match
    # the sequential run bit for bit at every pool size.
    reference = normalized_bytes(_async_history())
    for workers in (2, 3):
        perturbed = _async_history(
            adversary_seed=5, backend_cls=ProcessPoolBackend, workers=workers
        )
        assert normalized_bytes(perturbed) == reference
