"""Deterministic, seed-driven fault injection for federated rounds.

The paper's testbed (Flower on GRID'5000) lives in a world where clients
drop out, links stall, and servers get preempted; the reproduction's
transport layer can *lose* messages (:class:`~repro.fl.transport.
LossyChannel`) but until now nothing could *script* a failure. This module
adds that layer:

* :class:`FaultPlan` — a scriptable schedule of faults ("drop client 7's
  submit in rounds 3–5", "crash worker 2 in round 10", "delay client 4's
  upload by 30 simulated seconds"), plus seeded probabilistic drops for
  chaos-style sweeps. Plans are plain data: pickling one (or re-building
  it from the same script) and replaying it against the same federation
  seed reproduces the run bit-identically.
* :class:`FaultyChannel` — a :class:`~repro.fl.transport.Channel` wrapper
  composable over *any* existing channel: the plan decides first (drop /
  delay), then the inner channel's own ``transmit_*`` hooks run, so a
  scripted drop composes with LossyChannel randomness and LatencyChannel
  link modeling. The wrapper owns the round's
  :class:`~repro.fl.transport.TransportStats`; the inner channel's
  accounting is bypassed entirely.
* :func:`inject_worker_crashes` — the glue the server calls when a sync
  round or an async flush opens, to deliver the plan's scheduled worker
  crashes to an execution backend (the process pool implements
  ``inject_worker_crash``; the sequential backend has no workers to kill
  and ignores the request).

Determinism contract: every fault decision derives from the plan's script
and its own seeded RNG — never from wall-clock time (lint rule RG007
enforces the same for all of ``fl/``). Two runs with the same plan, seed,
and federation config take identical drop/delay/crash decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import BroadcastMessage, Channel, SubmitMessage

__all__ = [
    "LinkFault",
    "WorkerCrash",
    "FaultPlan",
    "FaultyChannel",
    "inject_worker_crashes",
    "BROADCAST",
    "SUBMIT",
]

# Message directions a link fault can target.
BROADCAST = "broadcast"
SUBMIT = "submit"
_DIRECTIONS = (BROADCAST, SUBMIT)

# Derives the plan's probabilistic-drop RNG from its seed without touching
# any federation stream (same pattern as the transport channel tag).
_FAULT_STREAM_TAG = 0x0FA17B01


@dataclass(frozen=True)
class LinkFault:
    """One scripted link fault: drop or delay messages matching a filter.

    ``client_id=None`` matches every client, ``rounds=None`` every round.
    ``attempts`` limits a drop to the first n delivery attempts within a
    round — the knob that lets a retry loop eventually succeed ("the link
    was down, then recovered"). ``delay_s > 0`` turns the fault into a
    delay instead of a drop: the message is delivered with that much extra
    simulated latency (feeding the straggler-deadline path).
    """

    direction: str
    client_id: int | None = None
    rounds: frozenset[int] | None = None
    attempts: int | None = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.attempts is not None and self.attempts <= 0:
            raise ValueError(f"attempts must be positive, got {self.attempts}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches(
        self, direction: str, round_idx: int, client_id: int, attempt: int
    ) -> bool:
        if direction != self.direction:
            return False
        if self.client_id is not None and client_id != self.client_id:
            return False
        if self.rounds is not None and round_idx not in self.rounds:
            return False
        if self.attempts is not None and attempt > self.attempts:
            return False
        return True

    @property
    def is_drop(self) -> bool:
        return self.delay_s == 0.0


@dataclass(frozen=True)
class WorkerCrash:
    """Crash worker ``worker_idx`` at the start of round ``round_idx``'s fit."""

    worker_idx: int
    round_idx: int


def _round_set(rounds) -> frozenset[int] | None:
    """Normalize a rounds filter (int, iterable, range, None) to a frozenset."""
    if rounds is None:
        return None
    if isinstance(rounds, int):
        return frozenset((rounds,))
    return frozenset(int(r) for r in rounds)


class FaultPlan:
    """A deterministic schedule of link faults and worker crashes.

    Built with a fluent API so tests read like the failure story they
    script::

        plan = (FaultPlan(seed=7)
                .drop_submit(client_id=7, rounds=range(3, 6))
                .drop_broadcast(client_id=2, rounds=[4], attempts=1)
                .delay_submit(client_id=5, delay_s=30.0)
                .crash_worker(2, round_idx=10)
                .random_submit_drops(0.3))

    Probabilistic drops (``random_broadcast_drops`` /
    ``random_submit_drops``) use the plan's own seeded RNG stream (owned
    by the :class:`FaultyChannel` that executes the plan), so they are as
    repeatable as the scripted entries.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._drop_prob = {BROADCAST: 0.0, SUBMIT: 0.0}
        self.link_faults: list[LinkFault] = []
        self.worker_crashes: list[WorkerCrash] = []
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the O(1) dispatch indexes from the flat fault lists.

        Large federations send m messages per direction per round; a plan
        that scans every fault per message is O(m · faults). The indexes
        key link faults by ``(direction, client_id)`` (``None`` client in
        a wildcard bucket) and crashes by round, so each query touches
        only the faults that could possibly match.
        """
        self._faults_by_key: dict[tuple[str, int | None], list[LinkFault]] = {}
        for fault in self.link_faults:
            self._faults_by_key.setdefault(
                (fault.direction, fault.client_id), []
            ).append(fault)
        self._crashes_by_round: dict[int, list[int]] = {}
        for crash in self.worker_crashes:
            self._crashes_by_round.setdefault(
                crash.round_idx, []
            ).append(crash.worker_idx)

    def __getstate__(self) -> dict:
        # Plans are plain data: pickle the scripts, rebuild the indexes.
        state = self.__dict__.copy()
        state.pop("_faults_by_key", None)
        state.pop("_crashes_by_round", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reindex()

    # -- fluent builders -----------------------------------------------------
    def add(self, fault: LinkFault) -> "FaultPlan":
        self.link_faults.append(fault)
        self._faults_by_key.setdefault(
            (fault.direction, fault.client_id), []
        ).append(fault)
        return self

    def drop_broadcast(self, client_id=None, rounds=None, attempts=None) -> "FaultPlan":
        return self.add(LinkFault(BROADCAST, client_id, _round_set(rounds), attempts))

    def drop_submit(self, client_id=None, rounds=None, attempts=None) -> "FaultPlan":
        return self.add(LinkFault(SUBMIT, client_id, _round_set(rounds), attempts))

    def delay_broadcast(self, delay_s: float, client_id=None, rounds=None) -> "FaultPlan":
        return self.add(
            LinkFault(BROADCAST, client_id, _round_set(rounds), delay_s=delay_s)
        )

    def delay_submit(self, delay_s: float, client_id=None, rounds=None) -> "FaultPlan":
        return self.add(
            LinkFault(SUBMIT, client_id, _round_set(rounds), delay_s=delay_s)
        )

    def random_broadcast_drops(self, prob: float) -> "FaultPlan":
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self._drop_prob[BROADCAST] = prob
        return self

    def random_submit_drops(self, prob: float) -> "FaultPlan":
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        self._drop_prob[SUBMIT] = prob
        return self

    def crash_worker(self, worker_idx: int, round_idx: int) -> "FaultPlan":
        self.worker_crashes.append(WorkerCrash(worker_idx, round_idx))
        self._crashes_by_round.setdefault(round_idx, []).append(worker_idx)
        return self

    # -- queries (executed by FaultyChannel / the server's round opening) ---
    def drop_prob(self, direction: str) -> float:
        return self._drop_prob[direction]

    def _candidates(self, direction: str, client_id: int):
        yield from self._faults_by_key.get((direction, client_id), ())
        yield from self._faults_by_key.get((direction, None), ())

    def scripted_drop(
        self, direction: str, round_idx: int, client_id: int, attempt: int
    ) -> bool:
        return any(
            f.is_drop and f.matches(direction, round_idx, client_id, attempt)
            for f in self._candidates(direction, client_id)
        )

    def delay_s(self, direction: str, round_idx: int, client_id: int) -> float:
        # Delays apply regardless of attempt: a slow link is slow every time.
        return sum(
            f.delay_s
            for f in self._candidates(direction, client_id)
            if not f.is_drop and f.matches(direction, round_idx, client_id, 1)
        )

    def crashes(self, round_idx: int) -> list[int]:
        return list(self._crashes_by_round.get(round_idx, ()))


class FaultyChannel(Channel):
    """Execute a :class:`FaultPlan` on top of any inner channel.

    Decision order per transmission attempt:

    1. scripted drops (no randomness consumed);
    2. the plan's probabilistic drop for this direction (one RNG draw,
       only when the probability is non-zero, so purely scripted plans
       keep the stream untouched);
    3. the inner channel's own ``transmit_*`` hook (its drops and latency
       model still apply);
    4. scripted delays, added to whatever latency the inner channel set.

    Per-(direction, client) attempt counters reset each round; a server
    retry loop re-sending the same message bumps the counter, which is
    what ``LinkFault.attempts`` keys on.
    """

    name = "faulty"

    def __init__(self, inner: Channel, plan: FaultPlan) -> None:
        super().__init__()
        # The wrapper's template loops own all accounting; the inner
        # channel is consulted only through its transmit hooks.
        self.inner = inner
        self.fault_plan = plan
        self.rng = np.random.default_rng([_FAULT_STREAM_TAG, plan.seed])
        self._round = 0
        self._attempts: dict[tuple[str, int], int] = {}

    def open_round(self, round_idx: int) -> None:
        super().open_round(round_idx)
        self.inner.open_round(round_idx)
        self._round = round_idx
        self._attempts.clear()

    def _transmit(self, direction: str, client_id: int, message, inner_hook):
        key = (direction, client_id)
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        plan = self.fault_plan
        if plan.scripted_drop(direction, self._round, client_id, attempt):
            return None
        prob = plan.drop_prob(direction)
        if prob > 0.0 and self.rng.random() < prob:
            return None
        out = inner_hook(message)
        if out is None:
            return None
        out.latency_s += plan.delay_s(direction, self._round, client_id)
        return out

    def transmit_broadcast(self, message: BroadcastMessage) -> BroadcastMessage | None:
        return self._transmit(
            BROADCAST, message.client_id, message, self.inner.transmit_broadcast
        )

    def transmit_submit(self, message: SubmitMessage) -> SubmitMessage | None:
        return self._transmit(
            SUBMIT, message.client_id, message, self.inner.transmit_submit
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultyChannel(inner={self.inner!r})"


def inject_worker_crashes(plan: FaultPlan, backend, round_idx: int) -> int:
    """Deliver the plan's scheduled crashes for this round to the backend.

    Returns how many workers were actually killed. Backends without
    workers to crash (sequential) expose no ``inject_worker_crash`` hook
    and the request is a no-op — a fault plan stays portable across
    backends.
    """
    crash = getattr(backend, "inject_worker_crash", None)
    if crash is None:
        return 0
    killed = 0
    for worker_idx in plan.crashes(round_idx):
        if crash(worker_idx):
            killed += 1
    return killed
