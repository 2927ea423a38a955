"""Server round modes: barrier-synchronous rounds and FedBuff-style async.

The :class:`~repro.fl.server.Server` owns the *phases* of federated work
(select → broadcast → fit → collect → aggregate → apply → evaluate); a
:class:`ServerMode` owns the *control flow* that drives them:

* :class:`SyncRoundMode` — the paper's barrier round, verbatim: every
  phase runs once over the full cohort. Bit-identical to the
  pre-refactor ``Server.run_round`` (golden-history tests enforce it).
* :class:`AsyncBufferedMode` — FedBuff-style buffered aggregation: up to
  ``concurrency`` clients train concurrently against whatever ψ is
  current when they become available, and the server flushes the first
  ``buffer_size`` arrivals per call with staleness-discounted weights
  (``ψ̃_j = ψ + w(s_j)·(ψ_j − ψ)``, ``w`` pluggable via
  :data:`STALENESS_WEIGHTS`). Each flush re-runs the strategy's
  aggregation — FedGuard/PDGAN therefore recompute their audit filter
  per flush.

Arrival ordering is *entirely* simulated: events live on a seeded heap
keyed by simulated time (channel latencies, fault-plan delays, retry
backoff), never wall clock (RG007). Fit wall time is measured and
reported but deliberately excluded from event times, exactly as the sync
straggler deadline excludes it — event order must be a pure function of
the seed, on every backend and engine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis.contracts import schedule_adversary
from .history import RoundRecord
from .server import RoundContext
from .transport import BroadcastMessage, SubmitMessage

__all__ = [
    "ServerMode",
    "SyncRoundMode",
    "AsyncBufferedMode",
    "STALENESS_WEIGHTS",
    "SERVER_MODES",
    "make_server_mode",
]

# Derives the async event stream from the federation seed without touching
# the root generator's spawn sequence (same pattern as the channel tag).
_ASYNC_STREAM_TAG = 0x0A57C4B1

SERVER_MODES = ("sync", "async")

# Event kinds on the simulated-time heap. An AVAILABLE event is a free
# training slot asking for a dispatch; an ARRIVAL carries a delivered
# submission into the buffer.
_AVAILABLE = 0
_ARRIVAL = 1

# A window stops dispatching after this many sends per flush target — the
# escape hatch that turns a fully-lossy channel (every dispatch dropped,
# re-armed at the same simulated instant) into a partial/empty flush
# instead of an unbounded loop.
_DISPATCH_BUDGET_FACTOR = 8

# Rejection-sampling attempts per free slot before it parks until the
# next flush (a heavily biased sampler may keep proposing busy clients).
_PICK_ATTEMPTS = 64


def _weight_rsqrt(staleness: int) -> float:
    return 1.0 / math.sqrt(1.0 + staleness)


def _weight_inverse(staleness: int) -> float:
    return 1.0 / (1.0 + staleness)


def _weight_constant(staleness: int) -> float:
    return 1.0


#: Pluggable staleness-discount registry: name -> f(staleness) ∈ (0, 1]
#: with f(0) == 1 (a fresh update aggregates undiscounted). Register new
#: schedules by inserting here; ``--staleness-weight`` exposes the keys.
STALENESS_WEIGHTS = {
    "rsqrt": _weight_rsqrt,
    "inverse": _weight_inverse,
    "constant": _weight_constant,
}


@dataclass
class _Arrival:
    """One delivered submission waiting in (or travelling toward) the buffer."""

    client_id: int
    submit: SubmitMessage
    dispatch_version: int   # model version the client trained against
    dispatch_time: float    # simulated time the broadcast went out


@dataclass
class _Window:
    """Transient bookkeeping for one flush window (never checkpointed)."""

    start_time: float
    dispatched_ids: list[int] = field(default_factory=list)
    fit_times: list[float] = field(default_factory=list)
    retry_wait_s: float = 0.0
    stragglers_dropped: int = 0
    dispatches: int = 0


class ServerMode:
    """Control-flow strategy driving the server's phase seam.

    ``run_round`` produces exactly one :class:`RoundRecord` per call so
    ``Server.run``'s loop, checkpoint cadence, and history handling stay
    mode-agnostic. ``state_dict``/``load_state_dict`` carry whatever
    evolving state the mode holds between rounds (the async event queue
    and buffer); the sync mode is stateless.
    """

    name = "mode"

    def run_round(self, server, round_idx: int) -> RoundRecord:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Evolving mode state for the federation checkpoint (may be empty)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; the stateless base ignores it."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class SyncRoundMode(ServerMode):
    """The paper's barrier round: every phase once over the full cohort.

    This is the pre-refactor ``Server.run_round`` body verbatim — phases
    dispatch through ``getattr(server, f"phase_{name}")`` so subclasses
    overriding individual phases keep working, and the golden histories
    stay byte-identical.
    """

    name = "sync"

    def run_round(self, server, round_idx: int) -> RoundRecord:
        server.channel.open_round(round_idx)
        ctx = RoundContext(round_idx=round_idx)
        for phase in server.PHASES:
            getattr(server, f"phase_{phase}")(ctx)

        record = server._make_record(ctx)
        server.sampler.observe(record)
        # Lazy populations absorb the participants' post-round state into
        # packed arrays here; the materialized objects then evaporate.
        server.population.checkin(ctx.participants)
        return record


class AsyncBufferedMode(ServerMode):
    """FedBuff-style buffered-asynchronous aggregation.

    Per ``run_round`` call (= one buffer flush), a simulated-time event
    loop keeps up to ``concurrency`` clients in flight: a free slot
    samples one client (excluding clients already in flight or buffered),
    broadcasts the *current* ψ, trains immediately, and schedules the
    submission's arrival at ``dispatch_time + link_time`` (channel
    latencies + fault delays + retry backoff). The first ``buffer_size``
    arrivals are flushed through the ordinary aggregate/apply/evaluate
    phases with staleness-discounted update weights; later arrivals stay
    queued — with their dispatch-time model version — for future flushes,
    which is exactly the in-flight state checkpoint v2 covers.

    Composition with the recovery knobs: dropped broadcasts/submits
    re-arm the slot (the client redials), ``retries`` re-send with
    backoff priced into the arrival time, ``deadline_s`` drops arrivals
    whose link time exceeds it (stragglers), ``min_quorum`` skips a flush
    whose post-staleness pool is too thin, and ``max_staleness`` drops
    updates trained against a ψ more than that many flushes old.
    """

    name = "async"

    def __init__(
        self,
        buffer_size: int = 0,
        max_staleness: int = 0,
        staleness_weight: str = "rsqrt",
        concurrency: int = 0,
        seed: int = 0,
    ) -> None:
        if staleness_weight not in STALENESS_WEIGHTS:
            raise ValueError(
                f"unknown staleness weight {staleness_weight!r}; "
                f"known: {sorted(STALENESS_WEIGHTS)}"
            )
        if buffer_size < 0:
            raise ValueError(f"buffer_size must be >= 0, got {buffer_size}")
        if max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
        if concurrency < 0:
            raise ValueError(f"concurrency must be >= 0, got {concurrency}")
        self.buffer_size = buffer_size
        self.max_staleness = max_staleness
        self.staleness_weight = staleness_weight
        self.concurrency = concurrency
        self._weight_fn = STALENESS_WEIGHTS[staleness_weight]
        self._rng = np.random.default_rng([_ASYNC_STREAM_TAG, seed])
        self.sim_time = 0.0
        self.model_version = 0
        self._seq = 0
        self._events: list[tuple] = []   # heap of (time, seq, kind, payload)
        self._buffer: list[_Arrival] = []
        self._in_flight: set[int] = set()
        # Resolved once: None unless REPRO_CHECK_SCHEDULES=1 (or a test
        # armed it), so the hot path pays a single attribute check.
        self._schedule_adversary = schedule_adversary()

    # -- event queue --------------------------------------------------------
    def _push(self, at_time: float, kind: int, payload) -> None:
        """Schedule one event under the total-order tie-break contract.

        Every entry is ``(time, seq, kind, payload)`` — RG305's audited
        key layout. ``seq`` is unique per push, so no two entries ever
        compare equal and comparison never falls through to ``kind`` or
        the (unorderable) payload: pop order is a pure function of the
        keys, independent of heap internals, insertion order, or object
        identity. The schedule adversary exploits exactly that — it may
        scramble the heap's array layout at will and the pop sequence
        (hence history bytes) must not move.
        """
        heapq.heappush(self._events, (at_time, self._seq, kind, payload))
        self._seq += 1
        if self._schedule_adversary is not None:
            self._schedule_adversary.shuffle_heap(self._events)

    def _effective(self, server) -> tuple[int, int]:
        """(buffer_size, concurrency) with 0-defaults and population caps."""
        cohort = server.config.clients_per_round if server.config else 1
        size = server.population.size
        m = min(self.buffer_size or cohort, size)
        concurrency = min(self.concurrency or cohort, size)
        return m, concurrency

    def _pick_client(self, server) -> int | None:
        """Sample one client not currently in flight or awaiting a flush.

        Excluding buffered clients keeps each flush's contributions
        distinct (the sampling-without-replacement property every
        aggregation strategy's statistics assume). Draws come from the
        mode's dedicated stream, so async scheduling never perturbs the
        server's own RNG.
        """
        busy = self._in_flight.union(a.client_id for a in self._buffer)
        if len(busy) >= server.population.size:
            return None
        for _ in range(_PICK_ATTEMPTS):
            # Rejection sampling against the busy set IS schedule-shaped,
            # by design — but it consumes the mode's *dedicated* stream
            # (never the server's), and the busy set is itself a pure
            # function of the seed, so replays stay bit-identical.
            cid = int(
                server.sampler.sample(server.population.size, 1, self._rng)[0]  # repro: noqa[RG303]
            )
            if cid not in busy:
                return cid
        return None

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, server, window: _Window, client_id: int,
                  round_idx: int) -> None:
        """Broadcast-train-collect one client; schedule arrival or re-arm.

        Training runs eagerly at dispatch (the update is a pure function
        of ψ and the client's state, so computing it now or at simulated
        arrival time is equivalent); only the *arrival* is deferred on
        the event heap, at dispatch_time + simulated link time.
        """
        window.dispatches += 1
        window.dispatched_ids.append(client_id)
        self._in_flight.add(client_id)
        checked_out = server.population.checkout([client_id])
        dctx = RoundContext(round_idx=round_idx)
        message = BroadcastMessage(
            round_idx=round_idx,
            client_id=client_id,
            weights=server.global_weights,
            include_decoder=server.strategy.needs_decoder,
        )
        delivered = server._deliver_with_retries(
            dctx, [message], server.channel.broadcast
        )
        if not delivered:
            server.population.checkin(checked_out)
            window.retry_wait_s += dctx.retry_wait_s
            self._in_flight.discard(client_id)
            self._push(self.sim_time + dctx.retry_wait_s, _AVAILABLE, None)
            return

        submits = server.backend.execute(
            delivered, {client_id: checked_out[0]}
        )
        delivered_submits = server._deliver_with_retries(
            dctx, submits, server.channel.collect
        )
        server.population.checkin(checked_out)
        window.retry_wait_s += dctx.retry_wait_s
        window.fit_times.extend(s.client_time_s for s in submits)
        down_s = delivered[0].latency_s
        if not delivered_submits:
            self._in_flight.discard(client_id)
            self._push(
                self.sim_time + dctx.retry_wait_s + down_s, _AVAILABLE, None
            )
            return

        submit = delivered_submits[0]
        link_s = down_s + submit.latency_s + dctx.retry_wait_s
        deadline = server.config.deadline_s
        if deadline > 0.0 and link_s > deadline:
            window.stragglers_dropped += 1
            self._in_flight.discard(client_id)
            self._push(self.sim_time + link_s, _AVAILABLE, None)
            return

        self._push(
            self.sim_time + link_s,
            _ARRIVAL,
            _Arrival(
                client_id=client_id,
                submit=submit,
                dispatch_version=self.model_version,
                dispatch_time=self.sim_time,
            ),
        )

    # -- the flush window ---------------------------------------------------
    def run_round(self, server, round_idx: int) -> RoundRecord:
        buffer_size, concurrency = self._effective(server)
        server.channel.open_round(round_idx)
        fault_plan = getattr(server.channel, "fault_plan", None)
        if fault_plan is not None:
            from .faults import inject_worker_crashes

            inject_worker_crashes(fault_plan, server.backend, round_idx)

        window = _Window(start_time=self.sim_time)
        budget = _DISPATCH_BUDGET_FACTOR * max(buffer_size, concurrency)
        armed = sum(1 for e in self._events if e[2] == _AVAILABLE)
        for _ in range(max(0, concurrency - len(self._in_flight) - armed)):
            self._push(self.sim_time, _AVAILABLE, None)

        while len(self._buffer) < buffer_size and self._events:
            at_time, _, kind, payload = heapq.heappop(self._events)
            self.sim_time = max(self.sim_time, at_time)
            if kind == _AVAILABLE:
                if window.dispatches >= budget:
                    continue  # budget spent: the slot parks until next flush
                client_id = self._pick_client(server)
                if client_id is None:
                    continue  # no free client: parks the same way
                self._dispatch(server, window, client_id, round_idx)
            else:
                self._in_flight.discard(payload.client_id)
                self._buffer.append(payload)
                self._push(self.sim_time, _AVAILABLE, None)

        record = self._flush(server, window, round_idx)
        server.sampler.observe(record)
        return record

    def _discounted(self, server, kept: list[_Arrival],
                    weights: np.ndarray) -> list:
        """Staleness-discounted copies of the kept updates (vectorized).

        ``ψ̃_j = ψ + w_j·(ψ_j − ψ)`` — applied *before* the strategy sees
        the pool, so selective defenses audit exactly what would be
        aggregated. Fresh updates (w == 1) pass through untouched: the
        float round-trip of an identity blend is not bit-free.
        """
        if not kept:
            return []
        fresh = weights >= 1.0
        if bool(np.all(fresh)):
            return [a.submit.update for a in kept]
        psi = server.global_weights
        stacked = np.stack([a.submit.update.weights for a in kept])
        blended = psi[None, :] + weights[:, None] * (stacked - psi[None, :])
        out = []
        for arrival, is_fresh, row in zip(kept, fresh, blended):
            update = arrival.submit.update
            out.append(update if is_fresh else replace(update, weights=row))
        return out

    def _flush(self, server, window: _Window, round_idx: int) -> RoundRecord:
        arrivals, self._buffer = self._buffer, []
        flush_version = self.model_version
        kept, stale_dropped = [], 0
        for arrival in arrivals:
            staleness = flush_version - arrival.dispatch_version
            if self.max_staleness and staleness > self.max_staleness:
                stale_dropped += 1
            else:
                kept.append(arrival)
        staleness = np.array(
            [flush_version - a.dispatch_version for a in kept],
            dtype=np.float64,
        )
        discount = np.array(
            [self._weight_fn(int(s)) for s in staleness], dtype=np.float64
        )

        ctx = RoundContext(round_idx=round_idx)
        ctx.retry_wait_s = window.retry_wait_s
        ctx.stragglers_dropped = window.stragglers_dropped
        ctx.updates = self._discounted(server, kept, discount)
        server.phase_aggregate(ctx)
        server.phase_apply(ctx)
        server.phase_evaluate(ctx)
        self.model_version += 1
        return self._make_flush_record(
            server, ctx, window, staleness, stale_dropped
        )

    def _make_flush_record(self, server, ctx: RoundContext, window: _Window,
                           staleness: np.ndarray,
                           stale_dropped: int) -> RoundRecord:
        stats = server.channel.stats
        accepted = set(ctx.result.accepted_ids)
        malicious_ids = {u.client_id for u in ctx.updates if u.malicious}

        # The flush duration is *purely* simulated — the window's span on
        # the event clock — so simulated-time-to-accuracy benchmarks are
        # a pure function of the seed on every backend.
        duration_s = self.sim_time - window.start_time

        recovery_metrics: dict = {}
        if server.config.retries > 0:
            recovery_metrics["retry_wait_s"] = window.retry_wait_s
        if server.config.deadline_s > 0.0:
            recovery_metrics["stragglers_dropped"] = window.stragglers_dropped
        cache_metrics = (
            {
                "decoder_cache_hits": stats.decoder_cache_hits,
                "decoder_cache_saved_nbytes": stats.decoder_cache_saved_nbytes,
            }
            if getattr(server.channel, "decoder_cache_enabled", False)
            else {}
        )

        return RoundRecord(
            round_idx=ctx.round_idx,
            accuracy=ctx.accuracy,
            sampled_ids=[u.client_id for u in ctx.updates],
            accepted_ids=sorted(accepted),
            rejected_ids=sorted(ctx.result.rejected_ids),
            malicious_sampled=len(malicious_ids),
            malicious_accepted=len(accepted & malicious_ids),
            upload_nbytes=stats.upload_nbytes,
            download_nbytes=stats.download_nbytes,
            duration_s=duration_s,
            metrics={
                "buffer_flush": 1,
                "model_version": self.model_version,
                "staleness_mean": (
                    float(staleness.mean()) if staleness.size else 0.0
                ),
                "staleness_max": (
                    float(staleness.max()) if staleness.size else 0.0
                ),
                "stale_dropped": stale_dropped,
                "client_time_max_s": (
                    max(window.fit_times) if window.fit_times else 0.0
                ),
                "client_time_sum_s": sum(window.fit_times),
                "aggregation_time_s": ctx.aggregation_time_s,
                "transport_latency_max_s": stats.max_latency_s,
                "sim_time_s": self.sim_time,
                **cache_metrics,
                **recovery_metrics,
                **ctx.extra_metrics,
                **ctx.result.metrics,
            },
            selected_ids=list(window.dispatched_ids),
            broadcasts_dropped=stats.broadcasts_dropped,
            submits_dropped=stats.submits_dropped,
        )

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Evolving async state: the event heap *is* the in-flight work."""
        return {
            "sim_time": self.sim_time,
            "model_version": self.model_version,
            "seq": self._seq,
            "events": list(self._events),
            "buffer": list(self._buffer),
            "in_flight": sorted(self._in_flight),
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        self.sim_time = state["sim_time"]
        self.model_version = state["model_version"]
        self._seq = state["seq"]
        self._events = list(state["events"])
        heapq.heapify(self._events)
        self._buffer = list(state["buffer"])
        self._in_flight = set(state["in_flight"])
        self._rng.bit_generator.state = state["rng"]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AsyncBufferedMode(buffer_size={self.buffer_size}, "
            f"max_staleness={self.max_staleness}, "
            f"staleness_weight={self.staleness_weight!r})"
        )


def make_server_mode(config) -> ServerMode:
    """Build the round mode a :class:`~repro.config.FederationConfig` asks for."""
    kind = getattr(config, "server_mode", "sync")
    if kind == "sync":
        return SyncRoundMode()
    if kind == "async":
        return AsyncBufferedMode(
            buffer_size=config.buffer_size,
            max_staleness=config.max_staleness,
            staleness_weight=config.staleness_weight,
            concurrency=config.async_concurrency,
            seed=config.seed,
        )
    raise ValueError(
        f"unknown server mode {kind!r}; known: {SERVER_MODES}"
    )
