"""Federated server: phased round orchestration over a transport channel.

Implements the ``Server`` function of the paper's Algorithm 1 (lines
14-20): initialize ψ₀, then per round sample m of the N clients, collect
(θ_j, ψ_j), hand them to the aggregation strategy, and blend the result
into the global model with the server learning rate of Fig. 5:

    ψ₀ ← ψ₀ + η_s · (aggregate(...) − ψ₀)          (η_s = 1 reduces to Alg. 1)

One round is an explicit pipeline of named phases operating on a shared
:class:`RoundContext`:

    select → broadcast → fit → collect → aggregate → apply → evaluate

``broadcast`` and ``collect`` route every message through the server's
:class:`~repro.fl.transport.Channel`, which decides delivery, assigns
latency, and owns all byte accounting (Table V's 4 bytes/param wire
format). With the default ``InMemoryChannel`` everything is delivered
instantly and the round is bit-identical to the pre-transport loop; a
``LossyChannel`` produces client dropout and partial rounds (including
rounds with zero delivered updates, which leave the global model
unchanged), and a ``LatencyChannel`` turns ``duration_s`` into the
simulated ``max_j(download_j + fit_j + upload_j) + aggregation`` of the
paper's parallel testbed. A server given no channel or backend builds
both from its config (``make_channel``/``make_backend``), as it builds its
round mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..config import FederationConfig
from ..data.dataset import Dataset
from .client import FLClient
from .history import History, RoundRecord
from .strategy import AggregationResult, ServerContext, Strategy
from .transport import BroadcastMessage, Channel, SubmitMessage
from .updates import ClientUpdate

__all__ = ["Server", "RoundContext"]


@dataclass
class RoundContext:
    """Mutable state threaded through one round's phases.

    A sync round runs all seven on one context; an async dispatch runs
    broadcast, fit and collect on a one-client context, and a flush runs
    aggregate, apply and evaluate on another.
    """

    round_idx: int
    participants: list[FLClient] = field(default_factory=list)
    broadcasts: list[BroadcastMessage] = field(default_factory=list)
    delivered_broadcasts: list[BroadcastMessage] = field(default_factory=list)
    submits: list[SubmitMessage] = field(default_factory=list)
    delivered_submits: list[SubmitMessage] = field(default_factory=list)
    updates: list[ClientUpdate] = field(default_factory=list)
    result: AggregationResult | None = None
    aggregation_time_s: float = 0.0
    incoming_global: np.ndarray | None = None
    accuracy: float = float("nan")
    extra_metrics: dict = field(default_factory=dict)
    # Recovery bookkeeping (zero/empty when the knobs are off, so the
    # record stays byte-identical to a knob-free run).
    retry_wait_s: float = 0.0       # simulated backoff time spent on retries
    late_submits: list[SubmitMessage] = field(default_factory=list)  # past the deadline


class Server:
    """Drives a federation of :class:`~repro.fl.client.FLClient` objects."""

    #: Phase order of one federated round; each name maps to a
    #: ``phase_<name>(ctx)`` method, so subclasses can override individual
    #: phases (e.g. a retrying broadcast) without re-writing the loop.
    PHASES = ("select", "broadcast", "fit", "collect", "aggregate", "apply",
              "evaluate")

    def __init__(
        self,
        clients: list[FLClient] | None = None,
        strategy: Strategy = None,
        config: FederationConfig = None,
        test_dataset: Dataset = None,
        context: ServerContext = None,
        rng: np.random.Generator = None,
        scenario_name: str = "no_attack",
        scenario=None,
        initial_weights: np.ndarray | None = None,
        flip_pairs: tuple[tuple[int, int], ...] | None = None,
        backend=None,
        sampler=None,
        channel: Channel | None = None,
        record_geometry: bool = False,
        population=None,
        mode=None,
    ) -> None:
        if population is None:
            if not clients:
                raise ValueError("server needs at least one client")
            from .population import EagerPopulation

            population = EagerPopulation(clients)
        elif clients is not None:
            raise ValueError("pass either clients or population, not both")
        if population.size == 0:
            raise ValueError("server needs at least one client")
        self.population = population
        self.strategy = strategy
        self.config = config
        self.test_dataset = test_dataset
        self.context = context
        self.rng = rng
        # The scenario object (when provided) travels into federation
        # checkpoints so a resume can rebuild clients with their attacks.
        self.scenario = scenario
        if scenario is not None and scenario_name == "no_attack":
            scenario_name = scenario.name
        self.scenario_name = scenario_name
        # When the scenario is a targeted label-flip, per-round records
        # also carry the attack success rate on the flipped pairs.
        self.flip_pairs = flip_pairs
        if backend is None:
            from .parallel import make_backend

            backend = make_backend(config)
        self.backend = backend
        if sampler is None:
            from .sampling import UniformSampler

            sampler = UniformSampler()
        self.sampler = sampler
        if channel is None:
            from .transport import make_channel

            channel = make_channel(config)
        self.channel = channel
        if mode is None:
            from .modes import make_server_mode

            mode = make_server_mode(config)
        self.mode = mode
        # Optional per-round update-space diagnostics (norm dispersion,
        # pairwise cosines) recorded into the round metrics.
        self.record_geometry = record_geometry

        self._eval_model = context.make_classifier()
        if initial_weights is not None:
            self.global_weights = np.asarray(initial_weights, dtype=np.float64).copy()
        else:
            self.global_weights = nn.parameters_to_vector(self._eval_model)
        self._setup_done = False

    # -- pieces ------------------------------------------------------------
    @property
    def backend(self):
        """The execution backend that fits this server's clients.

        Assigning one closes the outgoing backend and attaches the
        incoming one to the population. A pool swapped out and back in
        therefore restarts its workers from the population, the record of
        client state, instead of fitting the clients it cached before.
        """
        return self._backend

    @backend.setter
    def backend(self, backend) -> None:
        outgoing = getattr(self, "_backend", None)
        if outgoing is not None:
            outgoing.close()
        backend.attach(self.population)
        self._backend = backend

    @property
    def clients(self):
        """Sequence view over the population (lazy populations materialize
        clients on access; hold a reference if you need object identity)."""
        return self.population.clients_view()

    def sample_clients(self) -> list[FLClient]:
        """Sample m participating clients (Alg. 1, line 17).

        Uniform by default; a :class:`~repro.fl.sampling.ReputationSampler`
        biases selection toward clients with good audit history. The
        sampled ids are checked out of the population — for a lazy
        population that is the *only* point clients materialize.
        """
        ids = self.sampler.sample(
            self.population.size, self.config.clients_per_round, self.rng
        )
        return self.population.checkout(ids)

    def evaluate(self, weights: np.ndarray | None = None) -> float:
        """Global test accuracy of the (given or current) global model."""
        vec = self.global_weights if weights is None else weights
        nn.vector_to_parameters(vec, self._eval_model)
        preds = self._eval_model.predict(self.test_dataset.features)
        return float(np.mean(preds == self.test_dataset.labels))

    def evaluate_distributed(self, weights: np.ndarray | None = None) -> dict:
        """Federated evaluation: the global model on every client's local data.

        The paper evaluates centrally on a held-out test set; production FL
        systems often cannot and instead aggregate client-local accuracies.
        Returns the sample-weighted mean, the unweighted per-client
        accuracies, and the worst client — the fairness view a central test
        set hides (a client whose distribution the global model serves
        poorly is invisible in the central average).
        """
        vec = self.global_weights if weights is None else weights
        accuracies, sizes = [], []
        for client in self.population.iter_clients():
            accuracies.append(client.evaluate(vec))
            sizes.append(client.num_samples)
        accuracies = np.array(accuracies)
        sizes = np.array(sizes, dtype=np.float64)
        return {
            "weighted_accuracy": float(np.average(accuracies, weights=sizes)),
            "per_client": accuracies,
            "worst_client": int(np.argmin(accuracies)),
            "worst_accuracy": float(accuracies.min()),
        }

    # -- round phases ---------------------------------------------------------
    def _open_round(self, round_idx: int) -> None:
        """Open a sync round or an async flush window.

        Resets the channel's per-round accounting. When the channel
        carries a :class:`~repro.fl.faults.FaultPlan`, its scheduled
        worker crashes for this round fire here, before any fit is
        dispatched — the backend discovers the dead workers and respawns
        them, and the new workers build their clients from the population,
        which holds every fitted client's state, so nothing is lost.
        """
        self.channel.open_round(round_idx)
        fault_plan = getattr(self.channel, "fault_plan", None)
        if fault_plan is not None:
            from .faults import inject_worker_crashes

            inject_worker_crashes(fault_plan, self.backend, round_idx)

    def phase_select(self, ctx: RoundContext) -> None:
        """Choose this round's m participants (Alg. 1, line 17)."""
        ctx.participants = self.sample_clients()

    def _backoff_s(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (1-based): b·2^(attempt-1)."""
        return self.config.retry_backoff_s * (2 ** (attempt - 1))

    def phase_broadcast(self, ctx: RoundContext) -> None:
        """Send ψ* to every participant through the channel.

        A participant whose broadcast is dropped never hears from the
        server this round — it neither trains nor submits (dropout before
        training). With ``config.retries > 0`` the server re-sends only
        the failed broadcasts, up to ``retries`` extra attempts, adding a
        deterministic exponential backoff to the round's simulated clock.
        """
        include_decoder = self.strategy.needs_decoder
        ctx.broadcasts = [
            BroadcastMessage(
                round_idx=ctx.round_idx,
                client_id=client.client_id,
                weights=self.global_weights,
                include_decoder=include_decoder,
            )
            for client in ctx.participants
        ]
        ctx.delivered_broadcasts = self._deliver_with_retries(
            ctx, ctx.broadcasts, self.channel.broadcast
        )

    def _deliver_with_retries(self, ctx: RoundContext, messages, send):
        """Run the channel's send loop with bounded, backoff-priced retries.

        With ``retries == 0`` this is exactly one ``send(messages)`` call —
        the pre-recovery code path, bit-identical stats included.
        """
        delivered: dict[int, object] = {}
        pending = list(messages)
        for attempt in range(self.config.retries + 1):
            if not pending:
                break
            if attempt:
                ctx.retry_wait_s += self._backoff_s(attempt)
            for out in send(pending):
                delivered[out.client_id] = out
            pending = [m for m in pending if m.client_id not in delivered]
        # Original send order, which equals participants order.
        return [delivered[m.client_id] for m in messages if m.client_id in delivered]

    def phase_fit(self, ctx: RoundContext) -> None:
        """Run local training for every client that received the broadcast."""
        clients_by_id = {c.client_id: c for c in ctx.participants}
        ctx.submits = self.backend.execute(ctx.delivered_broadcasts, clients_by_id)

    def phase_collect(self, ctx: RoundContext) -> None:
        """Receive the submissions the channel delivers back.

        Retries mirror the broadcast direction. A ``config.deadline_s``
        then drops delivered submits whose *simulated* link time (download
        latency + upload latency + retry backoff) exceeded the deadline —
        stragglers, kept in ``ctx.late_submits`` apart from transport
        drops (an async slot re-arms when its straggler lands). The deadline
        deliberately ignores wall-clock fit time (``client_time_s``):
        round outcomes must be a pure function of the seed (RG007).
        """
        ctx.delivered_submits = self._deliver_with_retries(
            ctx, ctx.submits, self.channel.collect
        )
        deadline = self.config.deadline_s
        if deadline > 0.0:
            down = {m.client_id: m.latency_s for m in ctx.delivered_broadcasts}
            on_time = []
            for sub in ctx.delivered_submits:
                link_time = down.get(sub.client_id, 0.0) + sub.latency_s
                if link_time + ctx.retry_wait_s > deadline:
                    ctx.late_submits.append(sub)
                else:
                    on_time.append(sub)
            ctx.delivered_submits = on_time
        ctx.updates = [s.update for s in ctx.delivered_submits]

    def phase_aggregate(self, ctx: RoundContext) -> None:
        """Hand the delivered updates to the aggregation strategy.

        A round with zero delivered updates skips the strategy entirely
        and keeps the global model — real servers idle through an empty
        collection window rather than crash. With ``config.min_quorum``
        set, a round whose delivered pool is smaller than the quorum is
        skipped the same way (graceful degradation: holding last round's
        model beats aggregating over a pool too thin for the defense's
        statistics to mean anything).
        """
        t0 = time.perf_counter()
        min_quorum = self.config.min_quorum
        if ctx.updates and len(ctx.updates) >= min_quorum:
            ctx.result = self.strategy.aggregate(
                ctx.round_idx, ctx.updates, self.global_weights, self.context
            )
        else:
            metrics: dict = {}
            if not ctx.updates:
                metrics["empty_round"] = 1
            if min_quorum and len(ctx.updates) < min_quorum:
                metrics["quorum_failed"] = 1
                metrics["quorum_delivered"] = len(ctx.updates)
                metrics["quorum_required"] = min_quorum
            ctx.result = AggregationResult(
                weights=self.global_weights.copy(),
                accepted_ids=[],
                rejected_ids=[],
                metrics=metrics,
            )
        ctx.aggregation_time_s = time.perf_counter() - t0

    def phase_apply(self, ctx: RoundContext) -> None:
        """Blend the aggregate into the global model (Fig. 5 server lr)."""
        ctx.incoming_global = (
            self.global_weights.copy() if self.record_geometry else None
        )
        eta = self.config.server_lr
        self.global_weights += eta * (ctx.result.weights - self.global_weights)

    def phase_evaluate(self, ctx: RoundContext) -> None:
        """Measure global accuracy (and attack success) from one prediction."""
        nn.vector_to_parameters(self.global_weights, self._eval_model)
        preds = self._eval_model.predict(self.test_dataset.features)
        ctx.accuracy = float(np.mean(preds == self.test_dataset.labels))
        if self.flip_pairs is not None:
            from ..metrics import attack_success_rate

            ctx.extra_metrics["attack_success_rate"] = attack_success_rate(
                self.test_dataset.labels, preds, self.flip_pairs
            )
        if self.record_geometry and ctx.updates:
            from ..experiments.update_geometry import round_geometry

            # Deltas are measured against the round's *incoming* global
            # model, not the post-aggregation one.
            geometry = round_geometry(ctx.updates, ctx.incoming_global)
            ctx.extra_metrics.update(
                geometry_mean_cosine=geometry.mean_pairwise_cosine,
                geometry_min_cosine=geometry.min_pairwise_cosine,
                geometry_norm_dispersion=geometry.norm_dispersion,
                geometry_norm_outliers=geometry.outliers_by_norm().tolist(),
            )

    # -- the round loop ------------------------------------------------------
    def run_round(self, round_idx: int) -> RoundRecord:
        """Execute one round (sync) or flush window (async); returns its record.

        Control flow is delegated to the server's
        :class:`~repro.fl.modes.ServerMode`: the default
        ``SyncRoundMode`` runs every phase once over the full cohort
        (byte-identical to the pre-mode loop), an ``AsyncBufferedMode``
        drives the phases from a simulated-time event queue and flushes
        a buffer of arrivals per call. Either way, one call produces one
        :class:`~repro.fl.history.RoundRecord`.
        """
        if not self._setup_done:
            self.strategy.setup(self.context)
            self._setup_done = True
        return self.mode.run_round(self, round_idx)

    def _make_record(self, ctx: RoundContext, selected_ids: list[int],
                     duration_s: float, fit_times: list[float],
                     mode_metrics: dict) -> RoundRecord:
        """Fold a finished round (or flush) and its transport stats into a record.

        The metrics every mode shares are built here. ``fit_times`` covers
        every executed fit (work happens even when the submission is later
        dropped); ``duration_s`` and ``mode_metrics`` are what only the
        calling mode knows, the latter placed after the transport latency.
        """
        stats = self.channel.stats
        accepted = set(ctx.result.accepted_ids)
        malicious_ids = {u.client_id for u in ctx.updates if u.malicious}
        metrics = {
            "client_time_max_s": max(fit_times, default=0.0),
            "client_time_sum_s": sum(fit_times),
            "aggregation_time_s": ctx.aggregation_time_s,
            "transport_latency_max_s": stats.max_latency_s,
            **mode_metrics,
        }
        # Decoder-cache and recovery metrics appear only when their knobs
        # are on, keeping default-config records byte-identical (golden
        # histories).
        if getattr(self.channel, "decoder_cache_enabled", False):
            metrics["decoder_cache_hits"] = stats.decoder_cache_hits
            metrics["decoder_cache_saved_nbytes"] = stats.decoder_cache_saved_nbytes
        if self.config.retries > 0:
            metrics["retry_wait_s"] = ctx.retry_wait_s
        if self.config.deadline_s > 0.0:
            metrics["stragglers_dropped"] = len(ctx.late_submits)
        metrics.update(ctx.extra_metrics)
        metrics.update(ctx.result.metrics)
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
            metrics=metrics,
            selected_ids=selected_ids,
            broadcasts_dropped=stats.broadcasts_dropped,
            submits_dropped=stats.submits_dropped,
        )

    def run(
        self,
        rounds: int | None = None,
        verbose: bool = False,
        history: History | None = None,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
    ) -> History:
        """Run the configured number of rounds; returns the full history.

        Passing a partially filled ``history`` (e.g. from a restored
        checkpoint) continues from the round after its last record.
        With ``checkpoint_path`` set, the full federation state is
        checkpointed every ``checkpoint_every`` rounds (default:
        ``config.checkpoint_every``; 0 disables) — atomically, so a crash
        mid-write never corrupts the previous checkpoint.
        """
        total = rounds if rounds is not None else self.config.rounds
        if history is None:
            history = History(self.strategy.name, self.scenario_name)
        every = (
            self.config.checkpoint_every
            if checkpoint_every is None
            else checkpoint_every
        )
        start = (history.rounds[-1].round_idx if history.rounds else 0) + 1
        for round_idx in range(start, total + 1):
            record = self.run_round(round_idx)
            history.append(record)
            if verbose:
                print(
                    f"[{self.strategy.name} / {self.scenario_name}] "
                    f"round {round_idx:3d}: acc={record.accuracy:.4f} "
                    f"rejected={len(record.rejected_ids)}"
                )
            if every and checkpoint_path is not None and round_idx % every == 0:
                self.save_checkpoint(checkpoint_path, history)
        return history

    def save_checkpoint(self, path, history: History) -> None:
        """Snapshot the full federation state (atomically) to ``path``."""
        from ..experiments.storage import save_checkpoint
        from .simulation import federation_state

        save_checkpoint(federation_state(self, history), path)
