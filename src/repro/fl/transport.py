"""Message-passing transport layer: wire messages and pluggable channels.

The paper *accounts* communication (4 bytes/parameter, Table V) but the
seed round loop never *modeled* it — every sampled client always received
the broadcast and every update always arrived. This module turns that
implicit assumption into an explicit seam:

* :class:`BroadcastMessage` / :class:`SubmitMessage` are the two typed
  wire messages of Algorithm 1 — the server → client global model ψ* and
  the client → server :class:`~repro.fl.updates.ClientUpdate` (ψ_j, plus
  θ_j for FedGuard). Their serialized size is computed here, and only
  here (lint rule RG006 forbids ``* WIRE_BYTES_PER_PARAM`` arithmetic
  anywhere else).
* :class:`Channel` decides which messages are delivered, annotates them
  with transmission latency, and owns the round's byte/count accounting
  (:class:`TransportStats`).

Three built-in channels:

* :class:`InMemoryChannel` — delivers everything instantly; with it a
  federation is bit-identical to the seed loop (golden-history test).
* :class:`LossyChannel` — drops each message independently with
  probability ``p``. A dropped broadcast is a client that never heard
  from the server this round (dropout before training); a dropped submit
  is a straggler whose finished update missed the collection deadline.
  Both produce the partial rounds that defenses deployed in real FL
  systems (and baselines like FedReview / GShield) must survive.
* :class:`LatencyChannel` — per-client link model (base latency +
  bytes/bandwidth, heterogeneous client speed factors). Its latencies
  feed the Table V timing simulation: the round duration becomes
  ``max_j(download_j + fit_j + upload_j) + aggregation`` instead of the
  wall-clock-only ``max fit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CHANNEL_KINDS
from ..nn.serialization import WIRE_BYTES_PER_PARAM
from .updates import ClientUpdate

__all__ = [
    "payload_nbytes",
    "broadcast_nbytes",
    "update_nbytes",
    "BroadcastMessage",
    "SubmitMessage",
    "TransportStats",
    "Channel",
    "InMemoryChannel",
    "LossyChannel",
    "LatencyChannel",
    "make_channel",
    "CHANNEL_KINDS",
]

# Derives the channel RNG from the federation seed without touching the
# root generator's spawn sequence (which the simulation seeding owns).
_CHANNEL_STREAM_TAG = 0x7C4A77E1


def payload_nbytes(n_params: int) -> int:
    """Wire size of ``n_params`` serialized parameters (float32 format)."""
    return int(n_params) * WIRE_BYTES_PER_PARAM


def broadcast_nbytes(global_weights: np.ndarray) -> int:
    """Wire size of one server → client global-model broadcast."""
    return payload_nbytes(np.asarray(global_weights).size)


def update_nbytes(update: ClientUpdate) -> int:
    """Wire size of one client → server submission (ψ_j plus optional θ_j)."""
    total = update.weights.size
    if update.decoder_weights is not None:
        total += update.decoder_weights.size
    return payload_nbytes(total)


@dataclass(eq=False)  # identity semantics: messages carry ndarrays
class BroadcastMessage:
    """Server → client: the round's global classifier vector ψ*."""

    round_idx: int
    client_id: int
    weights: np.ndarray
    include_decoder: bool = False
    latency_s: float = 0.0  # transmission latency assigned by the channel

    @property
    def nbytes(self) -> int:
        return broadcast_nbytes(self.weights)


@dataclass(eq=False)
class SubmitMessage:
    """Client → server: one :class:`ClientUpdate` plus its fit time."""

    round_idx: int
    update: ClientUpdate
    client_time_s: float = 0.0  # local compute (training) time
    latency_s: float = 0.0      # transmission latency assigned by the channel

    @property
    def client_id(self) -> int:
        return self.update.client_id

    @property
    def nbytes(self) -> int:
        return update_nbytes(self.update)


@dataclass
class TransportStats:
    """One round's delivery and byte accounting (reset per round)."""

    broadcasts_sent: int = 0
    broadcasts_delivered: int = 0
    submits_sent: int = 0
    submits_delivered: int = 0
    download_nbytes: int = 0  # server → client bytes actually delivered
    upload_nbytes: int = 0    # client → server bytes actually delivered
    max_latency_s: float = 0.0

    @property
    def broadcasts_dropped(self) -> int:
        return self.broadcasts_sent - self.broadcasts_delivered

    @property
    def submits_dropped(self) -> int:
        return self.submits_sent - self.submits_delivered


class Channel:
    """Base transport: template methods own all accounting; subclasses
    decide per-message delivery/latency via the ``transmit_*`` hooks.

    A hook returns the (possibly latency-annotated) message to deliver it,
    or ``None`` to drop it. The base implementation delivers everything
    with zero latency. Every submission carries its full payload: ψ_j,
    plus θ_j when the client ships a decoder (Table V's upload).
    """

    name: str = "channel"

    def __init__(self) -> None:
        self.stats = TransportStats()

    def open_round(self, round_idx: int) -> None:
        """Reset per-round accounting; called by the server each round."""
        self.stats = TransportStats()

    # -- server → clients ---------------------------------------------------
    def broadcast(self, messages: list[BroadcastMessage]) -> list[BroadcastMessage]:
        """Attempt delivery of every broadcast; returns the delivered subset."""
        delivered = []
        for message in messages:
            self.stats.broadcasts_sent += 1
            out = self.transmit_broadcast(message)
            if out is not None:
                self.stats.broadcasts_delivered += 1
                self.stats.download_nbytes += out.nbytes
                self.stats.max_latency_s = max(self.stats.max_latency_s, out.latency_s)
                delivered.append(out)
        return delivered

    # -- clients → server ---------------------------------------------------
    def collect(self, messages: list[SubmitMessage]) -> list[SubmitMessage]:
        """Attempt delivery of every submission; returns the delivered subset."""
        delivered = []
        for message in messages:
            self.stats.submits_sent += 1
            out = self.transmit_submit(message)
            if out is not None:
                self.stats.submits_delivered += 1
                self.stats.upload_nbytes += out.nbytes
                self.stats.max_latency_s = max(self.stats.max_latency_s, out.latency_s)
                delivered.append(out)
        return delivered

    # -- per-message hooks ----------------------------------------------------
    def transmit_broadcast(self, message: BroadcastMessage) -> BroadcastMessage | None:
        return message

    def transmit_submit(self, message: SubmitMessage) -> SubmitMessage | None:
        return message

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class InMemoryChannel(Channel):
    """The default: lossless, latency-free, bit-identical to the seed loop."""

    name = "in_memory"


class LossyChannel(Channel):
    """Drop each message independently with probability ``drop_prob``.

    The channel owns its RNG, built from ``seed`` (anything
    :func:`numpy.random.default_rng` takes), so network randomness never
    perturbs the federation's training streams: two runs differing only
    in ``drop_prob`` still sample identical data, clients, and attacks.
    """

    name = "lossy"

    def __init__(self, drop_prob: float, seed: int | list[int] = 0) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {drop_prob}")
        super().__init__()
        self.drop_prob = drop_prob
        self.rng = np.random.default_rng(seed)

    def _delivered(self) -> bool:
        return self.rng.random() >= self.drop_prob

    def transmit_broadcast(self, message: BroadcastMessage) -> BroadcastMessage | None:
        return message if self._delivered() else None

    def transmit_submit(self, message: SubmitMessage) -> SubmitMessage | None:
        return message if self._delivered() else None


class LatencyChannel(Channel):
    """Heterogeneous per-client link model feeding the timing simulation.

    Each message's latency is ``(base_s + nbytes / bytes_per_s) · speed_j``
    where ``speed_j`` is a per-client slowdown factor drawn once per
    client from ``LogNormal(0, spread)`` — a stable population of fast and
    slow links, the straggler structure real federations exhibit. The
    server folds these latencies into the simulated round duration. The
    factors come from the channel's own RNG, built from ``seed`` as in
    :class:`LossyChannel`.
    """

    name = "latency"

    def __init__(
        self,
        base_s: float = 0.05,
        bytes_per_s: float = 0.0,
        spread: float = 0.0,
        seed: int | list[int] = 0,
    ) -> None:
        if base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {base_s}")
        if bytes_per_s < 0:
            raise ValueError(f"bytes_per_s must be >= 0, got {bytes_per_s}")
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        super().__init__()
        self.base_s = base_s
        self.bytes_per_s = bytes_per_s
        self.spread = spread
        self.rng = np.random.default_rng(seed)
        self._speed: dict[int, float] = {}

    def client_speed(self, client_id: int) -> float:
        """The client's stable slowdown factor (drawn lazily, then fixed)."""
        if client_id not in self._speed:
            factor = (
                float(np.exp(self.rng.normal(0.0, self.spread)))
                if self.spread > 0
                else 1.0
            )
            self._speed[client_id] = factor
        return self._speed[client_id]

    def _latency(self, client_id: int, nbytes: int) -> float:
        transfer = nbytes / self.bytes_per_s if self.bytes_per_s > 0 else 0.0
        return (self.base_s + transfer) * self.client_speed(client_id)

    def transmit_broadcast(self, message: BroadcastMessage) -> BroadcastMessage:
        message.latency_s = self._latency(message.client_id, message.nbytes)
        return message

    def transmit_submit(self, message: SubmitMessage) -> SubmitMessage:
        message.latency_s = self._latency(message.client_id, message.nbytes)
        return message


def make_channel(config) -> Channel:
    """Build the channel a :class:`~repro.config.FederationConfig` asks for.

    Channel randomness derives from the federation seed through a
    dedicated tag, so it neither consumes from nor reorders the
    simulation's root RNG spawn sequence.
    """
    kind = config.channel
    seed = [_CHANNEL_STREAM_TAG, config.seed]
    if kind == "in_memory":
        return InMemoryChannel()
    if kind == "lossy":
        return LossyChannel(config.channel_drop_prob, seed=seed)
    if kind == "latency":
        return LatencyChannel(
            base_s=config.channel_latency_base_s,
            bytes_per_s=config.channel_bytes_per_s,
            spread=config.channel_latency_spread,
            seed=seed,
        )
    raise ValueError(f"unknown channel kind {kind!r}; known: {CHANNEL_KINDS}")
