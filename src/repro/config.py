"""Experiment configuration.

:class:`FederationConfig` captures every knob of a federated run — the
paper's Section IV setup is expressed by :meth:`FederationConfig.paper_full`
(N=100, m=50, R=50, 28×28 images, Table II/III architectures) and a
laptop-sized equivalent by :meth:`FederationConfig.paper_scaled`, which the
tests and benchmarks use.

Both config classes serialize to/from plain dicts (:meth:`to_dict` /
:meth:`from_dict`) so persisted experiment results carry their exact
provenance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

__all__ = [
    "ModelConfig",
    "FederationConfig",
    "BACKEND_KINDS",
    "CHANNEL_KINDS",
    "SERVER_MODES",
    "ENGINE_KINDS",
    "PARTITION_SCHEMES",
    "CLIENT_OPTIMIZERS",
]

# The legal values of each option, written once: config validation, the
# CLI's choices and the factories that build each piece read these.
# Client execution backends (repro.fl.parallel.make_backend): in-process,
# or the worker-resident process pool.
BACKEND_KINDS = ("sequential", "process")
# Transport channels (repro.fl.transport.make_channel).
CHANNEL_KINDS = ("in_memory", "lossy", "latency")
# Round modes (repro.fl.modes.make_server_mode): barrier rounds or
# FedBuff-style buffered async.
SERVER_MODES = ("sync", "async")
# Local-training engines (repro.fl.batched.make_engine).
ENGINE_KINDS = ("loop", "batched")
# Data partition schemes (repro.data.partition.partition_indices).
PARTITION_SCHEMES = ("dirichlet", "iid", "pathological", "virtual")
# Client-side optimizers.
CLIENT_OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes for the classifier and the CVAE."""

    kind: str = "cnn"  # "cnn" | "mlp"
    image_size: int = 16
    cnn_channels: tuple[int, int] = (8, 16)
    cnn_hidden: int = 64
    cnn_kernel: int = 5
    mlp_hidden: int = 64
    num_classes: int = 10
    cvae_hidden: int = 96
    cvae_latent: int = 8

    @property
    def input_dim(self) -> int:
        return self.image_size * self.image_size

    @staticmethod
    def paper() -> "ModelConfig":
        """The exact Table II / Table III sizes."""
        return ModelConfig(
            kind="cnn", image_size=28, cnn_channels=(32, 64), cnn_hidden=512,
            cnn_kernel=5, num_classes=10, cvae_hidden=400, cvae_latent=20,
        )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable)."""
        data = asdict(self)
        data["cnn_channels"] = list(self.cnn_channels)
        return data

    @staticmethod
    def from_dict(data: dict) -> "ModelConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(ModelConfig)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown ModelConfig keys: {sorted(unknown)}")
        data = dict(data)
        if "cnn_channels" in data:
            data["cnn_channels"] = tuple(data["cnn_channels"])
        return ModelConfig(**data)


@dataclass(frozen=True)
class FederationConfig:
    """Full description of one federated experiment.

    Defaults mirror the scaled configuration; use :meth:`paper_full` for
    the exact Section IV values.
    """

    # federation topology (paper Section IV-A)
    n_clients: int = 20
    clients_per_round: int = 10
    rounds: int = 15

    # local training
    local_epochs: int = 5
    batch_size: int = 32
    client_lr: float = 0.08
    client_momentum: float = 0.9
    client_optimizer: str = "sgd"  # one of CLIENT_OPTIMIZERS
    proximal_mu: float = 0.0       # >0 enables the FedProx proximal term

    # CVAE training (FedGuard clients; paper: 30 epochs, trained once)
    cvae_epochs: int = 60
    cvae_lr: float = 1e-3
    cvae_batch_size: int = 32

    # FedGuard server-side synthesis: t = samples_per_client_factor * m
    samples_per_client_factor: int = 2
    server_lr: float = 1.0

    # data
    train_samples: int = 4800
    test_samples: int = 400
    partition_alpha: float = 10.0
    partition_scheme: str = "dirichlet"  # one of PARTITION_SCHEMES
    virtual_samples_per_client: int = 0  # "virtual" scheme draw count (0 = pool/n)

    # dynamic datasets (future work §VI-C; 0 = the paper's static setting)
    stream_samples_per_round: int = 0   # fresh samples per client per round
    stream_window: int = 0              # max retained samples (0 = unbounded)
    cvae_refresh_every: int = 0         # retrain the CVAE every k rounds (0 = once)

    # transport channel (repro.fl.transport; the paper's testbed is lossless)
    channel: str = "in_memory"          # one of CHANNEL_KINDS
    channel_drop_prob: float = 0.0      # lossy: per-message drop probability
    channel_latency_base_s: float = 0.0   # latency: fixed per-message seconds
    channel_bytes_per_s: float = 0.0      # latency: link bandwidth (0 = infinite)
    channel_latency_spread: float = 0.0   # latency: per-client slowdown (lognormal σ)

    # execution backend (repro.fl.parallel; a pure throughput knob — results
    # are identical across backends)
    backend: str = "sequential"         # one of BACKEND_KINDS
    backend_workers: int = 0            # worker processes (0 = cpu count)

    # local-training engine (repro.fl.batched; "batched" stacks all sampled
    # clients into one leading-axis pass — bit-identical results, fewer
    # Python-loop dispatches)
    engine: str = "loop"                # one of ENGINE_KINDS

    # round-level recovery (repro.fl.faults / server phases; every knob
    # defaults OFF so lossless runs stay byte-identical to the seed loop)
    retries: int = 0                    # re-send attempts after a failed broadcast/submit
    retry_backoff_s: float = 0.0        # simulated backoff before attempt k: b·2^(k-1)
    deadline_s: float = 0.0             # straggler deadline on simulated link time (0 = off)
    min_quorum: int = 0                 # skip the round below this many delivered updates
    checkpoint_every: int = 0           # checkpoint the federation every k rounds (0 = off)

    # server round mode (repro.fl.modes; "async" is FedBuff-style buffered
    # aggregation — each round flushes the first buffer_size arrivals with
    # staleness-discounted weights; "sync" keeps the paper's barrier round)
    server_mode: str = "sync"           # one of SERVER_MODES
    buffer_size: int = 0                # async: arrivals per flush (0 = clients_per_round)
    max_staleness: int = 0              # async: drop updates staler than this many flushes (0 = keep all)
    staleness_weight: str = "rsqrt"     # async discount: "rsqrt" 1/√(1+s) | "inverse" | "constant"
    async_concurrency: int = 0          # async: clients in flight at once (0 = clients_per_round)

    # models
    model: ModelConfig = field(default_factory=ModelConfig)

    # reproducibility
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients_per_round > self.n_clients:
            raise ValueError(
                f"clients_per_round ({self.clients_per_round}) exceeds "
                f"n_clients ({self.n_clients})"
            )
        if not 0.0 < self.server_lr <= 1.0:
            raise ValueError(f"server_lr must be in (0, 1], got {self.server_lr}")
        if not 0.0 <= self.client_momentum < 1.0:
            raise ValueError(
                f"client_momentum must be in [0, 1), got {self.client_momentum}"
            )
        for name in ("clients_per_round", "batch_size", "cvae_batch_size",
                     "samples_per_client_factor", "client_lr", "cvae_lr",
                     "train_samples", "test_samples", "partition_alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("rounds", "local_epochs", "proximal_mu", "cvae_epochs",
                     "stream_samples_per_round", "stream_window",
                     "cvae_refresh_every", "virtual_samples_per_client",
                     "channel_latency_base_s", "channel_bytes_per_s",
                     "channel_latency_spread", "backend_workers", "retries",
                     "retry_backoff_s", "deadline_s", "checkpoint_every",
                     "buffer_size", "max_staleness", "async_concurrency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.channel_drop_prob <= 1.0:
            raise ValueError(
                f"channel_drop_prob must be in [0, 1], got {self.channel_drop_prob}"
            )
        for label, value, known in (
            ("client_optimizer", self.client_optimizer, CLIENT_OPTIMIZERS),
            ("channel", self.channel, CHANNEL_KINDS),
            ("partition scheme", self.partition_scheme, PARTITION_SCHEMES),
            ("backend", self.backend, BACKEND_KINDS),
            ("engine", self.engine, ENGINE_KINDS),
            ("server mode", self.server_mode, SERVER_MODES),
        ):
            if value not in known:
                raise ValueError(f"unknown {label} {value!r}; expected one of {known}")
        if not 0 <= self.min_quorum <= self.clients_per_round:
            raise ValueError(
                f"min_quorum must be in [0, clients_per_round="
                f"{self.clients_per_round}], got {self.min_quorum}"
            )
        if self.buffer_size > self.n_clients:
            raise ValueError(
                f"buffer_size ({self.buffer_size}) exceeds n_clients "
                f"({self.n_clients}); a flush samples distinct clients"
            )
        if self.server_mode == "async" and self.min_quorum > (
            self.buffer_size or self.clients_per_round
        ):
            raise ValueError(
                f"min_quorum ({self.min_quorum}) exceeds buffer_size "
                f"({self.buffer_size}); an async flush aggregates at most "
                f"buffer_size updates, so every flush would fail its quorum"
            )
        if self.async_concurrency > self.n_clients:
            raise ValueError(
                f"async_concurrency ({self.async_concurrency}) exceeds "
                f"n_clients ({self.n_clients})"
            )
        if not self.staleness_weight or not isinstance(self.staleness_weight, str):
            raise ValueError(
                f"staleness_weight must be a non-empty registry key, "
                f"got {self.staleness_weight!r}"
            )

    @property
    def t_samples(self) -> int:
        """Synthetic validation samples per round (paper: t = 2·m = 100)."""
        return self.samples_per_client_factor * self.clients_per_round

    # -- canonical configurations ------------------------------------------
    @staticmethod
    def paper_full(seed: int = 0) -> "FederationConfig":
        """The paper's exact Section IV setup.

        100 clients, 50 per round, 50 rounds, 5 local epochs, CVAE trained
        30 epochs, Dirichlet(10) partition of the full dataset, Table II/III
        architectures. Running this takes hours on a CPU — it exists to
        document the target configuration and for byte-exact Table V
        accounting.
        """
        return FederationConfig(
            n_clients=100, clients_per_round=50, rounds=50,
            local_epochs=5, batch_size=32, client_lr=0.05,
            cvae_epochs=30, samples_per_client_factor=2, server_lr=1.0,
            train_samples=60_000, test_samples=10_000,
            partition_alpha=10.0, model=ModelConfig.paper(), seed=seed,
        )

    @staticmethod
    def paper_scaled(seed: int = 0, **overrides) -> "FederationConfig":
        """Laptop-scale setup preserving the paper's ratios.

        m/N = 1/2 (as in the paper), ~240 samples per client (paper: 600),
        t = 2·m, Dirichlet α=10, 5 local epochs. 16×16 SynthMNIST with a
        ~20 k-parameter CNN. CVAE epochs are raised to 60 so each client's
        generator reaches the synthesis quality the paper's 30 epochs ×
        600 MNIST samples provide (similar total step count).
        """
        cfg = FederationConfig(
            n_clients=20, clients_per_round=10, rounds=15,
            local_epochs=5, batch_size=32, client_lr=0.08,
            cvae_epochs=60, samples_per_client_factor=2, server_lr=1.0,
            train_samples=4800, test_samples=400,
            partition_alpha=10.0, model=ModelConfig(), seed=seed,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @staticmethod
    def tiny(seed: int = 0, **overrides) -> "FederationConfig":
        """Minimal configuration for unit tests (seconds, not minutes)."""
        cfg = FederationConfig(
            n_clients=6, clients_per_round=4, rounds=2,
            local_epochs=1, batch_size=16, client_lr=0.05,
            cvae_epochs=2, samples_per_client_factor=2, server_lr=1.0,
            train_samples=240, test_samples=60,
            partition_alpha=10.0,
            model=ModelConfig(kind="mlp", image_size=8, mlp_hidden=32,
                              cvae_hidden=24, cvae_latent=4),
            seed=seed,
        )
        return replace(cfg, **overrides) if overrides else cfg

    def replace(self, **overrides) -> "FederationConfig":
        """Functional update returning a new config."""
        return replace(self, **overrides)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable), model config nested."""
        data = asdict(self)
        data["model"] = self.model.to_dict()
        return data

    @staticmethod
    def from_dict(data: dict) -> "FederationConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(FederationConfig)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown FederationConfig keys: {sorted(unknown)}")
        data = dict(data)
        if "model" in data and isinstance(data["model"], dict):
            data["model"] = ModelConfig.from_dict(data["model"])
        return FederationConfig(**data)
