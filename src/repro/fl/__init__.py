"""Federated-learning simulation layer (the paper's Algorithm 1 substrate)."""

from .client import FLClient, train_classifier, train_cvae
from .faults import (
    FaultPlan,
    FaultyChannel,
    LinkFault,
    WorkerCrash,
    inject_worker_crashes,
)
from .history import History, RoundRecord
from .modes import (
    STALENESS_WEIGHTS,
    AsyncBufferedMode,
    ServerMode,
    SyncRoundMode,
    make_server_mode,
)
from .parallel import (
    ExecutionBackend,
    IPCStats,
    ProcessPoolBackend,
    SequentialBackend,
    make_backend,
)
from .population import (
    ClientPopulation,
    CSRPartition,
    EagerPopulation,
    PackedStateStore,
    SeedParent,
    VirtualClientPopulation,
    VirtualPartition,
)
from .sampling import ClientSampler, ReputationSampler, UniformSampler, floyd_sample
from .server import RoundContext, Server
from .simulation import (
    build_federation,
    federation_state,
    restore_federation,
    run_federation,
)
from .strategy import AggregationResult, ServerContext, Strategy, weighted_average
from .transport import (
    BroadcastMessage,
    Channel,
    InMemoryChannel,
    LatencyChannel,
    LossyChannel,
    SubmitMessage,
    TransportStats,
    make_channel,
)
from .updates import ClientUpdate

__all__ = [
    "FLClient",
    "train_classifier",
    "train_cvae",
    "ClientUpdate",
    "Strategy",
    "ServerContext",
    "AggregationResult",
    "weighted_average",
    "Server",
    "RoundContext",
    "ServerMode",
    "SyncRoundMode",
    "AsyncBufferedMode",
    "STALENESS_WEIGHTS",
    "make_server_mode",
    "History",
    "RoundRecord",
    "build_federation",
    "run_federation",
    "federation_state",
    "restore_federation",
    "FaultPlan",
    "FaultyChannel",
    "LinkFault",
    "WorkerCrash",
    "inject_worker_crashes",
    "ExecutionBackend",
    "SequentialBackend",
    "ProcessPoolBackend",
    "IPCStats",
    "make_backend",
    "ClientSampler",
    "UniformSampler",
    "ReputationSampler",
    "floyd_sample",
    "ClientPopulation",
    "EagerPopulation",
    "VirtualClientPopulation",
    "CSRPartition",
    "VirtualPartition",
    "PackedStateStore",
    "SeedParent",
    "BroadcastMessage",
    "SubmitMessage",
    "Channel",
    "InMemoryChannel",
    "LossyChannel",
    "LatencyChannel",
    "TransportStats",
    "make_channel",
]
