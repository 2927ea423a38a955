"""End-to-end federation assembly (the ``Federation`` procedure of Alg. 1).

:func:`build_federation` wires everything together deterministically from a
single seed: generate the SynthMNIST train/test split, Dirichlet-partition
the training data over N clients, designate malicious clients per the
attack scenario, construct clients with independent RNG sub-streams, and
return a ready-to-run :class:`~repro.fl.server.Server`.

Seeding discipline: one root generator is spawned into independent streams
for (data, partition, malicious designation, per-client training, server
sampling, strategy/synthesis). Two runs with the same config and strategy
therefore sample identical federations; runs that differ only in strategy
see identical data and attacks — the controlled-comparison property the
paper's Fig. 4 relies on.
"""

from __future__ import annotations

import numpy as np

from ..attacks.scenario import AttackScenario, no_attack
from ..config import FederationConfig
from ..data import SynthMnistConfig, generate_dataset, partition_indices
from ..models import build_classifier, build_decoder
from .population import (
    CSRPartition,
    SeedParent,
    VirtualClientPopulation,
    VirtualPartition,
)
from .server import Server
from .strategy import ServerContext, Strategy

__all__ = [
    "build_federation",
    "run_federation",
    "federation_state",
    "restore_federation",
]

# Checkpoint payload schema version (see ``federation_state``); bumped on
# any incompatible change so ``restore_federation`` can refuse clearly.
# v2 added the server-mode state (the async event queue / buffer); v3
# dropped the ``population`` key from the stored config; v4 dropped its
# state-store and worker-residency-cap keys; v5 dropped its
# ``decoder_cache`` key, the channel's decoder wire cache and the clients'
# ``rounds_fit`` counter; v6 dropped the clients' ``cvae_loss``. Only the
# current version restores.
CHECKPOINT_VERSION = 6

# Auxiliary-dataset size granted to defenses that assume public data
# (Spectral). Kept small relative to the training set — the paper's
# point is that FedGuard needs none of it.
AUX_FRACTION = 0.05


def _replay_factory(build, model_config, template_rng: np.random.Generator):
    """A model factory whose initialization is call-count-invariant.

    The naive ``lambda: build(cfg, rng)`` closes over one mutating stream,
    so the k-th shell's initialization depends on how many times *any*
    strategy called the factory before — a hidden coupling between
    strategies and results. Instead the template generator's state is
    snapshotted once and replayed per call: every shell initializes
    identically, no matter how often or in what order factories are used.
    """
    bit_generator_cls = type(template_rng.bit_generator)
    state = template_rng.bit_generator.state

    def make():
        rng = np.random.Generator(bit_generator_cls())
        rng.bit_generator.state = state
        return build(model_config, rng)

    return make


def build_federation(
    config: FederationConfig,
    strategy: Strategy,
    scenario: AttackScenario | None = None,
    initial_weights: np.ndarray | None = None,
    backend=None,
    sampler=None,
    channel=None,
    record_geometry: bool = False,
) -> Server:
    """Construct a deterministic federation ready for :meth:`Server.run`."""
    scenario = scenario if scenario is not None else no_attack()
    root = np.random.default_rng(config.seed)
    (
        data_rng,
        partition_rng,
        malicious_rng,
        clients_rng,
        server_rng,
        context_rng,
        init_rng,
    ) = root.spawn(7)

    synth_cfg = SynthMnistConfig(image_size=config.model.image_size)
    train = generate_dataset(config.train_samples, data_rng, synth_cfg)
    test = generate_dataset(config.test_samples, data_rng, synth_cfg)

    n_aux = max(int(config.train_samples * AUX_FRACTION), 32)
    auxiliary = generate_dataset(n_aux, data_rng, synth_cfg) if strategy.needs_auxiliary else None

    # No per-client objects, spawns, or subsets are built here: clients
    # materialize on sampling from index-derived seeds.
    if config.partition_scheme == "virtual":
        partition = VirtualPartition(
            n_samples=len(train),
            n_clients=config.n_clients,
            samples_per_client=(
                config.virtual_samples_per_client
                or max(len(train) // config.n_clients, 1)
            ),
            parent=SeedParent.capture(partition_rng),
        )
    else:
        # Global schemes (Dirichlet/IID/pathological) are inherently
        # O(n) to *derive*; the CSR pair is built once and per-client
        # membership stays a zero-copy slice thereafter.
        partition = CSRPartition(partition_indices(
            train.labels,
            config.n_clients,
            partition_rng,
            scheme=config.partition_scheme,
            alpha=config.partition_alpha,
        ))
    population = VirtualClientPopulation(
        config=config,
        train_pool=train,
        partition=partition,
        malicious_ids=scenario.malicious_ids(config.n_clients, malicious_rng),
        attack=scenario.attack,
        client_parent=SeedParent.capture(clients_rng),
        stream_parent=(
            SeedParent.capture(data_rng)
            if config.stream_samples_per_round > 0 else None
        ),
        synth_cfg=synth_cfg,
    )

    # Snapshot the classifier stream first: its replayed state matches the
    # seed discipline's first factory call (the server's eval shell, i.e.
    # the initial global model). Decoders replay an independent child.
    make_classifier = _replay_factory(build_classifier, config.model, init_rng)
    make_decoder = _replay_factory(build_decoder, config.model, init_rng.spawn(1)[0])

    context = ServerContext(
        make_classifier=make_classifier,
        make_decoder=make_decoder,
        num_classes=config.model.num_classes,
        t_samples=config.t_samples,
        class_probs=np.full(
            config.model.num_classes, 1.0 / config.model.num_classes, dtype=np.float64
        ),
        rng=context_rng,
        auxiliary_dataset=auxiliary,
    )

    from ..attacks.data_poisoning import LabelFlippingAttack

    flip_pairs = (
        scenario.attack.pairs
        if isinstance(scenario.attack, LabelFlippingAttack)
        else None
    )

    return Server(
        population=population,
        strategy=strategy,
        config=config,
        test_dataset=test,
        context=context,
        rng=server_rng,
        scenario_name=scenario.name,
        initial_weights=initial_weights,
        flip_pairs=flip_pairs,
        backend=backend,
        sampler=sampler,
        channel=channel,
        record_geometry=record_geometry,
        scenario=scenario,
    )


def federation_state(server: Server, history) -> dict:
    """Snapshot everything needed to resume a federation bit-identically.

    The payload pickles the *objects* that carry evolving state (strategy,
    scenario, sampler, channel, history) plus explicit state dicts for the
    server's RNGs, the global model, and every client the population says
    needs one (only clients that ever participated — untouched clients
    restore bit-identically from construction replay). The population is
    the record of client state on every backend (a pool returns each
    fitted client's state with its update), so it alone is read. The
    execution backend itself is never pickled — it holds live processes
    and is rebuilt from the config (or caller override) on restore.

    Known limitation: attack objects that mutate *inside worker processes*
    (runtime collusion) are not returned — but process backends reject
    those scenarios up front, so every checkpointable run is covered.
    """
    last_round = history.rounds[-1].round_idx if history.rounds else 0
    return {
        "format": "repro-federation-checkpoint",
        "version": CHECKPOINT_VERSION,
        "round": last_round,
        "config": server.config.to_dict(),
        "strategy": server.strategy,
        "scenario": server.scenario,
        "sampler": server.sampler,
        "channel": server.channel,
        "global_weights": np.array(server.global_weights),
        "server_rng": server.rng.bit_generator.state,
        "context_rng": server.context.rng.bit_generator.state,
        "setup_done": server._setup_done,
        "clients": {
            cid: server.population.state_for(cid)
            for cid in server.population.checkpoint_ids()
        },
        "history": history,
        # Evolving round-mode state. For the sync mode this is empty;
        # for the async mode it carries the event heap, the arrival
        # buffer, and the in-flight client set — work dispatched before
        # the checkpoint that must land after the resume, bit-identically.
        "mode": server.mode.state_dict(),
    }


def restore_federation(state: dict, backend=None, sampler=None, channel=None):
    """Rebuild a federation from :func:`federation_state`; returns (server, history).

    Construction is replayed deterministically from the config seed (data,
    partitions, malicious designation, model shells), then every piece of
    evolving state is overwritten from the checkpoint. ``strategy.setup``
    is *not* re-run when the checkpointed run had already passed it — the
    strategy object travels in the pickle with its setup products intact.

    The execution backend is rebuilt fresh (pass ``backend`` to override;
    a pool that served another population restarts its workers). The
    restored population is the record of every client's RNG, CVAE and
    stream state, and pool workers materialize the resumed clients from
    it, so a resumed run reproduces the uninterrupted one bit-identically
    on any backend, whichever backend wrote the checkpoint.
    """
    if state.get("format") != "repro-federation-checkpoint":
        raise ValueError("not a federation checkpoint payload")
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {state.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    history = state["history"]
    last_round = history.rounds[-1].round_idx if history.rounds else 0
    if state["round"] != last_round:
        raise ValueError(
            f"checkpoint declares round {state['round']!r} but its history "
            f"ends at round {last_round}; refusing to resume from an "
            f"inconsistent checkpoint"
        )
    config = FederationConfig.from_dict(state["config"])
    server = build_federation(
        config,
        state["strategy"],
        scenario=state["scenario"],
        backend=backend,
        sampler=sampler if sampler is not None else state["sampler"],
        channel=channel if channel is not None else state["channel"],
    )
    server.global_weights = np.array(state["global_weights"])
    server.rng.bit_generator.state = state["server_rng"]
    server.context.rng.bit_generator.state = state["context_rng"]
    server._setup_done = state["setup_done"]
    server.mode.load_state_dict(state["mode"])
    for client_id, client_state in state["clients"].items():
        server.population.import_state(client_id, client_state)
    return server, history


def run_federation(
    config: FederationConfig,
    strategy: Strategy,
    scenario: AttackScenario | None = None,
    verbose: bool = False,
    checkpoint_path=None,
    resume_from=None,
):
    """Build and run a federation; returns its :class:`~repro.fl.history.History`.

    ``checkpoint_path`` enables periodic checkpoints every
    ``config.checkpoint_every`` rounds; ``resume_from`` restores a prior
    checkpoint file and continues the run to ``config.rounds``. The
    backend is closed on return, so a process pool leaves no workers.
    """
    history = None
    if resume_from is not None:
        from ..experiments.storage import load_checkpoint

        server, history = restore_federation(load_checkpoint(resume_from))
    else:
        server = build_federation(config, strategy, scenario)
    try:
        return server.run(
            verbose=verbose, history=history, checkpoint_path=checkpoint_path
        )
    finally:
        server.backend.close()
