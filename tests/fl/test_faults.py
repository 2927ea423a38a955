"""Fault injection + round-level recovery: plans, retries, quorum, resume."""

from functools import partial

import numpy as np
import pytest

from repro.attacks import AttackScenario, no_attack
from repro.config import FederationConfig
from repro.defenses import PDGAN, FedAvg, FedCVAE, FedGuard, Spectral
from repro.experiments.storage import load_checkpoint, save_checkpoint
from repro.fl import (
    FaultPlan,
    FaultyChannel,
    LinkFault,
    ProcessPoolBackend,
    RoundContext,
    Server,
    SequentialBackend,
    build_federation,
    inject_worker_crashes,
    restore_federation,
)
from repro.fl.faults import BROADCAST, SUBMIT
from repro.fl.simulation import federation_state
from repro.fl.transport import (
    BroadcastMessage,
    InMemoryChannel,
    LatencyChannel,
    LossyChannel,
    SubmitMessage,
)
from repro.fl.updates import ClientUpdate


def _broadcasts(n, round_idx=1, dim=4):
    weights = np.zeros(dim)
    return [
        BroadcastMessage(round_idx=round_idx, client_id=cid, weights=weights,
                         include_decoder=False)
        for cid in range(n)
    ]


def _submits(n, round_idx=1, dim=4):
    return [
        SubmitMessage(
            round_idx=round_idx,
            update=ClientUpdate(client_id=cid, weights=np.zeros(dim),
                                num_samples=10),
            client_time_s=0.0,
        )
        for cid in range(n)
    ]


class TestLinkFault:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            LinkFault("sideways")

    def test_attempts_and_delay_validated(self):
        with pytest.raises(ValueError):
            LinkFault(SUBMIT, attempts=0)
        with pytest.raises(ValueError):
            LinkFault(SUBMIT, delay_s=-1.0)

    def test_matching_filters(self):
        fault = LinkFault(SUBMIT, client_id=3, rounds=frozenset({2, 3}),
                          attempts=1)
        assert fault.matches(SUBMIT, 2, 3, 1)
        assert not fault.matches(BROADCAST, 2, 3, 1)   # direction
        assert not fault.matches(SUBMIT, 4, 3, 1)      # round
        assert not fault.matches(SUBMIT, 2, 5, 1)      # client
        assert not fault.matches(SUBMIT, 2, 3, 2)      # later attempt

    def test_wildcards_match_everything(self):
        fault = LinkFault(BROADCAST)
        assert fault.matches(BROADCAST, 1, 0, 1)
        assert fault.matches(BROADCAST, 99, 42, 7)


class TestFaultPlan:
    def test_fluent_builders_accumulate(self):
        plan = (
            FaultPlan(seed=1)
            .drop_submit(client_id=7, rounds=range(3, 6))
            .delay_broadcast(2.0, client_id=1)
            .crash_worker(2, round_idx=10)
        )
        assert plan.scripted_drop(SUBMIT, 3, 7, 1)
        assert plan.scripted_drop(SUBMIT, 5, 7, 1)
        assert not plan.scripted_drop(SUBMIT, 6, 7, 1)
        assert plan.delay_s(BROADCAST, 1, 1) == 2.0
        assert plan.crashes(10) == [2]
        assert plan.crashes(9) == []

    def test_rounds_accepts_int(self):
        plan = FaultPlan().drop_broadcast(rounds=4)
        assert plan.scripted_drop(BROADCAST, 4, 0, 1)
        assert not plan.scripted_drop(BROADCAST, 5, 0, 1)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().random_broadcast_drops(1.5)
        with pytest.raises(ValueError):
            FaultPlan().random_submit_drops(-0.1)

    def test_delays_stack(self):
        plan = FaultPlan().delay_submit(1.0, client_id=2).delay_submit(0.5)
        assert plan.delay_s(SUBMIT, 1, 2) == 1.5
        assert plan.delay_s(SUBMIT, 1, 3) == 0.5


class TestFaultyChannel:
    def test_scripted_drop_consumes_no_rng(self):
        plan = FaultPlan(seed=0).drop_broadcast(client_id=1)
        channel = FaultyChannel(InMemoryChannel(), plan)
        before = channel.rng.bit_generator.state
        channel.open_round(1)
        delivered = channel.broadcast(_broadcasts(4))
        assert [m.client_id for m in delivered] == [0, 2, 3]
        assert channel.rng.bit_generator.state == before

    def test_probabilistic_drops_replay_identically(self):
        def run():
            plan = FaultPlan(seed=5).random_submit_drops(0.5)
            channel = FaultyChannel(InMemoryChannel(), plan)
            out = []
            for r in range(1, 4):
                channel.open_round(r)
                out.append([m.update.client_id
                            for m in channel.collect(_submits(6, round_idx=r))])
            return out

        assert run() == run()

    def test_attempt_limited_drop_lets_retry_through(self):
        plan = FaultPlan().drop_submit(client_id=0, attempts=1)
        channel = FaultyChannel(InMemoryChannel(), plan)
        channel.open_round(1)
        first = channel.collect(_submits(1))
        second = channel.collect(_submits(1))
        assert first == []
        assert len(second) == 1

    def test_attempt_counter_resets_per_round(self):
        plan = FaultPlan().drop_submit(client_id=0, attempts=1)
        channel = FaultyChannel(InMemoryChannel(), plan)
        for r in (1, 2):
            channel.open_round(r)
            assert channel.collect(_submits(1, round_idx=r)) == []

    def test_delay_adds_to_inner_latency(self):
        plan = FaultPlan().delay_broadcast(3.0, client_id=0)
        inner = LatencyChannel(base_s=1.0, seed=0)
        channel = FaultyChannel(inner, plan)
        channel.open_round(1)
        delivered = channel.broadcast(_broadcasts(2))
        assert delivered[0].latency_s == pytest.approx(4.0)
        assert delivered[1].latency_s == pytest.approx(1.0)

    def test_composes_with_lossy_inner(self):
        # Scripted drop on client 0; the inner lossy channel drops the rest
        # of the population by its own seeded coin.
        plan = FaultPlan().drop_submit(client_id=0)
        channel = FaultyChannel(LossyChannel(1.0, seed=0), plan)
        channel.open_round(1)
        assert channel.collect(_submits(3)) == []
        assert channel.stats.submits_dropped == 3

    def test_wrapper_owns_stats(self):
        plan = FaultPlan().drop_broadcast(client_id=1)
        channel = FaultyChannel(InMemoryChannel(), plan)
        channel.open_round(1)
        channel.broadcast(_broadcasts(3))
        assert channel.stats.broadcasts_sent == 3
        assert channel.stats.broadcasts_delivered == 2
        assert channel.stats.broadcasts_dropped == 1


class TestInjectWorkerCrashes:
    def test_backends_without_workers_ignore_crashes(self):
        plan = FaultPlan().crash_worker(0, round_idx=1)
        assert inject_worker_crashes(plan, SequentialBackend(), 1) == 0

    def test_resident_worker_killed_and_respawned(self):
        plan = FaultPlan().crash_worker(0, round_idx=1)
        with ProcessPoolBackend(max_workers=2) as backend:
            backend._ensure_workers()
            assert inject_worker_crashes(plan, backend, 1) == 1
            assert not backend._workers[0].process.is_alive()
            backend._reap_dead_workers()
            assert backend._workers[0].process.is_alive()
            assert backend.respawns == 1

    def test_resident_federation_survives_scheduled_crash(self):
        plan = FaultPlan().crash_worker(0, round_idx=2)
        config = FederationConfig.tiny(rounds=3)
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedAvg(), no_attack(), backend=backend,
                channel=FaultyChannel(InMemoryChannel(), plan),
            )
            history = server.run()
            assert len(history.rounds) == 3
            assert backend.respawns == 1

    @pytest.mark.parametrize("server_mode", ["sync", "async"])
    def test_crashes_fire_once_per_round_or_flush(self, server_mode):
        # Crashes fire when a round or flush opens. Firing them per async
        # dispatch would kill and respawn worker 0 several times a flush.
        plan = FaultPlan().crash_worker(0, round_idx=1).crash_worker(0, round_idx=2)
        config = FederationConfig.tiny(rounds=2, server_mode=server_mode)
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedAvg(), no_attack(), backend=backend,
                channel=FaultyChannel(InMemoryChannel(), plan),
            )
            server.run()
            assert backend.respawns == len(plan.worker_crashes)


def run_server(channel=None, strategy=None, rounds=2, **overrides):
    config = FederationConfig.tiny(rounds=rounds, **overrides)
    server = build_federation(
        config, strategy or FedAvg(), no_attack(), channel=channel
    )
    return server, server.run()


class TestServerRetries:
    def test_retry_recovers_attempt_limited_drops(self):
        plan = FaultPlan().drop_submit(attempts=1)
        _, history = run_server(
            FaultyChannel(InMemoryChannel(), plan), retries=1
        )
        for record in history.rounds:
            # every submit failed once and succeeded on the retry
            assert len(record.sampled_ids) == 4
            assert record.metrics["retry_wait_s"] == 0.0

    def test_backoff_priced_into_duration(self):
        plan = FaultPlan().drop_submit(attempts=1)
        _, history = run_server(
            FaultyChannel(InMemoryChannel(), plan),
            retries=2, retry_backoff_s=0.5,
        )
        for record in history.rounds:
            # one retry round at backoff b·2^0 = 0.5 s of simulated wait
            assert record.metrics["retry_wait_s"] == pytest.approx(0.5)
            assert record.duration_s >= 0.5

    def test_retries_exhausted_leaves_drop(self):
        plan = FaultPlan().drop_submit(client_id=0)
        _, history = run_server(
            FaultyChannel(InMemoryChannel(), plan), retries=3
        )
        for record in history.rounds:
            assert 0 not in record.sampled_ids

    def test_zero_retries_is_byte_identical_to_plain_channel(self):
        _, plain = run_server(LossyChannel(0.3, seed=0))
        _, wrapped = run_server(
            FaultyChannel(LossyChannel(0.3, seed=0), FaultPlan())
        )
        for a, b in zip(plain.rounds, wrapped.rounds):
            assert a.accuracy == b.accuracy
            assert a.sampled_ids == b.sampled_ids
            assert a.broadcasts_dropped == b.broadcasts_dropped
            assert a.submits_dropped == b.submits_dropped


class TestStragglerDeadline:
    def test_late_submits_dropped_and_counted(self):
        plan = FaultPlan().delay_submit(10.0, client_id=0)
        _, history = run_server(
            FaultyChannel(InMemoryChannel(), plan), deadline_s=5.0
        )
        for record in history.rounds:
            assert 0 not in record.sampled_ids
            assert record.metrics["stragglers_dropped"] == (
                1 if 0 in record.selected_ids else 0
            )

    def test_deadline_ignores_wallclock_fit_time(self):
        # No simulated latency at all: even the slowest real fit is on time.
        _, history = run_server(InMemoryChannel(), deadline_s=1e-9)
        for record in history.rounds:
            assert record.metrics["stragglers_dropped"] == 0
            assert len(record.sampled_ids) == 4


class TestQuorum:
    def test_round_held_below_quorum(self):
        # Drop everyone's submits: 0 delivered < quorum 2 -> model held.
        plan = FaultPlan().drop_submit()
        server, history = run_server(
            FaultyChannel(InMemoryChannel(), plan), min_quorum=2, rounds=2
        )
        for record in history.rounds:
            assert record.metrics["quorum_failed"] == 1
            assert record.metrics["quorum_delivered"] == 0
            assert record.metrics["quorum_required"] == 2
            assert record.accepted_ids == []

    def test_quorum_holds_global_model(self):
        plan = FaultPlan().drop_submit()
        config = FederationConfig.tiny(rounds=1, min_quorum=2)
        server = build_federation(
            config, FedAvg(), no_attack(),
            channel=FaultyChannel(InMemoryChannel(), plan),
        )
        before = server.global_weights.copy()
        server.run_round(1)
        np.testing.assert_array_equal(server.global_weights, before)

    def test_quorum_met_aggregates_normally(self):
        plan = FaultPlan().drop_submit(client_id=0)
        _, history = run_server(
            FaultyChannel(InMemoryChannel(), plan), min_quorum=2
        )
        for record in history.rounds:
            assert "quorum_failed" not in record.metrics
            assert len(record.accepted_ids) >= 2

    def test_min_quorum_validated(self):
        with pytest.raises(ValueError):
            FederationConfig.tiny(min_quorum=99)


class TestPhaseOverrideSeam:
    def test_subclass_replacing_one_phase_runs_unchanged(self):
        class FixedSelectionServer(Server):
            def phase_select(self, ctx: RoundContext) -> None:
                ctx.participants = [self.clients[i] for i in (0, 1, 2, 3)]

        config = FederationConfig.tiny(rounds=1)
        stock = build_federation(config, FedAvg(), no_attack())
        server = FixedSelectionServer(
            clients=stock.clients,
            strategy=stock.strategy,
            config=stock.config,
            test_dataset=stock.test_dataset,
            context=stock.context,
            rng=stock.rng,
        )
        record = server.run_round(1)
        assert record.selected_ids == [0, 1, 2, 3]
        assert record.sampled_ids == [0, 1, 2, 3]
        assert 0.0 <= record.accuracy <= 1.0

    def test_phases_tuple_is_the_dispatch_order(self):
        calls = []

        class TracingServer(Server):
            pass

        for name in Server.PHASES:
            def tracer(self, ctx, _name=name):
                calls.append(_name)
                return getattr(Server, f"phase_{_name}")(self, ctx)

            setattr(TracingServer, f"phase_{name}", tracer)

        config = FederationConfig.tiny(rounds=1)
        stock = build_federation(config, FedAvg(), no_attack())
        server = TracingServer(
            clients=stock.clients,
            strategy=stock.strategy,
            config=stock.config,
            test_dataset=stock.test_dataset,
            context=stock.context,
            rng=stock.rng,
        )
        server.run_round(1)
        assert calls == list(Server.PHASES)


def _comparable(history):
    return [
        (r.round_idx, r.accuracy, tuple(r.sampled_ids), tuple(r.accepted_ids),
         tuple(r.rejected_ids), r.upload_nbytes, r.download_nbytes)
        for r in history.rounds
    ]


# The pre-training defenses at test size (as in test_registry_coverage.py);
# each pickles its trained detector into the checkpoint.
_PRETRAINED = [
    pytest.param(partial(PDGAN, init_rounds=0, samples=10, gan_epochs=3, hidden=16,
                         latent_dim=3), id="PDGAN"),
    pytest.param(partial(Spectral, surrogate_dim=8, pretrain_rounds=1, pseudo_clients=2,
                         vae_epochs=3, pretrain_epochs=1), id="Spectral"),
    pytest.param(partial(FedCVAE, surrogate_dim=8, pretrain_rounds=2, pseudo_clients=2,
                         cvae_epochs=3, pretrain_epochs=1), id="FedCVAE"),
]


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy_factory", [FedAvg, FedGuard, *_PRETRAINED])
    def test_resume_bit_identical_sequential(self, strategy_factory, tmp_path):
        config = FederationConfig.tiny(rounds=4)
        scenario = AttackScenario.label_flipping(0.3)

        full = build_federation(config, strategy_factory(), scenario).run()

        server = build_federation(config, strategy_factory(), scenario)
        partial = server.run(rounds=2)
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(federation_state(server, partial), path)
        resumed_server, resumed_history = restore_federation(
            load_checkpoint(path)
        )
        resumed = resumed_server.run(history=resumed_history)

        assert _comparable(full) == _comparable(resumed)

    @pytest.mark.parametrize("strategy_factory", [FedAvg, FedGuard])
    def test_resume_bit_identical_process_backend(self, strategy_factory, tmp_path):
        config = FederationConfig.tiny(
            rounds=4, backend="process", backend_workers=2
        )
        scenario = AttackScenario.label_flipping(0.3)

        full_server = build_federation(config, strategy_factory(), scenario)
        full = full_server.run()
        full_server.backend.close()

        server = build_federation(config, strategy_factory(), scenario)
        partial = server.run(rounds=2)
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(federation_state(server, partial), path)
        server.backend.close()

        resumed_server, resumed_history = restore_federation(
            load_checkpoint(path)
        )
        resumed = resumed_server.run(history=resumed_history)
        resumed_server.backend.close()

        assert _comparable(full) == _comparable(resumed)

    def test_resume_crosses_backends(self, tmp_path):
        # Checkpoint of a pool-run federation, resumed sequentially: the
        # population the pool returned every fitted client's state to
        # must carry the run faithfully.
        config = FederationConfig.tiny(
            rounds=4, backend="process", backend_workers=2
        )
        full_server = build_federation(config, FedAvg(), no_attack())
        full = full_server.run()
        full_server.backend.close()

        server = build_federation(config, FedAvg(), no_attack())
        partial = server.run(rounds=2)
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(federation_state(server, partial), path)
        server.backend.close()

        resumed_server, resumed_history = restore_federation(
            load_checkpoint(path), backend=SequentialBackend()
        )
        resumed = resumed_server.run(history=resumed_history)
        assert _comparable(full) == _comparable(resumed)

    def test_periodic_checkpoints_written_by_run(self, tmp_path):
        config = FederationConfig.tiny(rounds=4, checkpoint_every=2)
        server = build_federation(config, FedAvg(), no_attack())
        path = tmp_path / "fed.ckpt"
        server.run(checkpoint_path=path)
        state = load_checkpoint(path)
        assert state["round"] == 4
        assert len(state["history"].rounds) == 4

    def test_checkpoint_envelope_validated(self, tmp_path):
        path = tmp_path / "bogus.pkl"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_checkpoint(path)
        with pytest.raises(ValueError):
            save_checkpoint({"format": "something-else"}, tmp_path / "x.pkl")

    def test_non_pcg64_client_state_refused_at_restore(self):
        # Population clients draw from PCG64 only; a checkpoint carrying
        # another bit generator must fail at restore, not when the client
        # is next checked out.
        config = FederationConfig.tiny(rounds=1)
        server = build_federation(config, FedAvg(), no_attack())
        history = server.run()
        state = federation_state(server, history)
        cid = next(iter(state["clients"]))
        state["clients"][cid]["rng_state"] = np.random.MT19937(3).state
        with pytest.raises(ValueError, match=f"client {cid}.*PCG64"):
            restore_federation(state)

    def test_version_mismatch_rejected(self, tmp_path):
        config = FederationConfig.tiny(rounds=1)
        server = build_federation(config, FedAvg(), no_attack())
        history = server.run()
        state = federation_state(server, history)
        state["version"] = 999
        with pytest.raises(ValueError):
            restore_federation(state)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        config = FederationConfig.tiny(rounds=1)
        server = build_federation(config, FedAvg(), no_attack())
        history = server.run()
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(federation_state(server, history), path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
