"""Unit tests for the server round modes (sync barrier + async buffered).

The heavy contracts — golden histories, engine/backend independence,
mid-buffer checkpoint bit-identity, chaos survival — live in their own
suites. This file pins the small parts in isolation: the staleness
weight registry, the mode factory, config/CLI plumbing, the discount
blend, and the v1→v2 checkpoint compatibility shim. The recovery paths
are pinned to full histories recorded before async dispatches ran the
server's phases (``data/async_recovery_histories.json``).
"""

import json
import pathlib
import types

import numpy as np
import pytest

from repro.cli import _config_from_args, build_parser
from repro.config import FederationConfig
from repro.experiments.scenarios import make_scenario, make_strategy
from repro.experiments.storage import history_to_dict
from repro.fl import FaultPlan, FaultyChannel, Server, build_federation
from repro.fl.modes import (
    STALENESS_WEIGHTS,
    AsyncBufferedMode,
    ServerMode,
    SyncRoundMode,
    _Arrival,
    make_server_mode,
)
from repro.fl.simulation import federation_state, restore_federation
from repro.fl.transport import SubmitMessage
from repro.fl.updates import ClientUpdate


def async_tiny(**overrides) -> FederationConfig:
    base = dict(server_mode="async", buffer_size=3, channel="latency")
    base.update(overrides)
    return FederationConfig.tiny(**base)


class TestStalenessWeights:
    def test_registry_values(self):
        assert STALENESS_WEIGHTS["rsqrt"](3) == pytest.approx(0.5)
        assert STALENESS_WEIGHTS["inverse"](1) == pytest.approx(0.5)
        assert STALENESS_WEIGHTS["constant"](100) == 1.0

    def test_fresh_is_always_one(self):
        for fn in STALENESS_WEIGHTS.values():
            assert fn(0) == 1.0


class TestMakeServerMode:
    def test_default_is_sync(self):
        assert isinstance(make_server_mode(FederationConfig.tiny()), SyncRoundMode)

    def test_legacy_config_without_field_is_sync(self):
        # Configs predating the mode field (e.g. from an old checkpoint's
        # serialized dict) must keep building the barrier mode.
        assert isinstance(make_server_mode(types.SimpleNamespace()), SyncRoundMode)

    def test_async_carries_knobs(self):
        config = async_tiny(
            buffer_size=3, max_staleness=2, staleness_weight="inverse",
            async_concurrency=4, seed=9,
        )
        mode = make_server_mode(config)
        assert isinstance(mode, AsyncBufferedMode)
        assert mode.buffer_size == 3
        assert mode.max_staleness == 2
        assert mode.staleness_weight == "inverse"
        assert mode.concurrency == 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown server mode"):
            make_server_mode(types.SimpleNamespace(server_mode="quantum"))

    @pytest.mark.parametrize("bad", [
        dict(staleness_weight="nope"),
        dict(buffer_size=-1),
        dict(max_staleness=-1),
        dict(concurrency=-2),
    ])
    def test_constructor_validation(self, bad):
        with pytest.raises(ValueError):
            AsyncBufferedMode(**bad)


class TestConfigValidation:
    def test_unknown_server_mode(self):
        with pytest.raises(ValueError, match="unknown server mode"):
            FederationConfig.tiny(server_mode="quantum")

    def test_buffer_larger_than_population(self):
        # A flush samples *distinct* clients; a buffer the population
        # cannot fill would deadlock the event loop.
        with pytest.raises(ValueError, match="buffer_size"):
            async_tiny(buffer_size=7)  # tiny has 6 clients

    def test_quorum_above_flush_size(self):
        # A flush aggregates at most buffer_size updates: a larger quorum
        # would skip every flush and freeze the global model.
        with pytest.raises(ValueError, match="buffer_size"):
            FederationConfig.tiny(server_mode="async", buffer_size=2,
                                  min_quorum=3, rounds=3)
        async_tiny(buffer_size=3, min_quorum=1)  # the async chaos setting

    @pytest.mark.parametrize("field,value", [
        ("buffer_size", -1), ("max_staleness", -1), ("async_concurrency", -1),
    ])
    def test_negative_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            async_tiny(**{field: value})


class TestCLIPlumbing:
    BASE = ["run", "--strategy", "fedavg", "--scenario", "no_attack",
            "--profile", "tiny"]

    def _config(self, *extra):
        return _config_from_args(build_parser().parse_args([*self.BASE, *extra]))

    def test_default_stays_sync(self):
        assert self._config().server_mode == "sync"

    def test_server_mode_flag(self):
        assert self._config("--server-mode", "async").server_mode == "async"

    @pytest.mark.parametrize("flag,value,field,expected", [
        ("--buffer-size", "4", "buffer_size", 4),
        ("--max-staleness", "2", "max_staleness", 2),
        ("--staleness-weight", "inverse", "staleness_weight", "inverse"),
    ])
    def test_async_knobs_imply_async(self, flag, value, field, expected):
        config = self._config(flag, value)
        assert getattr(config, field) == expected
        assert config.server_mode == "async"

    def test_unknown_staleness_weight_rejected_at_parse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*self.BASE, "--staleness-weight", "nope"])


def _arrival(client_id, weights, version=0):
    update = ClientUpdate(client_id=client_id, weights=weights, num_samples=10)
    return _Arrival(
        client_id=client_id,
        submit=SubmitMessage(round_idx=1, update=update),
        dispatch_version=version,
        dispatch_time=0.0,
    )


class TestStalenessDiscount:
    def test_blend_pulls_stale_update_toward_psi(self):
        mode = AsyncBufferedMode(buffer_size=2)
        psi = np.zeros(4)
        server = types.SimpleNamespace(global_weights=psi)
        kept = [_arrival(0, np.ones(4)), _arrival(1, np.full(4, 2.0))]
        out = mode._discounted(server, kept, np.array([1.0, 0.5]))
        # w == 1: the original update object passes through untouched —
        # an identity blend would round-trip the floats.
        assert out[0] is kept[0].submit.update
        # w == 0.5 against ψ = 0: exactly half the displacement survives.
        np.testing.assert_allclose(out[1].weights, np.full(4, 1.0))
        assert out[1].client_id == 1

    def test_all_fresh_short_circuits(self):
        mode = AsyncBufferedMode(buffer_size=2)
        server = types.SimpleNamespace(global_weights=np.zeros(3))
        kept = [_arrival(0, np.ones(3)), _arrival(1, np.ones(3))]
        out = mode._discounted(server, kept, np.array([1.0, 1.0]))
        assert out[0] is kept[0].submit.update
        assert out[1] is kept[1].submit.update

    def test_empty_pool(self):
        mode = AsyncBufferedMode(buffer_size=2)
        assert mode._discounted(None, [], np.array([])) == []


class TestBaseMode:
    def test_run_round_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ServerMode().run_round(None, 1)

    def test_stateless_by_default(self):
        mode = ServerMode()
        assert mode.state_dict() == {}
        mode.load_state_dict({"anything": 1})  # a no-op, not an error


class TestPickClient:
    def test_biased_sampler_parks_the_slot(self):
        """A sampler that only ever proposes busy clients exhausts the
        rejection budget and parks the slot instead of spinning."""
        mode = AsyncBufferedMode(buffer_size=2)
        mode._in_flight = {0}
        sampler = types.SimpleNamespace(
            sample=lambda size, k, rng: np.array([0])
        )
        server = types.SimpleNamespace(
            sampler=sampler, population=types.SimpleNamespace(size=4)
        )
        assert mode._pick_client(server) is None

    def test_saturated_population_parks_without_sampling(self):
        mode = AsyncBufferedMode(buffer_size=2)
        mode._in_flight = {0, 1}
        server = types.SimpleNamespace(
            sampler=None, population=types.SimpleNamespace(size=2)
        )
        assert mode._pick_client(server) is None


def run_async_under(channel, **overrides):
    config = async_tiny(**overrides)
    server = build_federation(
        config, make_strategy("fedavg"), make_scenario("no_attack"),
        channel=channel,
    )
    return server.run()


RECORDED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "async_recovery_histories.json")
    .read_text()
)

# Wall-clock metrics; every other field of an async record, duration_s
# and the transport and event clocks included, is simulated.
_WALL_CLOCK_METRICS = ("client_time_max_s", "client_time_sum_s",
                       "aggregation_time_s")


def simulated_rounds(history) -> list[dict]:
    """The history's rounds as JSON data, without wall-clock metrics."""
    rounds = json.loads(json.dumps(history_to_dict(history)["rounds"]))
    for record in rounds:
        for key in _WALL_CLOCK_METRICS:
            del record["metrics"][key]
    return rounds


def assert_recorded(name: str, history) -> None:
    assert simulated_rounds(history) == RECORDED[name]


class TestAsyncRecovery:
    """The re-arm paths: drops, stragglers, and the dispatch budget."""

    def test_broadcast_and_submit_drops_rearm_slots(self):
        from repro.fl.transport import LatencyChannel

        plan = (
            FaultPlan(seed=3)
            .random_broadcast_drops(0.3)
            .random_submit_drops(0.3)
        )
        channel = FaultyChannel(LatencyChannel(base_s=0.05, seed=5), plan)
        history = run_async_under(
            channel, rounds=4, retries=1, retry_backoff_s=0.1,
        )
        assert len(history.rounds) == 4
        summary = history.delivery_summary()
        assert summary["buffer_flushes"] == 4
        # Drops re-armed slots rather than wedging the event loop: every
        # flush still gathered its quorum of distinct arrivals.
        for record in history.rounds:
            assert len(record.sampled_ids) == 3
            assert record.broadcasts_dropped + record.submits_dropped >= 0
        assert sum(
            r.broadcasts_dropped + r.submits_dropped for r in history.rounds
        ) > 0
        assert_recorded("broadcast_and_submit_drops", history)

    def test_deadline_drops_slow_arrivals_at_dispatch(self):
        from repro.fl.transport import LatencyChannel

        plan = FaultPlan(seed=3).delay_submit(10.0, client_id=1)
        channel = FaultyChannel(LatencyChannel(base_s=0.05, seed=5), plan)
        history = run_async_under(channel, rounds=3, deadline_s=5.0)
        assert sum(
            r.metrics["stragglers_dropped"] for r in history.rounds
        ) > 0
        for record in history.rounds:
            assert 1 not in record.sampled_ids
        assert_recorded("deadline_straggler", history)

    def test_submit_only_drops_rearm_after_training(self):
        """A dropped *upload* still trained the client; the slot re-arms
        after the wasted round-trip instead of buffering anything."""
        from repro.fl.transport import LatencyChannel

        plan = FaultPlan(seed=11).random_submit_drops(0.5)
        channel = FaultyChannel(LatencyChannel(base_s=0.05, seed=5), plan)
        history = run_async_under(channel, rounds=3)
        assert sum(r.submits_dropped for r in history.rounds) > 0
        assert all(len(r.sampled_ids) == 3 for r in history.rounds)
        assert_recorded("submit_drops", history)

    def test_max_staleness_drops_late_arrivals(self):
        """An arrival delayed past the staleness bound is discarded at
        flush time, and the flush records it."""
        from repro.fl.transport import LatencyChannel

        # Flush windows span ~0.1 simulated seconds here; a +0.3 s delay
        # makes client 1's upload land several model versions late.
        plan = FaultPlan(seed=3).delay_submit(0.3, client_id=1)
        channel = FaultyChannel(LatencyChannel(base_s=0.05, seed=5), plan)
        history = run_async_under(
            channel, rounds=10, buffer_size=2, max_staleness=1,
        )
        assert sum(r.metrics["stale_dropped"] for r in history.rounds) > 0
        for record in history.rounds:
            assert record.metrics["staleness_max"] <= 1
        assert_recorded("stale_arrival", history)

    def test_fully_lossy_channel_hits_budget_not_livelock(self):
        """Every dispatch dropped at the same simulated instant: the
        dispatch budget must turn that into an empty flush, not a spin."""
        from repro.fl.transport import LossyChannel

        channel = LossyChannel(drop_prob=1.0, seed=7)
        history = run_async_under(channel, rounds=2)
        for record in history.rounds:
            assert record.sampled_ids == []
            assert record.metrics["empty_round"] == 1
        assert_recorded("dispatch_budget", history)


class TestServerDelegation:
    def test_sync_config_builds_sync_mode(self):
        server = build_federation(
            FederationConfig.tiny(), make_strategy("fedavg"),
            make_scenario("no_attack"),
        )
        assert isinstance(server.mode, SyncRoundMode)

    def test_async_config_builds_async_mode(self):
        server = build_federation(
            async_tiny(), make_strategy("fedavg"), make_scenario("no_attack"),
        )
        assert isinstance(server.mode, AsyncBufferedMode)

    def test_dispatches_run_overridden_phases(self):
        calls = dict.fromkeys(("broadcast", "fit", "collect"), 0)

        class CountingServer(Server):
            pass

        for name in calls:
            def counted(self, ctx, _name=name):
                calls[_name] += 1
                return getattr(Server, f"phase_{_name}")(self, ctx)

            setattr(CountingServer, f"phase_{name}", counted)

        config = FederationConfig.tiny(server_mode="async", buffer_size=3,
                                       rounds=2)
        stock = build_federation(
            config, make_strategy("fedavg"), make_scenario("no_attack"),
        )
        server = CountingServer(
            population=stock.population, strategy=stock.strategy,
            config=config, test_dataset=stock.test_dataset,
            context=stock.context, rng=stock.rng,
        )
        history = server.run()
        dispatches = sum(len(r.selected_ids) for r in history.rounds)
        assert dispatches > 0
        assert calls == dict.fromkeys(calls, dispatches)


class TestCheckpointCompat:
    def test_state_dict_roundtrip(self):
        config = async_tiny(rounds=2)
        server = build_federation(
            config, make_strategy("fedavg"), make_scenario("no_attack"),
        )
        server.run()
        state = server.mode.state_dict()
        fresh = AsyncBufferedMode(buffer_size=3, seed=config.seed)
        fresh.load_state_dict(state)
        restored = fresh.state_dict()
        for key in ("sim_time", "model_version", "seq", "in_flight", "rng"):
            assert restored[key] == state[key]
        assert len(restored["events"]) == len(state["events"])
        assert len(restored["buffer"]) == len(state["buffer"])

    def test_v1_checkpoint_without_mode_state_refused(self):
        config = FederationConfig.tiny(rounds=1)
        server = build_federation(
            config, make_strategy("fedavg"), make_scenario("no_attack"),
        )
        history = server.run()
        state = federation_state(server, history)
        state["version"] = 1
        state.pop("mode")  # v1 payloads predate the mode field entirely
        # The version check runs before any field is read, so the missing
        # mode state surfaces as a refusal rather than a KeyError.
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            restore_federation(state)

    def test_unreadable_version_rejected(self):
        config = FederationConfig.tiny(rounds=1)
        server = build_federation(
            config, make_strategy("fedavg"), make_scenario("no_attack"),
        )
        history = server.run()
        state = federation_state(server, history)
        # v1 predates the mode state, v2 still stores the ``population``
        # config key, v3 the two retired client-state keys, v4 the
        # decoder wire cache and the clients' round counter and v5 the
        # clients' CVAE loss; only the current version restores.
        for version in (1, 2, 3, 4, 5, 99):
            state["version"] = version
            with pytest.raises(ValueError, match="unsupported checkpoint version"):
                restore_federation(state)
