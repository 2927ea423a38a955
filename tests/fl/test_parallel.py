"""Execution backend tests: sequential/parallel equivalence."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.attacks import AttackScenario, no_attack
from repro.config import FederationConfig
from repro.defenses import FedAvg, FedGuard
from repro.fl import ProcessPoolBackend, SequentialBackend
from repro.fl.simulation import build_federation


class TestSequentialBackend:
    def test_returns_updates_and_times(self):
        server = build_federation(FederationConfig.tiny(), FedAvg(), no_attack())
        participants = server.sample_clients()
        updates, times = SequentialBackend().fit_clients(
            participants, server.global_weights, include_decoder=False
        )
        assert len(updates) == len(participants) == len(times)
        assert all(t > 0 for t in times)


class TestProcessPoolBackend:
    def test_equivalent_to_sequential(self):
        """The parallel backend must produce bit-identical federations."""
        config = FederationConfig.tiny()
        seq_server = build_federation(config, FedAvg(), no_attack())
        seq_history = seq_server.run()

        with ProcessPoolBackend(max_workers=2) as backend:
            par_server = build_federation(
                config, FedAvg(), no_attack(), backend=backend
            )
            par_history = par_server.run()

        np.testing.assert_allclose(seq_history.accuracies, par_history.accuracies)
        np.testing.assert_allclose(
            seq_server.global_weights, par_server.global_weights
        )

    def test_decoders_written_back(self):
        """The train-once CVAE contract must survive process shipping: after
        a parallel round, the main-process clients hold their decoders."""
        config = FederationConfig.tiny()
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(
                config, FedGuard(), AttackScenario.same_value(0.5), backend=backend
            )
            server.run_round(1)
            sampled_with_decoder = [
                c for c in server.clients if c._decoder_vector is not None
            ]
            assert len(sampled_with_decoder) >= config.clients_per_round
            # Versions come back too — the pool's IPC dedup ships a
            # decoder once per version.
            assert all(c._decoder_version == 1 for c in sampled_with_decoder)

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.close()
        backend.close()

    def test_close_and_reuse_restarts_workers(self):
        # close() discards only the workers' cached clients: the restarted
        # pool builds them from the population, which holds every fitted
        # client's state, so the run reads the sequential history.
        config = FederationConfig.tiny(
            rounds=3, local_epochs=3, client_lr=0.2, train_samples=600,
            clients_per_round=6,
        )
        seq_server = build_federation(config, FedAvg(), no_attack())
        seq_history = seq_server.run()
        backend = ProcessPoolBackend(max_workers=2)
        try:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            history = server.run(rounds=1)
            backend.close()
            history = server.run(history=history)  # lazily restarts the pool
        finally:
            backend.close()
        np.testing.assert_array_equal(history.accuracies, seq_history.accuracies)
        np.testing.assert_array_equal(server.global_weights, seq_server.global_weights)


class TestSharedMemoryLifecycle:
    """The round segment's create/attach/unlink discipline (RG304's
    runtime counterpart): readers attach untracked, the main process is
    the sole unlinker, and a worker crash must not leak the segment."""

    def test_attach_untracked_skips_tracker_registration(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.fl.parallel import _attach_untracked

        owner = shared_memory.SharedMemory(create=True, size=16)
        try:
            owner.buf[:4] = b"\x01\x02\x03\x04"
            calls = []

            def spy(path, rtype):
                calls.append((path, rtype))

            monkeypatch.setattr(resource_tracker, "register", spy)
            segment = _attach_untracked(owner.name)
            try:
                # The reader sees the owner's bytes but never registered
                # the segment as its own with the resource tracker.
                assert bytes(segment.buf[:4]) == b"\x01\x02\x03\x04"
                assert all(rtype != "shared_memory" for _, rtype in calls)
                # The patched-in skipping hook is gone again.
                assert resource_tracker.register is spy
            finally:
                segment.close()
        finally:
            owner.close()
            owner.unlink()

    def test_resolve_weights_inline_path(self):
        from repro.fl.parallel import _resolve_weights

        weights = np.arange(5, dtype=np.float64)
        out = _resolve_weights(("inline", weights))
        np.testing.assert_array_equal(out, weights)

    def test_resolve_weights_copies_out_of_segment(self):
        from repro.fl.parallel import _resolve_weights

        weights = np.arange(8, dtype=np.float64)
        backend = ProcessPoolBackend(max_workers=1)
        try:
            ref, segment = backend._publish_weights(weights)
            assert ref[0] == "shm" and segment is not None
            try:
                out = _resolve_weights(ref)
            finally:
                segment.close()
                segment.unlink()
            # The copy must survive the segment: no view into shm escapes.
            np.testing.assert_array_equal(out, weights)
            assert out.base is None
        finally:
            backend.close()

    def test_worker_crash_respawn_does_not_leak_segments(self):
        """Leaked-segment regression: every segment published across a
        crash-and-respawn federation must be unlinked by round end."""
        config = FederationConfig.tiny()
        names = []
        with ProcessPoolBackend(max_workers=2) as backend:
            server = build_federation(config, FedAvg(), no_attack(), backend=backend)
            original = backend._publish_weights

            def capturing_publish(weights):
                ref, segment = original(weights)
                if segment is not None:
                    names.append(segment.name)
                return ref, segment

            backend._publish_weights = capturing_publish
            server.run_round(1)
            assert backend.inject_worker_crash(0)
            server.run_round(2)
            assert backend.respawns == 1
        assert names, "expected at least one published segment"
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
