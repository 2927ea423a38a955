"""History statistics tests."""

import numpy as np
import pytest

from repro.config import FederationConfig
from repro.experiments import run_cell
from repro.fl.history import History, RoundRecord


def record(i, acc, sampled=4, rejected=1, mal_sampled=2, mal_accepted=1,
           up=1000, down=800, secs=0.5):
    sampled_ids = list(range(sampled))
    return RoundRecord(
        round_idx=i, accuracy=acc, sampled_ids=sampled_ids,
        accepted_ids=sampled_ids[: sampled - rejected],
        rejected_ids=sampled_ids[sampled - rejected:],
        malicious_sampled=mal_sampled, malicious_accepted=mal_accepted,
        upload_nbytes=up, download_nbytes=down, duration_s=secs,
        selected_ids=sampled_ids,
    )


def history_with(accs, **kw):
    h = History("s", "sc")
    for i, a in enumerate(accs, start=1):
        h.append(record(i, a, **kw))
    return h


class TestTailStats:
    def test_paper_skip_rule(self):
        """The paper skips the first 10 of 50 rounds — 20 %."""
        accs = [0.1] * 10 + [0.9] * 40
        mean, std = history_with(accs).tail_stats(skip_fraction=0.2)
        assert mean == pytest.approx(0.9)
        assert std == pytest.approx(0.0)

    def test_zero_skip(self):
        mean, _ = history_with([0.0, 1.0]).tail_stats(skip_fraction=0.0)
        assert mean == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            History("s", "sc").tail_stats()


class TestDetectionSummary:
    def test_perfect_defense(self):
        # every malicious rejected, no benign rejected
        h = History("s", "sc")
        h.append(RoundRecord(
            round_idx=1, accuracy=0.9, sampled_ids=[0, 1, 2, 3],
            accepted_ids=[0, 1], rejected_ids=[2, 3],
            malicious_sampled=2, malicious_accepted=0,
            upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        ))
        summary = h.detection_summary()
        assert summary["tpr"] == 1.0
        assert summary["fpr"] == 0.0

    def test_no_defense(self):
        h = History("s", "sc")
        h.append(RoundRecord(
            round_idx=1, accuracy=0.5, sampled_ids=[0, 1],
            accepted_ids=[0, 1], rejected_ids=[],
            malicious_sampled=1, malicious_accepted=1,
            upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        ))
        summary = h.detection_summary()
        assert summary["tpr"] == 0.0
        assert summary["fpr"] == 0.0

    def test_no_malicious_gives_nan_tpr(self):
        h = history_with([0.9], mal_sampled=0, mal_accepted=0, rejected=0)
        assert np.isnan(h.detection_summary()["tpr"])


class TestCommAndTime:
    def test_means(self):
        h = History("s", "sc")
        h.append(record(1, 0.5, up=1000, down=500, secs=1.0))
        h.append(record(2, 0.6, up=3000, down=1500, secs=2.0))
        comm = h.comm_per_round()
        assert comm["server_download_bytes"] == 2000
        assert comm["server_upload_bytes"] == 1000
        assert comm["total_bytes"] == 3000
        assert h.time_per_round() == pytest.approx(1.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            History("s", "sc").comm_per_round()
        with pytest.raises(ValueError):
            History("s", "sc").time_per_round()


class TestAccuracies:
    def test_series_order(self):
        h = history_with([0.1, 0.2, 0.3])
        np.testing.assert_allclose(h.accuracies, [0.1, 0.2, 0.3])

    def test_len(self):
        assert len(history_with([0.5] * 4)) == 4


def lossy_record(i, *, selected, delivered, bcast_drops=0, submit_drops=0):
    delivered_ids = list(range(delivered))
    return RoundRecord(
        round_idx=i, accuracy=0.5, sampled_ids=delivered_ids,
        accepted_ids=delivered_ids, rejected_ids=[],
        malicious_sampled=0, malicious_accepted=0,
        upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        selected_ids=list(range(selected)),
        broadcasts_dropped=bcast_drops, submits_dropped=submit_drops,
    )


class TestDeliverySummary:
    def test_lossless_rate_is_one(self):
        summary = history_with([0.5, 0.6]).delivery_summary()
        assert summary["selected"] == 8
        assert summary["delivered"] == 8
        assert summary["delivery_rate"] == 1.0
        assert summary["empty_rounds"] == 0
        assert summary["idle_rounds"] == 0

    def test_drops_open_gap(self):
        h = History("s", "sc")
        h.append(lossy_record(1, selected=4, delivered=2, submit_drops=2))
        summary = h.delivery_summary()
        assert summary["selected"] == 4
        assert summary["delivered"] == 2
        assert summary["delivery_rate"] == 0.5
        assert summary["submits_dropped"] == 2

    def test_empty_vs_idle_rounds(self):
        """empty = selected-but-nothing-arrived (transport failure);
        idle = nothing selected at all (not a transport failure)."""
        idle = RoundRecord(
            round_idx=2, accuracy=0.5, sampled_ids=[],
            accepted_ids=[], rejected_ids=[],
            malicious_sampled=0, malicious_accepted=0,
            upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        )
        h = History("s", "sc")
        h.append(lossy_record(1, selected=4, delivered=0, bcast_drops=4))
        h.append(idle)
        summary = h.delivery_summary()
        assert summary["empty_rounds"] == 1
        assert summary["idle_rounds"] == 1
        assert summary["selected"] == 4

    def test_all_idle_rate_is_nan(self):
        h = History("s", "sc")
        h.append(RoundRecord(
            round_idx=1, accuracy=0.5, sampled_ids=[],
            accepted_ids=[], rejected_ids=[],
            malicious_sampled=0, malicious_accepted=0,
            upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        ))
        summary = h.delivery_summary()
        assert np.isnan(summary["delivery_rate"])
        assert summary["idle_rounds"] == 1
        assert summary["empty_rounds"] == 0

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            History("s", "sc").delivery_summary()

    def test_sync_history_reports_no_flushes(self):
        summary = history_with([0.5, 0.6]).delivery_summary()
        assert summary["buffer_flushes"] == 0
        assert summary["stale_dropped"] == 0


def flush_record(i, *, sampled, stale_dropped=0):
    """An async flush: aggregates arrivals dispatched in earlier windows."""
    sampled_ids = list(range(sampled))
    return RoundRecord(
        round_idx=i, accuracy=0.5, sampled_ids=sampled_ids,
        accepted_ids=sampled_ids, rejected_ids=[],
        malicious_sampled=0, malicious_accepted=0,
        upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        metrics={"buffer_flush": 1, "stale_dropped": stale_dropped},
        selected_ids=[],
    )


class TestDeliverySummaryAsync:
    def test_flush_without_dispatches_is_not_idle(self):
        """A flush fed entirely by earlier windows' arrivals selects nobody
        itself — that is pipelining, not an idle round."""
        h = History("s", "sc")
        h.append(flush_record(1, sampled=3))
        summary = h.delivery_summary()
        assert summary["buffer_flushes"] == 1
        assert summary["idle_rounds"] == 0

    def test_flush_of_earlier_arrivals_selects_nobody(self):
        """A flush fed only by an earlier window's arrival dispatched no
        client of its own; its record must not claim the arrival's client
        as selected, or the delivery rate undercounts."""
        config = FederationConfig.tiny(
            server_mode="async", buffer_size=1, async_concurrency=2, rounds=4
        )
        history = run_cell(config, "fedavg", "no_attack")
        assert [r.selected_ids for r in history.rounds][1::2] == [[], []]
        summary = history.delivery_summary()
        assert summary["selected"] == summary["delivered"] == 4
        assert summary["delivery_rate"] == 1.0
        assert summary["idle_rounds"] == 0

    def test_stale_dropped_sums_across_flushes(self):
        h = History("s", "sc")
        h.append(flush_record(1, sampled=3, stale_dropped=1))
        h.append(flush_record(2, sampled=2, stale_dropped=2))
        summary = h.delivery_summary()
        assert summary["buffer_flushes"] == 2
        assert summary["stale_dropped"] == 3

    def test_sync_idle_round_still_counts(self):
        """The flush exclusion must not swallow genuine sync idle rounds."""
        idle = RoundRecord(
            round_idx=1, accuracy=0.5, sampled_ids=[],
            accepted_ids=[], rejected_ids=[],
            malicious_sampled=0, malicious_accepted=0,
            upload_nbytes=0, download_nbytes=0, duration_s=0.1,
        )
        h = History("s", "sc")
        h.append(idle)
        h.append(flush_record(2, sampled=3))
        assert h.delivery_summary()["idle_rounds"] == 1
