"""Per-round experiment records.

:class:`History` is the primary artifact a federated run produces — the
accuracy series behind Fig. 4/5 and the tail-window statistics behind
Table IV all derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundRecord", "History"]


@dataclass
class RoundRecord:
    """Everything measured in one federated round.

    ``sampled_ids`` are the clients whose updates actually reached
    aggregation; ``selected_ids`` are everyone the round dispatched. With the
    default lossless transport a sync round's two lists coincide, and the
    drop counters are zero; a lossy channel opens a gap between them
    (dropout / stragglers). An async flush fed only by earlier windows'
    arrivals dispatched nobody, so its ``selected_ids`` stay empty.
    """

    round_idx: int
    accuracy: float
    sampled_ids: list[int]
    accepted_ids: list[int]
    rejected_ids: list[int]
    malicious_sampled: int
    malicious_accepted: int
    upload_nbytes: int      # server downloads (client -> server), delivered
    download_nbytes: int    # server uploads (server -> client), delivered
    duration_s: float
    metrics: dict = field(default_factory=dict)
    selected_ids: list[int] = field(default_factory=list)
    broadcasts_dropped: int = 0
    submits_dropped: int = 0

    @property
    def delivered_updates(self) -> int:
        """How many client updates survived both transport directions."""
        return len(self.sampled_ids)


class History:
    """Accumulates :class:`RoundRecord` objects and derives statistics."""

    def __init__(self, strategy_name: str, scenario_name: str) -> None:
        self.strategy_name = strategy_name
        self.scenario_name = scenario_name
        self.rounds: list[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        self.rounds.append(record)

    def __len__(self) -> int:
        return len(self.rounds)

    # -- series ---------------------------------------------------------------
    @property
    def accuracies(self) -> np.ndarray:
        """Per-round global test accuracy (the Fig. 4 / Fig. 5 series)."""
        return np.array([r.accuracy for r in self.rounds])

    # -- Table IV statistic -----------------------------------------------------
    def tail_stats(self, skip_fraction: float = 0.2) -> tuple[float, float]:
        """Mean ± std accuracy over the converged tail of training.

        The paper averages the last 40 of 50 rounds ("we do not average the
        10 first rounds of training because the model has not converged
        yet"); ``skip_fraction=0.2`` generalizes that 10/50 split to any
        round count.
        """
        if not self.rounds:
            raise ValueError("history is empty")
        skip = int(len(self.rounds) * skip_fraction)
        tail = self.accuracies[skip:]
        return float(tail.mean()), float(tail.std())

    # -- detection quality ---------------------------------------------------
    def detection_summary(self) -> dict:
        """Aggregate malicious-update filtering quality across rounds.

        ``tpr``: fraction of malicious submissions that were rejected;
        ``fpr``: fraction of benign submissions that were rejected.
        Strategies that do not filter (FedAvg/GeoMed) have tpr = fpr = 0.
        """
        malicious_seen = sum(r.malicious_sampled for r in self.rounds)
        malicious_in = sum(r.malicious_accepted for r in self.rounds)
        benign_seen = sum(len(r.sampled_ids) - r.malicious_sampled for r in self.rounds)
        benign_rejected = sum(
            len(r.rejected_ids) - (r.malicious_sampled - r.malicious_accepted)
            for r in self.rounds
        )
        return {
            "tpr": 1.0 - malicious_in / malicious_seen if malicious_seen else float("nan"),
            "fpr": benign_rejected / benign_seen if benign_seen else float("nan"),
            "malicious_sampled": malicious_seen,
            "malicious_accepted": malicious_in,
        }

    # -- transport quality ------------------------------------------------------
    def delivery_summary(self) -> dict:
        """Aggregate transport reliability across rounds.

        ``delivery_rate`` is delivered updates over selected participants —
        1.0 on a lossless channel. ``empty_rounds`` counts rounds where
        clients were selected but no update arrived (the global model idles
        through those); ``idle_rounds`` counts rounds where nothing was
        selected in the first place, which is not a transport failure.

        Async buffer flushes are accounted separately: a flush that
        aggregated only arrivals dispatched in an *earlier* window selects
        nobody in its own window, which is normal pipelining — not an idle
        round — so flush records are excluded from ``idle_rounds`` and
        reported as ``buffer_flushes`` (with the total of updates the
        staleness bound discarded in ``stale_dropped``).
        """
        if not self.rounds:
            raise ValueError("history is empty")
        selected = sum(len(r.selected_ids) for r in self.rounds)
        delivered = sum(r.delivered_updates for r in self.rounds)
        flushes = [r for r in self.rounds if r.metrics.get("buffer_flush")]
        return {
            "selected": selected,
            "delivered": delivered,
            "delivery_rate": delivered / selected if selected else float("nan"),
            "broadcasts_dropped": sum(r.broadcasts_dropped for r in self.rounds),
            "submits_dropped": sum(r.submits_dropped for r in self.rounds),
            "empty_rounds": sum(
                1
                for r in self.rounds
                if r.selected_ids and not r.sampled_ids
            ),
            "idle_rounds": sum(
                1
                for r in self.rounds
                if not r.selected_ids and not r.metrics.get("buffer_flush")
            ),
            "buffer_flushes": len(flushes),
            "stale_dropped": sum(
                r.metrics.get("stale_dropped", 0) for r in self.rounds
            ),
        }

    # -- Table V statistics ---------------------------------------------------
    def comm_per_round(self) -> dict:
        """Mean bytes per round in both directions (Table V columns)."""
        if not self.rounds:
            raise ValueError("history is empty")
        uploads = np.array([r.upload_nbytes for r in self.rounds], dtype=np.float64)
        downloads = np.array([r.download_nbytes for r in self.rounds], dtype=np.float64)
        return {
            "server_download_bytes": float(uploads.mean()),
            "server_upload_bytes": float(downloads.mean()),
            "total_bytes": float((uploads + downloads).mean()),
        }

    def time_per_round(self) -> float:
        """Mean wall-clock seconds per round (Table V last column)."""
        if not self.rounds:
            raise ValueError("history is empty")
        return float(np.mean([r.duration_s for r in self.rounds]))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        tail = f", final_acc={self.rounds[-1].accuracy:.3f}" if self.rounds else ""
        return (
            f"History({self.strategy_name!r}, {self.scenario_name!r}, "
            f"rounds={len(self.rounds)}{tail})"
        )
