"""Detector-quality analysis beyond the paper's fixed mean threshold.

The paper's defenses all binarize a per-update score (audit accuracy,
reconstruction error) at the round mean. This module evaluates the
*score* itself: sweep every possible threshold and compute the ROC curve
and AUC of "malicious vs benign" separation. An AUC near 1.0 means the
mean threshold has a wide margin to work with; an AUC near 0.5 means no
threshold would help — which separates "the rule is fragile" from "the
signal is absent" when a defense fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.strategy import mean_cutoff

__all__ = ["roc_curve", "auc", "DetectionReport", "detection_report"]


def roc_curve(
    scores: np.ndarray, malicious: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC of flagging updates whose score is *below* a threshold.

    Higher score = more benign (FedGuard's audit accuracy). For
    error-style scores (Spectral), pass the negated score.

    Returns (fpr, tpr, thresholds), threshold-sorted ascending.
    """
    scores = np.asarray(scores, dtype=np.float64)
    malicious = np.asarray(malicious, dtype=bool)
    if scores.shape != malicious.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {malicious.shape}")
    n_pos = int(malicious.sum())
    n_neg = int((~malicious).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one malicious and one benign score")

    thresholds = np.unique(scores)
    # flag score <= threshold; include -inf so (0,0) is on the curve
    thresholds = np.concatenate([[-np.inf], thresholds])
    tpr = np.empty(thresholds.size)
    fpr = np.empty(thresholds.size)
    for i, threshold in enumerate(thresholds):
        flagged = scores <= threshold
        tpr[i] = (flagged & malicious).sum() / n_pos
        fpr[i] = (flagged & ~malicious).sum() / n_neg
    return fpr, tpr, thresholds


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2 renamed trapz


def auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a (fpr, tpr) curve via the trapezoid rule."""
    order = np.argsort(fpr, kind="stable")
    return float(_trapezoid(np.asarray(tpr)[order], np.asarray(fpr)[order]))


@dataclass(frozen=True)
class DetectionReport:
    """Separation quality of one round's update scores."""

    auc: float
    mean_threshold_tpr: float
    mean_threshold_fpr: float
    benign_score_mean: float
    malicious_score_mean: float

    @property
    def margin(self) -> float:
        """Benign-minus-malicious mean score gap (the audit's headroom)."""
        return self.benign_score_mean - self.malicious_score_mean


def detection_report(scores: np.ndarray, malicious: np.ndarray) -> DetectionReport:
    """Full report: ROC AUC plus the paper's mean-threshold operating point.

    The operating point flags exactly the updates the filtering defenses
    reject (:func:`~repro.fl.strategy.mean_cutoff`), so a tied round
    flags none.
    """
    scores = np.asarray(scores, dtype=np.float64)
    malicious = np.asarray(malicious, dtype=bool)
    fpr, tpr, _ = roc_curve(scores, malicious)
    flagged = ~mean_cutoff(scores)
    n_pos = malicious.sum()
    n_neg = (~malicious).sum()
    return DetectionReport(
        auc=auc(fpr, tpr),
        mean_threshold_tpr=float((flagged & malicious).sum() / n_pos),
        mean_threshold_fpr=float((flagged & ~malicious).sum() / n_neg),
        benign_score_mean=float(scores[~malicious].mean()),
        malicious_score_mean=float(scores[malicious].mean()),
    )
