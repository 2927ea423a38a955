"""Aggregation strategies: the paper's baselines and FedGuard itself.

Evaluation-table strategies: :class:`FedAvg`, :class:`GeoMed`,
:class:`Krum`, :class:`Spectral`, :class:`FedGuard`.

Extra related-work baselines for extended benchmarks:
:class:`CoordinateMedian`, :class:`TrimmedMean`, :class:`NormThresholding`,
:class:`Bulyan`, plus from-scratch reproductions of the two generative
defenses the paper could not find implementations of: :class:`PDGAN` and
:class:`FedCVAE`.
"""

from .bulyan import Bulyan
from .fedavg import FedAvg
from .fedcvae import FedCVAE
from .fedguard import FedGuard
from .geomed import GeoMed, geometric_median
from .krum import Krum, krum_scores, pairwise_sq_dists
from .pdgan import PDGAN
from .robust_stats import CoordinateMedian, NormThresholding, TrimmedMean
from .spectral import Spectral

__all__ = [
    "FedAvg",
    "GeoMed",
    "geometric_median",
    "Krum",
    "krum_scores",
    "pairwise_sq_dists",
    "Spectral",
    "FedGuard",
    "CoordinateMedian",
    "TrimmedMean",
    "NormThresholding",
    "Bulyan",
    "PDGAN",
    "FedCVAE",
]
