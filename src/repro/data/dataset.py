"""In-memory labeled dataset container and mini-batch iteration."""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Dataset"]


class Dataset:
    """A (features, labels) pair with convenience views for FL experiments.

    Features are a contiguous (N, D) float64 array; subsets produced by
    :meth:`subset` copy their rows so that per-client partitions are
    independent (a client poisoning its local data must not corrupt the
    global arrays).
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        image_size: int | None = None,
    ) -> None:
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D (N, D), got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} samples"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels out of range for num_classes")
        self.features = features
        self.labels = labels
        self.num_classes = num_classes
        self.image_size = image_size

    # -- basic protocol -----------------------------------------------------
    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    # -- views / derivation ---------------------------------------------------
    def subset(self, indices: np.ndarray) -> "Dataset":
        """Independent copy of the selected rows (fancy indexing copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices],
            self.labels[indices],
            num_classes=self.num_classes,
            image_size=self.image_size,
        )

    @staticmethod
    def concat(first: "Dataset", second: "Dataset") -> "Dataset":
        """Concatenate two compatible datasets (used by streaming clients)."""
        if first.num_classes != second.num_classes or first.dim != second.dim:
            raise ValueError(
                f"incompatible datasets: ({first.dim}, {first.num_classes}) vs "
                f"({second.dim}, {second.num_classes})"
            )
        return Dataset(
            np.concatenate([first.features, second.features]),
            np.concatenate([first.labels, second.labels]),
            num_classes=first.num_classes,
            image_size=first.image_size,
        )

    def tail(self, n: int) -> "Dataset":
        """The most recent ``n`` samples (streaming retention window)."""
        if n >= len(self):
            return self
        return self.subset(np.arange(len(self) - n, len(self)))

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        """Same features, different labels (used by data-poisoning attacks)."""
        return Dataset(
            self.features, np.asarray(labels, dtype=np.int64),
            num_classes=self.num_classes, image_size=self.image_size,
        )

    def class_counts(self) -> np.ndarray:
        """Histogram of labels over ``num_classes`` bins."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def classes_present(self) -> np.ndarray:
        """Sorted array of the classes that have at least one sample."""
        return np.flatnonzero(self.class_counts() > 0)

    # -- iteration -------------------------------------------------------------
    def batches(
        self,
        batch_size: int,
        rng: np.random.Generator | None = None,
        drop_last: bool = False,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (features, labels) mini-batches.

        With an ``rng``, the epoch order is a fresh permutation; without,
        batches are sequential (deterministic evaluation order).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        n = len(self)
        order = rng.permutation(n) if rng is not None else np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if drop_last and idx.size < batch_size:
                return
            yield self.features[idx], self.labels[idx]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Dataset(n={len(self)}, dim={self.dim}, "
            f"classes={self.num_classes}, image_size={self.image_size})"
        )
