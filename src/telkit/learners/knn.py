"""K-nearest-neighbours by memorization.

Distance ties between neighbours resolve to the lower sample index,
neighbour-vote ties to the lower class label, so predictions are
deterministic.

The k nearest of a row are the first k of its training indices stably
sorted by Euclidean distance, that is in (distance, index) order.  They
are selected without a full sort: the k-th smallest distance d_k comes
from a partial partition, the indices at distance <= d_k are taken in
ascending order, and that subset alone is stably sorted by distance.
This is exact: the first k entries of the (distance, index) order all
lie at distance <= d_k, and a stable sort of the subset keeps its index
order among equal distances, so it starts with the same k indices.
Features are checked finite, so every distance is finite or +inf and
never NaN, and ``<=`` is a total order on them.  A distance overflows to
+inf once differences pass about 1e154; it is then farther than every
finite one, and the rows at +inf are ranked among themselves, stably, by
their distance with the training rows and the query scaled by one power
of two, at which no difference overflows.  Scaling by a power of two is
exact short of underflow, so this keeps their order, and no finite
distance changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (VectorDataset, check_features, check_finite_field, check_rank,
                   majority_labels)
from .spec import ClassifierSpec

__all__ = ["KnnModel", "fit_knn"]


@dataclass(frozen=True)
class KnnModel:
    """Memorized training rows; at least one finite row, one label per
    row, and ``class_labels`` the distinct labels, checked when it is
    built."""

    spec: ClassifierSpec
    class_labels: np.ndarray
    train_features: np.ndarray
    train_labels: np.ndarray

    def __post_init__(self):
        check_rank("knn class_labels", self.class_labels, 1)
        if self.train_features.ndim != 2 or self.train_features.shape[0] < 1:
            raise ValueError(
                f"knn train_features has shape {list(self.train_features.shape)}, "
                f"expected at least one row of features"
            )
        check_finite_field("knn train_features", self.train_features)
        rows = self.train_features.shape[0]
        if self.train_labels.shape != (rows,):
            raise ValueError(
                f"knn train_labels has shape {list(self.train_labels.shape)}, "
                f"expected one label per row of train_features ({rows})"
            )
        if not np.array_equal(self.class_labels, np.unique(self.train_labels)):
            raise ValueError(
                f"knn class_labels {self.class_labels.tolist()} are not the "
                f"distinct train_labels {np.unique(self.train_labels).tolist()}"
            )

    @property
    def n_features(self) -> int:
        return int(self.train_features.shape[1])

    def neighbours(self, X: np.ndarray) -> np.ndarray:
        """``(k, rows)`` training indices of each row's k nearest, nearest
        first, with k clamped to the training-set size."""
        X = check_features(X, self.n_features)
        k = min(self.spec["k"], self.train_features.shape[0])
        nearest = np.empty((k, X.shape[0]), dtype=np.int64)
        with np.errstate(over="ignore"):
            for i, row in enumerate(X):
                dists = np.linalg.norm(self.train_features - row, axis=1)
                kth = np.partition(dists, k - 1)[k - 1]
                near = (dists <= kth).nonzero()[0]  # ascending indices
                order = near[dists[near].argsort(kind="stable")]
                if kth == np.inf:
                    self._order_far(row, order, dists[order] == np.inf)
                nearest[:, i] = order[:k]
        return nearest

    def _order_far(self, row: np.ndarray, order: np.ndarray, far: np.ndarray) -> None:
        """Stably sort the ``far`` tail of ``order``, the rows whose distance
        overflowed, by their distance at a power-of-two scale."""
        rows = order[far]  # ascending indices, past every finite distance
        points = self.train_features[rows]
        exponent = np.frexp(max(np.abs(points).max(), np.abs(row).max()))[1]
        scaled = np.linalg.norm(
            np.ldexp(points, -exponent) - np.ldexp(row, -exponent), axis=1
        )
        order[far] = rows[scaled.argsort(kind="stable")]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return majority_labels(self.train_labels[self.neighbours(X)])


def fit_knn(spec: ClassifierSpec, data: VectorDataset, seed: int) -> KnnModel:
    return KnnModel(
        spec=spec,
        class_labels=np.unique(data.labels),
        train_features=data.features.copy(),
        train_labels=data.labels.copy(),
    )
