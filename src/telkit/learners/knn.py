"""K-nearest-neighbours by memorization.

Distance ties between neighbours resolve to the lower sample index,
neighbour-vote ties to the lower class label, so predictions are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import VectorDataset, check_features, majority_labels
from .spec import ClassifierSpec

__all__ = ["KnnModel", "fit_knn"]


@dataclass(frozen=True)
class KnnModel:
    spec: ClassifierSpec
    class_labels: np.ndarray
    train_features: np.ndarray
    train_labels: np.ndarray

    @property
    def n_features(self) -> int:
        return int(self.train_features.shape[1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.n_features)
        k = min(self.spec["k"], self.train_features.shape[0])
        nearest = np.empty((k, X.shape[0]), dtype=np.int64)
        for i, row in enumerate(X):
            dists = np.linalg.norm(self.train_features - row, axis=1)
            # stable sort keeps the lower index first on distance ties
            nearest[:, i] = np.argsort(dists, kind="stable")[:k]
        return majority_labels(self.train_labels[nearest])


def fit_knn(spec: ClassifierSpec, data: VectorDataset, seed: int) -> KnnModel:
    if data.n_samples < 1:
        raise ValueError("knn needs at least one training sample")
    return KnnModel(
        spec=spec,
        class_labels=np.unique(data.labels),
        train_features=data.features.copy(),
        train_labels=data.labels.copy(),
    )
