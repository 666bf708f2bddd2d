"""Shared learner plumbing: datasets, standardization, vote helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VectorDataset", "Scaler", "standardize_fit", "majority_label",
           "check_finite", "check_features", "accuracy"]


@dataclass(frozen=True)
class VectorDataset:
    """Fixed-width real feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d samples-by-dim matrix")
        if labels.ndim != 1 or labels.size != features.shape[0]:
            raise ValueError(
                f"label count {labels.size} does not match "
                f"{features.shape[0]} feature rows"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices: np.ndarray) -> "VectorDataset":
        return VectorDataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization; constant features map to 0."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        safe = np.where(self.std > 0, self.std, 1.0)
        out = (X - self.mean) / safe
        return np.where(self.std > 0, out, 0.0)


def standardize_fit(X: np.ndarray) -> Scaler:
    return Scaler(mean=X.mean(axis=0), std=X.std(axis=0))


def majority_label(labels: np.ndarray) -> int:
    """Most frequent label; ties go to the lowest label."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[np.argmax(counts)])


def check_finite(X: np.ndarray) -> None:
    """Reject NaN or infinite features, naming the first such row."""
    finite = np.isfinite(X)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"feature row {row} has a non-finite value")


def check_features(X: np.ndarray, expected_width: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if X.shape[1] != expected_width:
        raise ValueError(
            f"feature width {X.shape[1]} does not match training width "
            f"{expected_width}"
        )
    check_finite(X)
    return X


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.size != actual.size:
        raise ValueError("prediction/label length mismatch")
    if actual.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(predicted == actual))
