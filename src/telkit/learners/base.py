"""Shared learner plumbing: datasets, standardization, the plurality vote, and
``check_features``, every learner's input read by ``canonical.check_array``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..canonical import check_array, nonfinite_row

__all__ = ["VectorDataset", "Scaler", "standardize_fit", "majority_labels",
           "two_class_labels", "check_finite_field",
           "check_shape", "check_rank", "check_features", "accuracy"]


@dataclass(frozen=True)
class VectorDataset:
    """Fixed-width real feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = check_array(self.features, "features")
        labels = check_array(self.labels, "labels", integral=True)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d samples-by-dim matrix")
        if labels.ndim != 1 or labels.size != features.shape[0]:
            raise ValueError(f"label count {labels.size} does not match "
                             f"{features.shape[0]} feature rows")
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


def majority_labels(votes: np.ndarray) -> np.ndarray:
    """Plurality label of each column of a ``(voters, samples)`` label
    array; ties go to the lowest label."""
    n_voters, n_samples = np.shape(votes)
    if n_samples == 0:
        return np.empty(0, dtype=np.int64)
    if n_voters == 0:
        raise ValueError("majority_labels needs at least one voter")
    values = np.unique(votes)
    codes = np.searchsorted(values, votes)  # rank of each vote among the labels
    # row j counts sample j's votes; argmax picks the first, lowest, label
    cells = codes + values.size * np.arange(n_samples)
    counts = np.bincount(cells.ravel(), minlength=n_samples * values.size)
    return values[np.argmax(counts.reshape(n_samples, values.size), axis=1)]


def two_class_labels(labels: np.ndarray, who: str) -> np.ndarray:
    """The distinct ``labels`` of the training set ``who`` fits on: the
    one training-set rule, >= 2 samples of >= 2 classes."""
    if labels.size < 2:
        raise ValueError(f"{who} needs at least two samples")
    class_labels = np.unique(labels)
    if class_labels.size < 2:
        raise ValueError(f"{who} needs at least two classes")
    return class_labels


def check_finite_field(name: str, values) -> None:
    """Reject a model field ``name`` whose ``values`` (an array or a
    number) hold NaN or an infinity, by ``canonical.nonfinite_row``: every
    model checks each float field so when it is built, by a fit or from a
    file."""
    if nonfinite_row(values) is not None:
        raise ValueError(f"{name} has a non-finite value")


def check_shape(name: str, array: np.ndarray, expected: tuple[int, ...]) -> None:
    """Reject a model field ``name`` whose ``array`` is not of shape ``expected``."""
    if array.shape != expected:
        raise ValueError(
            f"{name} has shape {list(array.shape)}, expected {list(expected)}"
        )


def check_rank(name: str, array: np.ndarray, ndim: int) -> None:
    """Reject a model field ``name`` whose ``array`` is not ``ndim``-d."""
    if array.ndim != ndim:
        raise ValueError(
            f"{name} has shape {list(array.shape)}, expected a {ndim}-d array"
        )


def check_features(X: np.ndarray, expected_width: int) -> np.ndarray:
    """Every learner's input: finite float64 rows of ``expected_width`` features."""
    X = check_array(X, "features")
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if X.shape[1] != expected_width:
        raise ValueError(
            f"feature width {X.shape[1]} does not match training width "
            f"{expected_width}"
        )
    row = nonfinite_row(X)
    if row is not None:
        raise ValueError(f"feature row {row} has a non-finite value")
    return X


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.size != actual.size:
        raise ValueError("prediction/label length mismatch")
    if actual.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(predicted == actual))
