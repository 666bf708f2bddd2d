"""Multinomial logistic regression trained by gradient descent.

Loss: mean cross-entropy plus an L2 penalty on the weights (bias
excluded).  Features are standardized inside fit; weights start at zero
so training is deterministic.  Descent stops when the gradient norm
drops to 1e-6 or after ``max_iterations`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (Scaler, VectorDataset, check_features, check_finite_field,
                   check_rank, check_shape, standardize_fit, two_class_labels)
from .spec import ClassifierSpec

__all__ = ["LogitModel", "fit_logit", "logit_loss", "logit_gradient"]

GRADIENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LogitModel:
    """Weights and bias per class over standardized features; their shapes
    and the scaler's agree with the width and ``class_labels``, and every
    value is finite, checked when it is built."""

    spec: ClassifierSpec
    class_labels: np.ndarray
    scaler: Scaler
    weights: np.ndarray  # features x classes
    bias: np.ndarray  # classes

    def __post_init__(self):
        check_rank("logit class_labels", self.class_labels, 1)
        if self.weights.ndim == 0:  # no rows to read the width from
            check_rank("logit weights", self.weights, 2)
        width, classes = self.n_features, self.class_labels.size
        check_shape("logit weights", self.weights, (width, classes))
        check_shape("logit bias", self.bias, (classes,))
        check_shape("logit scaler mean", self.scaler.mean, (width,))
        check_shape("logit scaler std", self.scaler.std, (width,))
        check_finite_field("logit weights", self.weights)
        check_finite_field("logit bias", self.bias)
        check_finite_field("logit scaler mean", self.scaler.mean)
        check_finite_field("logit scaler std", self.scaler.std)

    @property
    def n_features(self) -> int:
        return int(self.weights.shape[0])

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.n_features)
        return self.scaler.transform(X) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.class_labels[np.argmax(self.decision_values(X), axis=1)]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def logit_loss(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float
) -> float:
    """Regularized mean cross-entropy; ``Y`` is one-hot."""
    scores = X @ W + b
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_prob = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    data_term = -float(np.sum(Y * log_prob)) / X.shape[0]
    return data_term + 0.5 * l2 * float(np.sum(W * W))


def logit_gradient(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of :func:`logit_loss` in (W, b)."""
    P = _softmax(X @ W + b)
    diff = (P - Y) / X.shape[0]
    return X.T @ diff + l2 * W, diff.sum(axis=0)


def fit_logit(spec: ClassifierSpec, data: VectorDataset, seed: int) -> LogitModel:
    class_labels = two_class_labels(data.labels, "logit")
    scaler = standardize_fit(data.features)
    X = scaler.transform(data.features)
    Y = (data.labels[:, None] == class_labels[None, :]).astype(np.float64)

    l2 = spec["l2_penalty"]
    rate = spec["learning_rate"]
    W = np.zeros((data.n_features, class_labels.size))
    b = np.zeros(class_labels.size)
    for _ in range(spec["max_iterations"]):
        gW, gb = logit_gradient(W, b, X, Y, l2)
        grad_norm = np.sqrt(np.sum(gW * gW) + np.sum(gb * gb))
        if grad_norm <= GRADIENT_TOLERANCE:
            break
        W = W - rate * gW
        b = b - rate * gb
    return LogitModel(
        spec=spec, class_labels=class_labels, scaler=scaler, weights=W, bias=b
    )
