"""Kernel SVM trained with a simplified SMO pass structure.

Each one-vs-rest binary problem is optimized pairwise: sweep the
training set, and for every multiplier violating its KKT condition by
more than ``tolerance`` pick a random partner from a seeded stream and
solve the two-variable subproblem analytically.  Optimization ends after
``max_passes`` consecutive sweeps without a change (plus a hard sweep
cap as a safety net).  The pairwise update keeps sum(alpha_i * y_i) = 0
and 0 <= alpha_i <= C throughout.  The loop keeps alpha * y up to date in
place and does its scalar work on Python floats, with every floating-point
operation in the textbook order, so the SMO path and its results are those
of a direct transcription of the algorithm.

Kernels: poly  (gamma * <x, y> + coef0) ** degree
         rbf   exp(-gamma * ||x - y||^2)

Multiclass prediction takes the argmax of the one-vs-rest decision
values; ties resolve to the lowest class label.  Features are
standardized inside fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import mix_seed
from .base import Scaler, VectorDataset, check_features, standardize_fit
from .spec import ClassifierSpec

__all__ = ["BinarySvm", "SvmModel", "fit_svm", "kernel_matrix"]

_MIN_ALPHA_STEP = 1e-5
_SWEEP_CAP = 1000


def kernel_matrix(
    spec: ClassifierSpec, A: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]) for the spec's kernel."""
    gamma = spec["gamma"]
    if spec["kernel"] == "poly":
        return (gamma * (A @ B.T) + spec["coef0"]) ** spec["degree"]
    sq = (
        np.sum(A * A, axis=1)[:, None]
        - 2.0 * (A @ B.T)
        + np.sum(B * B, axis=1)[None, :]
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class BinarySvm:
    """One binary subproblem: support vectors, dual coefs alpha*y, bias."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float

    def decision_values(self, spec: ClassifierSpec, X: np.ndarray) -> np.ndarray:
        if self.support_vectors.shape[0] == 0:
            return np.full(X.shape[0], self.bias)
        K = kernel_matrix(spec, X, self.support_vectors)
        return K @ self.dual_coefs + self.bias


@dataclass(frozen=True)
class SvmModel:
    spec: ClassifierSpec
    class_labels: np.ndarray
    scaler: Scaler
    binaries: list[BinarySvm]  # one per class, in class_labels order
    n_features: int

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = self.scaler.transform(check_features(X, self.n_features))
        return np.column_stack(
            [b.decision_values(self.spec, X) for b in self.binaries]
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_values(X)
        if scores.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return self.class_labels[np.argmax(scores, axis=1)]


def _smo(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tolerance: float,
    max_passes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Solve one binary dual problem; returns (alphas, bias)."""
    m = y.size
    a = [0.0] * m  # the alphas
    ay = np.zeros(m) * y  # alphas * y, updated where alphas change
    # Python-float copies for the scalar work; columns are views of K
    ys = y.tolist()
    diag = np.diagonal(K).tolist()
    columns = [K[:, i] for i in range(m)]
    dot = ay.dot  # same product as np.dot(ay, column), minus the dispatch
    b = 0.0
    quiet_passes = 0
    sweeps = 0
    while quiet_passes < max_passes and sweeps < _SWEEP_CAP:
        changed = 0
        for i in range(m):
            y_i = ys[i]
            E_i = float(dot(columns[i])) + b - y_i
            violates = (y_i * E_i < -tolerance and a[i] < C) or (
                y_i * E_i > tolerance and a[i] > 0
            )
            if not violates:
                continue
            j = int(rng.integers(0, m - 1))
            if j >= i:
                j += 1
            y_j = ys[j]
            E_j = float(dot(columns[j])) + b - y_j
            a_i_old, a_j_old = a[i], a[j]
            if y_i != y_j:
                L = max(0.0, a_j_old - a_i_old)
                H = min(C, C + a_j_old - a_i_old)
            else:
                L = max(0.0, a_i_old + a_j_old - C)
                H = min(C, a_i_old + a_j_old)
            if L == H:
                continue
            K_ij = float(K[i, j])
            eta = 2.0 * K_ij - diag[i] - diag[j]
            if eta >= 0:
                continue
            a_j = a_j_old - y_j * (E_i - E_j) / eta
            a_j = min(H, max(L, a_j))
            if abs(a_j - a_j_old) < _MIN_ALPHA_STEP:
                continue
            a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
            a[i], a[j] = a_i, a_j
            ay[i], ay[j] = a_i * y_i, a_j * y_j
            b1 = (
                b
                - E_i
                - y_i * (a_i - a_i_old) * diag[i]
                - y_j * (a_j - a_j_old) * K_ij
            )
            b2 = (
                b
                - E_j
                - y_i * (a_i - a_i_old) * K_ij
                - y_j * (a_j - a_j_old) * diag[j]
            )
            if 0 < a_i < C:
                b = b1
            elif 0 < a_j < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            changed += 1
        quiet_passes = quiet_passes + 1 if changed == 0 else 0
        sweeps += 1
    return np.array(a, dtype=np.float64), b


def fit_svm(spec: ClassifierSpec, data: VectorDataset, seed: int) -> SvmModel:
    if data.n_samples < 2:
        raise ValueError("svm needs at least two training samples")
    class_labels = np.unique(data.labels)
    if class_labels.size < 2:
        raise ValueError("svm needs at least two classes")
    scaler = standardize_fit(data.features)
    X = scaler.transform(data.features)
    K = kernel_matrix(spec, X, X)

    binaries = []
    for c, label in enumerate(class_labels):
        y = np.where(data.labels == label, 1.0, -1.0)
        rng = np.random.default_rng(mix_seed(seed, c))
        alphas, b = _smo(
            K, y, spec["C"], spec["tolerance"], spec["max_passes"], rng
        )
        keep = alphas > 0
        binaries.append(
            BinarySvm(
                support_vectors=X[keep].copy(),
                dual_coefs=(alphas * y)[keep],
                bias=b,
            )
        )
    return SvmModel(
        spec=spec,
        class_labels=class_labels,
        scaler=scaler,
        binaries=binaries,
        n_features=data.n_features,
    )
