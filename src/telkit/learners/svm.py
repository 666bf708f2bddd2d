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
of a direct transcription of the algorithm.  Two things make it cheaper
without changing a bit: partners are drawn m at a time from the seeded
stream (numpy gives the same indices as one draw per violation, and the
generator is left advanced past the last partner used), and each error
E_k = sum(alpha * y * K[:, k]) + b - y_k is cached with the count of
accepted steps and reused until the next accepted step (Keerthi et al.,
2001), since alpha and b change only then.

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
from .base import (Scaler, VectorDataset, check_features, check_finite_field,
                   check_rank, check_shape, standardize_fit, two_class_labels)
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
    """One binary per class over standardized features; the scaler, the
    support vectors and the dual coefficients fit the width and each
    other, and every value is finite, checked when it is built."""

    spec: ClassifierSpec
    class_labels: np.ndarray
    scaler: Scaler
    binaries: list[BinarySvm]  # one per class, in class_labels order
    n_features: int

    def __post_init__(self):
        check_rank("svm class_labels", self.class_labels, 1)
        check_shape("svm scaler mean", self.scaler.mean, (self.n_features,))
        check_shape("svm scaler std", self.scaler.std, (self.n_features,))
        check_finite_field("svm scaler mean", self.scaler.mean)
        check_finite_field("svm scaler std", self.scaler.std)
        if len(self.binaries) != self.class_labels.size:
            raise ValueError(
                f"svm has {len(self.binaries)} binaries, expected one per "
                f"class of class_labels {self.class_labels.tolist()}"
            )
        for c, b in enumerate(self.binaries):
            check_rank(f"svm binary {c} support_vectors", b.support_vectors, 2)
            rows = len(b.support_vectors)
            check_shape(f"svm binary {c} support_vectors", b.support_vectors,
                        (rows, self.n_features))
            check_shape(f"svm binary {c} dual_coefs", b.dual_coefs, (rows,))
            for name in ("support_vectors", "dual_coefs", "bias"):
                check_finite_field(f"svm binary {c} {name}", getattr(b, name))

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """One column per binary; a row that overflows raises, so argmax
        never sees a NaN."""
        X = check_features(X, self.n_features)
        with np.errstate(over="ignore", invalid="ignore"):
            X = self.scaler.transform(X)
            values = np.column_stack(
                [b.decision_values(self.spec, X) for b in self.binaries]
            )
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"svm decision values of row {row} are not finite")
        return values

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.class_labels[np.argmax(self.decision_values(X), axis=1)]


def _smo(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tolerance: float,
    max_passes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Solve one binary dual problem; returns (alphas, bias).

    Partners come from a buffer of m draws, refilled only when a violation
    finds it empty, so ``rng`` is left advanced past the last partner used
    (by up to m - 1 draws).  ``errors[k]`` holds E_k as computed after
    ``stamps[k]`` accepted steps and is reused while that count stands: it
    is the same function of the same alphas and bias, so it has the same
    bits.  E_j is read only after the ``L == H`` and ``eta >= 0`` exits.
    """
    m = y.size
    a = [0.0] * m  # the alphas
    ay = np.zeros(m) * y  # alphas * y, updated where alphas change
    # Python-float copies for the scalar work; columns are views of K
    ys = y.tolist()
    diag = np.diagonal(K).tolist()
    columns = [K[:, i] for i in range(m)]
    dot = ay.dot  # same product as np.dot(ay, column), minus the dispatch
    errors = [0.0] * m  # E_k = ay . K[:, k] + b - y_k, as last computed
    stamps = [-1] * m  # the accepted-step count when errors[k] was computed
    steps = 0
    partners: list[int] = []
    drawn = 0  # partners of the buffer used so far
    low = -tolerance
    b = 0.0
    quiet_passes = 0
    sweeps = 0
    while quiet_passes < max_passes and sweeps < _SWEEP_CAP:
        sweep_start = steps
        for i, y_i in enumerate(ys):
            if stamps[i] == steps:
                E_i = errors[i]
            else:
                E_i = float(dot(columns[i])) + b - y_i
                errors[i] = E_i
                stamps[i] = steps
            # KKT violation: y_i E_i < -tol with a_i < C, or > tol with a_i > 0
            r_i = y_i * E_i
            if r_i < low:
                if not a[i] < C:
                    continue
            elif not (r_i > tolerance and a[i] > 0):
                continue
            if drawn == len(partners):
                partners = rng.integers(0, m - 1, size=m).tolist()
                drawn = 0
            j = partners[drawn]
            drawn += 1
            if j >= i:
                j += 1
            y_j = ys[j]
            a_i_old, a_j_old = a[i], a[j]
            if y_i != y_j:
                L = a_j_old - a_i_old
                H = C + a_j_old - a_i_old
            else:
                L = a_i_old + a_j_old - C
                H = a_i_old + a_j_old
            # max(0.0, L) and min(C, H), spelled out: same values, no call
            if not L > 0.0:
                L = 0.0
            if not H < C:
                H = C
            if L == H:
                continue
            K_ij = K.item(i, j)
            eta = 2.0 * K_ij - diag[i] - diag[j]
            if eta >= 0:
                continue
            if stamps[j] == steps:
                E_j = errors[j]
            else:
                E_j = float(dot(columns[j])) + b - y_j
                errors[j] = E_j
                stamps[j] = steps
            a_j = a_j_old - y_j * (E_i - E_j) / eta
            # min(H, max(L, a_j)), spelled out
            if not a_j > L:
                a_j = L
            if not a_j < H:
                a_j = H
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
            steps += 1
        quiet_passes = quiet_passes + 1 if steps == sweep_start else 0
        sweeps += 1
    return np.array(a, dtype=np.float64), b


def fit_svm(spec: ClassifierSpec, data: VectorDataset, seed: int) -> SvmModel:
    class_labels = two_class_labels(data.labels, "svm")
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
                support_vectors=X[keep],
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
