"""CART-style binary decision tree minimizing Gini impurity.

Split candidates are midpoints between consecutive sorted unique values
of each feature.  The split search sorts each feature once and scores
every candidate from prefix sums of class counts: O(d * n log n) per node
for n samples and d features, plus O(d * n) per class.  Candidates within
rounding distance of the best are rescored with the per-class Gini
formula, so the chosen split, tie order included, is the one a direct
evaluation of every threshold would choose.  Growth stops at a pure node,
at ``max_depth`` or when fewer than ``min_samples_split`` samples remain;
leaves carry the majority label (ties to the lowest label).  Tie-breaking
between equally good splits: lowest feature index, then lowest threshold,
so training is deterministic without any randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import VectorDataset, check_features, majority_label
from .spec import ClassifierSpec

__all__ = ["TreeNode", "TreeModel", "fit_tree"]


@dataclass(frozen=True)
class TreeNode:
    """Internal split (feature, threshold, children) or leaf (label)."""

    label: int | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class TreeModel:
    spec: ClassifierSpec
    class_labels: np.ndarray
    root: TreeNode
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.n_features)
        out = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.label
        return out


# Shortlist margin for the vectorised scan, in weighted-Gini units.  The
# scan's score differs from the per-class formula below by a few ulps of a
# value in [0, 1]; every candidate within this margin of the best one is
# rescored exactly.
_SHORTLIST_MARGIN = 1e-9


def _gini(counts: np.ndarray, size: int) -> float:
    """Gini impurity from class counts, summed over the present classes."""
    present = counts[counts > 0]
    p = present / size
    return 1.0 - float(np.sum(p * p))


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """(feature, threshold) of the lowest (weighted_gini, feature, threshold)."""
    n = y.size
    codes = np.unique(y, return_inverse=True)[1]
    totals = np.bincount(codes)
    columns = np.ascontiguousarray(X.T)  # one row per feature
    order = np.argsort(columns, axis=1, kind="stable")
    xs = np.take_along_axis(columns, order, axis=1)
    ys = codes[order]

    # n * weighted_gini = n - S_L / n_L - S_R / n_R, with S = sum_c count_c^2
    # on each side, so the best split maximises S_L / n_L + S_R / n_R.
    # Prefix sums give S_L and S_R at every split point k = 1..n-1.
    left_sq = np.zeros((xs.shape[0], n - 1), dtype=np.int64)
    right_sq = np.zeros_like(left_sq)
    for c, total in enumerate(totals):
        count = np.cumsum(ys[:, :-1] == c, axis=1)
        left_sq += count * count
        right_sq += (total - count) ** 2
    n_left = np.arange(1, n)
    score = left_sq / n_left + right_sq / (n - n_left)

    lo, hi = xs[:, :-1], xs[:, 1:]
    thresholds = (lo + hi) / 2.0
    score[lo == hi] = -np.inf
    # a midpoint that rounds onto hi (or overflows) moves the split point
    moved = (lo < hi) & ((thresholds < lo) | (thresholds >= hi))
    moved_left = {}
    for f, k in zip(*np.nonzero(moved)):
        left = int(np.searchsorted(xs[f], thresholds[f, k], side="right"))
        counts = np.bincount(ys[f, :left], minlength=totals.size)
        rest = totals - counts
        moved_left[f, k] = left
        score[f, k] = (
            (counts @ counts) / max(left, 1) + (rest @ rest) / max(n - left, 1)
        )
    top = score.max()
    if top == -np.inf:
        return None

    best = None  # (weighted_gini, feature, threshold)
    for f, k in zip(*np.nonzero(score >= top - n * _SHORTLIST_MARGIN)):
        left = moved_left.get((f, k), int(k) + 1)
        counts = np.bincount(ys[f, :left], minlength=totals.size)
        exact = (
            left * _gini(counts, left)
            + (n - left) * _gini(totals - counts, n - left)
        ) / n
        key = (exact, int(f), thresholds[f, k])
        if best is None or key < best:
            best = key
    return best[1], best[2]


def _grow(X: np.ndarray, y: np.ndarray, depth: int, spec: ClassifierSpec) -> TreeNode:
    if (
        np.unique(y).size == 1
        or depth >= spec["max_depth"]
        or y.size < spec["min_samples_split"]
    ):
        return TreeNode(label=majority_label(y))
    split = _best_split(X, y)
    if split is None:
        return TreeNode(label=majority_label(y))
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, spec),
        right=_grow(X[~mask], y[~mask], depth + 1, spec),
    )


def fit_tree(spec: ClassifierSpec, data: VectorDataset, seed: int) -> TreeModel:
    if data.n_samples < 2:
        raise ValueError("tree needs at least two training samples")
    class_labels = np.unique(data.labels)
    if class_labels.size < 2:
        raise ValueError("tree needs at least two classes")
    root = _grow(data.features, data.labels, 0, spec)
    return TreeModel(
        spec=spec,
        class_labels=class_labels,
        root=root,
        n_features=data.n_features,
    )
