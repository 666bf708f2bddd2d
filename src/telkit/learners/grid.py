"""Exhaustive grid search with k-fold cross validation.

``grid_search_cv`` is the one tuner, over one or more datasets.  Folds
are contiguous blocks of a seeded shuffle, identical for every
candidate, so two identical specs score identically and the earliest
grid position wins ties.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..seeding import mix_seed
from .base import VectorDataset, accuracy
from .spec import ClassifierSpec

__all__ = ["kfold_indices", "cross_val_accuracy", "grid_search_cv"]


def kfold_indices(
    n_samples: int, folds: int, seed: int
) -> list[np.ndarray]:
    """Validation index blocks: seeded shuffle split into ``folds`` runs."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > n_samples:
        raise ValueError(
            f"cannot make {folds} nonempty folds from {n_samples} samples"
        )
    perm = np.random.default_rng(seed).permutation(n_samples)
    return [block for block in np.array_split(perm, folds)]


def cross_val_accuracy(
    spec: ClassifierSpec, data: VectorDataset, folds: int, seed: int
) -> float:
    """Mean validation accuracy of ``spec`` over the deterministic folds."""
    from . import fit  # deferred: grid depends on the dispatcher

    blocks = kfold_indices(data.n_samples, folds, seed)
    all_idx = np.arange(data.n_samples)
    scores = []
    for f, val_idx in enumerate(blocks):
        train_idx = np.setdiff1d(all_idx, val_idx)
        model = fit(spec, data.subset(train_idx), mix_seed(seed, f))
        predicted = model.predict(data.features[val_idx])
        scores.append(accuracy(predicted, data.labels[val_idx]))
    return float(np.mean(scores))


def grid_search_cv(
    grid: Sequence[ClassifierSpec],
    datasets: Sequence[VectorDataset],
    folds: int,
    seed: int,
) -> ClassifierSpec:
    """The grid entry with highest mean CV accuracy (ties: earliest).

    A spec scores the mean of its CV accuracies over ``datasets``, added
    in the given order; the datasets may differ in width (telvi's factor
    columns).  A one-spec grid is returned once the folds are validated.
    """
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    if len(datasets) == 0:
        raise ValueError("datasets must not be empty")
    if len(grid) == 1:
        for data in datasets:  # still validate folds
            kfold_indices(data.n_samples, folds, seed)
        return grid[0]
    scores = [
        np.mean([cross_val_accuracy(spec, d, folds, seed) for d in datasets])
        for spec in grid
    ]
    return grid[int(np.argmax(scores))]  # argmax: the first of equal maxima
