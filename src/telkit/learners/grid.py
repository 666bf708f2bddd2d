"""Exhaustive grid search with k-fold cross validation.

``grid_search_cv`` is the one tuner and the one cross-validation scorer,
over one or more datasets.  Folds are contiguous blocks of a seeded
shuffle (``kfold_indices``), identical for every candidate, and fold f
fits on the other blocks with seed mix_seed(seed, f), so two identical
specs score identically and the earliest grid position wins ties.  Its
fold fits are independent, so they run on ``telkit._pool``'s fork pool,
its first caller (a one-spec grid fits nothing), and the scores are
reduced in grid order: every score keeps its bits whatever the CPU count
(``taskset -c 0`` runs them serially).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import _pool
from ..canonical import check_number
from ..seeding import mix_seed
from .base import VectorDataset, accuracy
from .spec import ClassifierSpec

__all__ = ["kfold_indices", "grid_search_cv"]


def _check_folds(folds, key: str = "folds") -> int:
    """``folds`` by ``check_number``, an integer >= 2: the one folds rule."""
    folds = check_number(folds, key, integral=True)
    if folds < 2:
        raise ValueError(f"{key} must be >= 2, got {folds}")
    return folds


def _check_grid(grid, key: str = "grid") -> None:
    """Reject an empty ``grid``: the one grid rule."""
    if len(grid) == 0:
        raise ValueError(f"{key} must not be empty")


def kfold_indices(
    n_samples: int, folds: int, seed: int
) -> list[np.ndarray]:
    """Validation index blocks: seeded shuffle split into ``folds`` runs."""
    n_samples = check_number(n_samples, "n_samples", integral=True)
    folds, seed = _check_folds(folds), check_number(seed, "seed", integral=True)
    if folds > n_samples:
        raise ValueError(
            f"cannot make {folds} nonempty folds from {n_samples} samples"
        )
    perm = np.random.default_rng(seed).permutation(n_samples)
    return [block for block in np.array_split(perm, folds)]


def _job_accuracy(spec, data: VectorDataset, val_idx, seed: int) -> float:
    """Accuracy on ``data``'s block ``val_idx`` of ``spec`` fitted on the
    other rows with ``seed``."""
    from . import fit  # deferred: grid depends on the dispatcher

    train_idx = np.setdiff1d(np.arange(data.n_samples), val_idx)
    model = fit(spec, data.subset(train_idx), seed)
    return accuracy(model.predict(data.features[val_idx]), data.labels[val_idx])


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
    The (spec, dataset, fold) fits run on ``_pool.run``: a fork pool of
    one worker per CPU the process may use, or this process when that is
    one; a fit's exception is raised here either way.
    """
    _check_grid(grid)
    if len(datasets) == 0:
        raise ValueError("datasets must not be empty")
    blocks = [kfold_indices(data.n_samples, folds, seed) for data in datasets]
    folds = len(blocks[0])  # ``folds`` as ``kfold_indices`` read it
    if len(grid) == 1:
        return grid[0]
    jobs = [
        (s, d, f)
        for s in range(len(grid))
        for d in range(len(datasets))
        for f in range(folds)
    ]
    scores = _pool.run(lambda job: _job_accuracy(
        grid[job[0]], datasets[job[1]], blocks[job[1]][job[2]], mix_seed(seed, job[2])
    ), jobs)
    scores = np.reshape(scores, (len(grid), len(datasets), folds))
    means = [
        np.mean([float(np.mean(fold_scores)) for fold_scores in spec_scores])
        for spec_scores in scores
    ]
    return grid[int(np.argmax(means))]  # argmax: the first of equal maxima
