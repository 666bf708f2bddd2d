"""Tensor ensemble learning and the classical bagging baseline.

The tensor route trains one base learner per factor-matrix column:

1. decompose every training sample by HOSVD at a shared multilinear rank,
   all samples in one ``hosvd_factors`` call (factors only, no cores);
2. regroup column r of each sample's mode-n factor into dataset (n, r);
3. train one base learner per dataset (sum of ranks learners in total);
4. classify new samples by majority vote over the learners' labels for
   the sample's own factor columns.

Each step has one home.  ``factor_columns`` runs steps 1-2 for training
(through ``regroup``) and prediction alike; ``telvi_fit_regrouped`` runs
step 3, so a caller that tuned on the regrouped datasets does not
decompose twice, and ``telvi_fit`` is ``regroup`` then step 3.  Step 2
slices columns with ``_columns``, which also takes the full-rank factors
of a rank search: a rank-searched run decomposes each training sample
once, for the search, and regroups from those factors.

The bagging baseline reads ``LabeledTensorDataset.data``'s rows as the
samples' vectors, reduces with PCA and trains the same base-learner kind
on bootstrap resamples; a resample that holds one class is drawn again
from its estimator's generator, so every estimator fits on two classes
or more.  Training labels pass
``learners.base.two_class_labels``, the one training-set rule of every
fit.  Each model checks itself when it is built, by a fit or the model
reader alike: ``TelviModel`` its rank against its shape and one learner
key per factor column, ``BaggingModel`` its PCA against its shape and
one bootstrap seed in [0, 2**64) per estimator, and all three each
voter's width and class labels (``_check_voter``).  Each reads its shape
by the one shape rule, ``tensor._check_shape``, and ``TelviModel`` its
rank by the one rank rule, ``hosvd._check_rank``, a rank that must equal
its own clamp (``clamp_rank``, one entry per dimension): a model built in
Python and one read from a file meet the same rules.

``predict_votes`` is the one prediction path of every model kind, used by
the harness, the CLI and ``telvi_predict``/``bagging_predict``; for step 4
each learner predicts its factor column of every sample in one call.
Every vote, a whole vote matrix or one sample's, is combined by
``learners.majority_labels`` (ties to the lowest class label);
``telvi_predict`` and ``bagging_predict`` add the tally, an int vote count
per label.

The fit stages and the votes are independent per learner, so each runs
through ``telkit._pool.run``, the one batch runner, one job per learner,
estimator or voter, with the same seeds and the results in key order;
it pools them above the work gate passed here (``_POOL_FIT_ROWS`` by
learner kind, ``_POOL_KNN_VOTES``), with the bits of its serial loop.
Votes are never split by sample: logit and svm predictions go through
BLAS products, whose rounding may depend on the number of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import _pool
from .canonical import check_array, check_number
from .hosvd import MultilinearRank, _check_rank, clamp_rank, hosvd_factors
from .learners import (ClassifierSpec, KnnModel, TrainedModel, VectorDataset,
                       fit, majority_labels)
from .learners.base import two_class_labels
from .linalg import PcaModel, pca_fit, pca_transform
from .seeding import mix_seed
from .tensor import DenseTensor, _check_shape, _empty_rows, _rows

__all__ = [
    "LabeledTensorDataset",
    "TelviModel",
    "BaggingModel",
    "SingleModel",
    "VoteTally",
    "factor_columns",
    "regroup",
    "telvi_fit",
    "telvi_fit_regrouped",
    "telvi_predict",
    "bagging_fit",
    "bagging_fit_reduced",
    "bagging_predict",
    "predict_votes",
    "majority_error_probability",
]

# Work gates of the batches run on ``_pool``, from measurements on 2 CPUs
# against a pool that costs 10-25 ms to open, fill and close (CHANGES.md).
# A fit stage pools from this many training rows summed over its learners.
# A knn fit only copies its rows and a tree fit stage ran slower pooled at
# every measured size, so knn and tree fit stages never pool.
_POOL_FIT_ROWS = {"logit": 512, "svm": 256}
# A knn vote costs 20 us or more per row; a tree, logit or svm vote costs
# about 1 us (a tree walk or a BLAS product), so only knn votes pool, from
# this many rows summed over the voters.
_POOL_KNN_VOTES = 2048


@dataclass(frozen=True)
class LabeledTensorDataset:
    """One or more same-shape tensor samples with 1-d integer class labels.
    ``data`` is their entries as one read-only array of rows (``tensor._rows``):
    the one every set read or generated is built from (``from_rows``), whose
    rows its samples view, or else their stack, made on first use."""

    samples: list[DenseTensor]
    labels: np.ndarray

    def __post_init__(self):
        labels = check_array(self.labels, "labels", integral=True)
        if not self.samples:
            raise ValueError("a sample set needs at least one sample")
        if labels.ndim != 1:
            raise ValueError(f"labels must be a 1-d array, got shape {labels.shape}")
        if len(self.samples) != labels.size:
            raise ValueError(f"{len(self.samples)} samples but {labels.size} labels")
        for x in self.samples:
            if x.shape != self.samples[0].shape:
                raise ValueError(f"samples disagree in shape: {x.shape} vs "
                                 f"{self.samples[0].shape}")
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative integers")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_rows(cls, data, shape, labels) -> "LabeledTensorDataset":
        """The set whose ``data`` is ``data``, rows of samples of ``shape``."""
        data, shape = _rows(data, shape)
        dataset = cls([DenseTensor(shape, row) for row in data], labels)
        object.__setattr__(dataset, "data", data)  # fills the cache below
        return dataset

    @cached_property
    def data(self) -> np.ndarray:
        rows = _empty_rows(len(self.samples), math.prod(self.shape))
        return _rows(np.stack([x.data for x in self.samples], out=rows), self.shape)[0]

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.samples[0].shape

    def subset(self, indices: Sequence[int]) -> "LabeledTensorDataset":
        """The samples at ``indices``, sharing this set's rows: a subset
        keeps the whole array of a set read or generated alive, and
        ``from_rows(part.data, part.shape, part.labels)`` gives a subset
        ``part`` an array of its own."""
        return LabeledTensorDataset(
            [self.samples[i] for i in indices], self.labels[list(indices)]
        )


@dataclass(frozen=True)
class VoteTally:
    """Votes per class label and the winning label."""

    counts: dict[int, int]
    winner: int

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _vote(votes: np.ndarray) -> tuple[int, VoteTally]:
    """Winner and tally of one sample's ``(voters, 1)`` votes."""
    winner = int(majority_labels(votes)[0])
    labels, counts = np.unique(votes, return_counts=True)
    tally = {int(label): int(count) for label, count in zip(labels, counts)}
    return winner, VoteTally(counts=tally, winner=winner)


def factor_columns(
    data: np.ndarray, shape: Sequence[int], rank: Sequence[int]
) -> dict[tuple[int, int], np.ndarray]:
    """Steps 1-2 of TEL on the rows of ``data``, samples of ``shape``: the
    ``(M, I_n)`` matrix (n, r) holds column r of each sample's mode-n
    factor at ``rank`` (clamped), one row per sample."""
    return _columns(*hosvd_factors(data, shape, rank))


def _columns(
    stacks: Sequence[np.ndarray], rank: MultilinearRank
) -> dict[tuple[int, int], np.ndarray]:
    """``factor_columns`` at ``rank`` from ``hosvd_factors`` stacks of at
    least ``rank`` columns: a rank-R factor is the first R columns of any
    higher-rank one, bit for bit, so full-rank stacks serve every rank."""
    return {
        (n, r): np.ascontiguousarray(stack[:, :, r])
        for n, (stack, r_n) in enumerate(zip(stacks, rank))
        for r in range(r_n)
    }


def regroup(
    data: LabeledTensorDataset, rank: Sequence[int]
) -> dict[tuple[int, int], VectorDataset]:
    """One dataset per (mode, component): ``factor_columns`` of the
    samples, each row paired with its sample's label."""
    return _labeled(factor_columns(data.data, data.shape, rank), data.labels)


def _labeled(
    columns: Mapping[tuple[int, int], np.ndarray], labels: np.ndarray
) -> dict[tuple[int, int], VectorDataset]:
    """Each factor column matrix paired with the samples' labels."""
    return {key: VectorDataset(column, labels) for key, column in columns.items()}


@dataclass(frozen=True)
class TelviModel:
    """Trained factor-vector ensemble."""

    rank: MultilinearRank
    shape: tuple[int, ...]
    base_spec: ClassifierSpec
    base_models: dict[tuple[int, int], TrainedModel]
    class_labels: np.ndarray
    seed: int

    def __post_init__(self):
        shape, rank = _check_shape(self.shape), _check_rank(self.rank)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rank", rank)
        clamped = clamp_rank(rank, shape)
        if clamped != rank:
            raise ValueError(f"telvi rank {list(rank)} exceeds its clamp "
                             f"{list(clamped)} for shape {list(shape)}")
        # one learner per factor column: keys (n, r) for r < rank[n], no others
        expected = {(n, r) for n, r_n in enumerate(rank) for r in range(r_n)}
        offending = sorted(set(self.base_models) ^ expected)
        if offending:
            key = offending[0]
            problem = "unexpected" if key in self.base_models else "missing"
            raise ValueError(f"telvi base_models key '{key[0]},{key[1]}' is "
                             f"{problem} for rank {list(rank)}")
        for (n, r), learner in sorted(self.base_models.items()):
            _check_voter(learner, f"telvi base_models key '{n},{r}'", shape[n],
                         self.class_labels)

    @property
    def n_learners(self) -> int:
        return len(self.base_models)


def telvi_fit(
    data: LabeledTensorDataset,
    rank: Sequence[int],
    base: ClassifierSpec,
    seed: int,
) -> TelviModel:
    """Decompose, regroup and train one base learner per factor column."""
    return telvi_fit_regrouped(regroup(data, rank), data.shape, base, seed)


def telvi_fit_regrouped(
    datasets: Mapping[tuple[int, int], VectorDataset],
    shape: tuple[int, ...],
    base: ClassifierSpec,
    seed: int,
) -> TelviModel:
    """Train one base learner per dataset from ``regroup`` of samples of
    ``shape``.  Learner (n, r) trains with seed mix_seed(seed, flat index),
    so a parallel training schedule cannot change the result.
    """
    seed = check_number(seed, "seed", integral=True)
    keys = sorted(datasets)
    class_labels = two_class_labels(datasets[keys[0]].labels, "training")
    rows = sum(datasets[key].n_samples for key in keys)
    base_models = dict(zip(keys, _pool.run(
        lambda flat: fit(base, datasets[keys[flat]], mix_seed(seed, flat)),
        range(len(keys)), rows >= _POOL_FIT_ROWS.get(base.kind, math.inf),
    )))
    # regroup makes datasets (n, 0) .. (n, R_n - 1) for every mode n
    rank = tuple(sum(1 for m, _ in keys if m == n) for n in range(len(shape)))
    return TelviModel(
        rank=rank,
        shape=tuple(shape),
        base_spec=base,
        base_models=base_models,
        class_labels=class_labels,
        seed=seed,
    )


def telvi_predict(model: TelviModel, x: DenseTensor) -> tuple[int, VoteTally]:
    """Majority vote of the base learners on the sample's factor columns."""
    return _vote(predict_votes(model, x.data.reshape(1, -1), x.shape)[1])


@dataclass(frozen=True)
class BaggingModel:
    """PCA-reduced bootstrap ensemble over vectorized samples."""

    shape: tuple[int, ...]
    pca: PcaModel
    base_spec: ClassifierSpec
    estimators: list[TrainedModel]
    bootstrap_seeds: list[int]
    class_labels: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_shape(self.shape))
        size, components = math.prod(self.shape), self.pca.components
        if self.pca.mean.size != size:
            raise ValueError(f"bagging pca mean has length {self.pca.mean.size}, "
                             f"expected {size} for shape {list(self.shape)}")
        if components.ndim != 2 or components.shape[0] != size:
            raise ValueError(f"bagging pca components have shape "
                             f"{list(components.shape)}, expected [{size}, k] "
                             f"for shape {list(self.shape)}")
        for e, learner in enumerate(self.estimators):
            _check_voter(learner, f"bagging estimator {e}", self.pca.retained,
                         self.class_labels)
        if len(self.bootstrap_seeds) != len(self.estimators):
            raise ValueError(f"bagging bootstrap_seeds has length "
                             f"{len(self.bootstrap_seeds)}, expected "
                             f"{len(self.estimators)}, one per estimator")
        for e, seed in enumerate(self.bootstrap_seeds):
            if not 0 <= seed < 2**64:  # the range of mix_seed
                raise ValueError(f"bagging bootstrap_seeds[{e}] must be in "
                                 f"[0, 2**64), got {seed}")

    @property
    def n_estimators(self) -> int:
        return len(self.estimators)


def _check_voter(learner: TrainedModel, where: str, width: int, class_labels=None):
    """Reject the voter ``learner`` at ``where`` in a model unless it knows
    only the model's ``class_labels``, if given, and takes ``width`` features."""
    labels = learner.class_labels
    if class_labels is not None and np.setdiff1d(labels, class_labels).size:
        raise ValueError(f"{where} has class labels {labels.tolist()} outside "
                         f"the model's {class_labels.tolist()}")
    if learner.n_features != width:
        raise ValueError(f"{where} has width {learner.n_features}, expected {width}")


def _resample(labels: np.ndarray, seed: int) -> np.ndarray:
    """A seeded resample with replacement of ``labels.size`` indices, drawn
    again from the same generator while it holds one class: every base
    learner then fits on two classes or more, as the training set does."""
    rng = np.random.default_rng(seed)
    while True:
        idx = rng.integers(0, labels.size, size=labels.size)
        if np.any(labels[idx] != labels[idx[0]]):
            return idx


def bagging_fit(
    data: LabeledTensorDataset,
    n_estimators: int,
    pca_dim: int,
    base: ClassifierSpec,
    seed: int,
) -> BaggingModel:
    """Vectorize, reduce with PCA, train on bootstrap resamples."""
    pca = pca_fit(data.data, pca_dim)
    reduced = VectorDataset(pca_transform(pca, data.data), data.labels)
    return bagging_fit_reduced(pca, reduced, data.shape, n_estimators, base, seed)


def bagging_fit_reduced(
    pca: PcaModel,
    reduced: VectorDataset,
    shape: tuple[int, ...],
    n_estimators: int,
    base: ClassifierSpec,
    seed: int,
) -> BaggingModel:
    """Train on bootstrap resamples of ``reduced``, the training samples of
    ``shape`` flattened and projected by ``pca``.
    """
    class_labels = two_class_labels(reduced.labels, "training")
    seed = check_number(seed, "seed", integral=True)
    n_estimators = check_number(n_estimators, "n_estimators", integral=True)
    if n_estimators < 1:
        raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
    bootstrap_seeds = [mix_seed(seed, e) for e in range(n_estimators)]
    estimators = _pool.run(
        lambda e: _fit_estimator(base, reduced, bootstrap_seeds[e]),
        range(n_estimators),
        reduced.n_samples * n_estimators >= _POOL_FIT_ROWS.get(base.kind, math.inf),
    )
    return BaggingModel(
        shape=tuple(shape),
        pca=pca,
        base_spec=base,
        estimators=estimators,
        bootstrap_seeds=bootstrap_seeds,
        class_labels=class_labels,
        seed=seed,
    )


def _fit_estimator(base, reduced: VectorDataset, est_seed: int) -> TrainedModel:
    """The bagging estimator of seed ``est_seed``, fitted on its resample."""
    idx = _resample(reduced.labels, est_seed)
    return fit(base, reduced.subset(idx), mix_seed(est_seed, 1))


@dataclass(frozen=True)
class SingleModel:
    """One base learner on the flattened samples of ``shape``."""

    shape: tuple[int, ...]
    learner: TrainedModel

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_shape(self.shape))
        _check_voter(self.learner, "single model", math.prod(self.shape))


def bagging_predict(model: BaggingModel, x: DenseTensor) -> tuple[int, VoteTally]:
    """Project the sample's entries and majority-vote the estimators."""
    return _vote(predict_votes(model, x.data.reshape(1, -1), x.shape)[1])


def predict_votes(
    model: TelviModel | BaggingModel | SingleModel,
    data: np.ndarray,
    shape: Sequence[int],
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every voter's label for every sample of ``shape`` in the rows of
    ``data``: ``(keys, votes)``, one row of ``votes`` per key and one
    column per sample.  telvi voters are keyed (mode, component), flat
    ones (bagging estimators, a single learner) (-1, index).  ``shape`` is
    checked against the training shape before any sample is decomposed;
    any other model type, a bare learner too, raises TypeError."""
    if not isinstance(model, (TelviModel, BaggingModel, SingleModel)):
        raise TypeError(f"unknown model type {type(model).__name__}")
    data, shape = _rows(data, shape)
    if shape != model.shape:
        raise ValueError(f"sample shape {shape} does not match training "
                         f"shape {model.shape}")
    if isinstance(model, TelviModel):
        keys = sorted(model.base_models)
        columns = factor_columns(data, shape, model.rank)
        learners = [model.base_models[k] for k in keys]
        return keys, _votes(learners, [columns[k] for k in keys])
    if isinstance(model, BaggingModel):
        vectors = pca_transform(model.pca, data)
        keys = [(-1, e) for e in range(model.n_estimators)]
        return keys, _votes(model.estimators, [vectors] * model.n_estimators)
    return [(-1, 0)], _votes([model.learner], [data])


def _votes(
    learners: Sequence[TrainedModel], features: Sequence[np.ndarray]
) -> np.ndarray:
    """``learners[v].predict(features[v])`` as row v, one ``_pool`` job per
    voter, pooled above its work gate."""
    rows = sum(len(f) for f in features)
    pooled = isinstance(learners[0], KnnModel) and rows >= _POOL_KNN_VOTES
    return np.stack(_pool.run(
        lambda v: learners[v].predict(features[v]), range(len(learners)), pooled
    ))


def majority_error_probability(p: float, n_voters: int) -> float:
    """Probability that a majority of independent voters is wrong.

    Binomial tail from ceil(N/2) to N at per-voter error ``p``,
    accumulated through log-binomial terms for numerical stability.
    An exact even split counts as wrong here (the vote operations
    instead resolve splits by the tie rule).
    """
    p = check_number(p, "p")
    n_voters = check_number(n_voters, "n_voters", integral=True)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n_voters < 1:
        raise ValueError(f"n_voters must be >= 1, got {n_voters}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    total = 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    for n in range(math.ceil(n_voters / 2), n_voters + 1):
        log_term = (
            math.lgamma(n_voters + 1)
            - math.lgamma(n + 1)
            - math.lgamma(n_voters - n + 1)
            + n * log_p
            + (n_voters - n) * log_q
        )
        total += math.exp(log_term)
    return min(total, 1.0)
