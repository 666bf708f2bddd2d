"""Tensor ensemble learning and the classical bagging baseline.

The tensor route trains one base learner per factor-matrix column:

1. decompose every training sample by HOSVD at a shared multilinear rank;
2. regroup column r of each sample's mode-n factor into dataset (n, r);
3. train one base learner per dataset (sum of ranks learners in total);
4. classify new samples by majority vote over the learners' labels for
   the sample's own factor columns.

``telvi_fit`` runs steps 1-3; ``telvi_fit_regrouped`` runs step 3 alone, so
a caller that tuned on the regrouped datasets does not decompose twice.

The bagging baseline flattens samples column-major, reduces with PCA and
trains the same base-learner kind on bootstrap resamples.

``predict_votes`` is the one prediction path of every model kind, used by
the harness, the CLI and ``telvi_predict``/``bagging_predict``; for step 4
each learner predicts the stacked factor columns of a whole sample set in
one call.  All routes share the vote tally and its tie rule (lowest class
label wins ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .hosvd import HosvdFactors, MultilinearRank, hosvd
from .learners import ClassifierSpec, TrainedModel, VectorDataset, fit
from .linalg import PcaModel, pca_fit, pca_transform
from .seeding import mix_seed
from .tensor import DenseTensor

__all__ = [
    "LabeledTensorDataset",
    "TelviModel",
    "BaggingModel",
    "VoteTally",
    "majority_vote",
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


@dataclass(frozen=True)
class LabeledTensorDataset:
    """Same-shape tensor samples with integer class labels."""

    samples: list[DenseTensor]
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.samples) != labels.size:
            raise ValueError(
                f"{len(self.samples)} samples but {labels.size} labels"
            )
        if len(self.samples) > 0:
            shape = self.samples[0].shape
            for x in self.samples:
                if x.shape != shape:
                    raise ValueError(
                        f"samples disagree in shape: {x.shape} vs {shape}"
                    )
        if labels.size > 0 and labels.min() < 0:
            raise ValueError("labels must be nonnegative integers")
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.samples[0].shape

    def subset(self, indices: Sequence[int]) -> "LabeledTensorDataset":
        return LabeledTensorDataset(
            [self.samples[i] for i in indices], self.labels[list(indices)]
        )


@dataclass(frozen=True)
class VoteTally:
    """Per-class vote weight and the winning label."""

    counts: dict[int, float]
    winner: int

    @property
    def total(self) -> float:
        return float(sum(self.counts.values()))


def majority_vote(
    votes: Sequence[int], weights: Sequence[float] | None = None
) -> VoteTally:
    """Tally votes; the heaviest label wins, ties to the lowest label."""
    if len(votes) == 0:
        raise ValueError("majority_vote needs at least one vote")
    if weights is None:
        weights = [1.0] * len(votes)
    if len(weights) != len(votes):
        raise ValueError("one weight per vote required")
    counts: dict[int, float] = {}
    for vote, weight in zip(votes, weights):
        counts[int(vote)] = counts.get(int(vote), 0.0) + float(weight)
    winner = min(counts, key=lambda label: (-counts[label], label))
    return VoteTally(counts=counts, winner=winner)


def regroup(
    decompositions: Sequence[HosvdFactors], labels: np.ndarray
) -> dict[tuple[int, int], VectorDataset]:
    """Regroup factor columns into one dataset per (mode, component).

    Dataset (n, r) holds, for each sample m, column r of sample m's
    mode-n factor matrix, paired with the sample's unchanged label.
    """
    if len(decompositions) == 0:
        raise ValueError("regroup needs at least one decomposition")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != len(decompositions):
        raise ValueError(
            f"{len(decompositions)} decompositions but {labels.size} labels"
        )
    rank = decompositions[0].effective_rank
    shape = decompositions[0].shape
    for d in decompositions:
        if d.effective_rank != rank or d.shape != shape:
            raise ValueError(
                "decompositions disagree in effective rank or shape: "
                f"{d.effective_rank}/{d.shape} vs {rank}/{shape}"
            )
    datasets: dict[tuple[int, int], VectorDataset] = {}
    for n, r_n in enumerate(rank):
        for r in range(r_n):
            rows = np.stack([d.factors[n][:, r] for d in decompositions])
            datasets[(n, r)] = VectorDataset(rows, labels.copy())
    return datasets


@dataclass(frozen=True)
class TelviModel:
    """Trained factor-vector ensemble."""

    rank: MultilinearRank
    shape: tuple[int, ...]
    base_spec: ClassifierSpec
    base_models: dict[tuple[int, int], TrainedModel]
    class_labels: np.ndarray
    seed: int

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
    decompositions = [hosvd(x, rank) for x in data.samples]
    return telvi_fit_regrouped(
        regroup(decompositions, data.labels), data.shape, base, seed
    )


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
    keys = sorted(datasets)
    labels = datasets[keys[0]].labels
    if labels.size < 2:
        raise ValueError("training needs at least two samples")
    class_labels = np.unique(labels)
    if class_labels.size < 2:
        raise ValueError("training needs at least two classes")
    base_models = {
        key: fit(base, datasets[key], mix_seed(seed, flat))
        for flat, key in enumerate(keys)
    }
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


def telvi_votes(model: TelviModel, samples: Sequence[DenseTensor]) -> np.ndarray:
    """Each learner's labels for its factor column of every sample (of the
    model's shape): row k is learner k in sorted (mode, component) order.
    """
    factors = [hosvd(x, model.rank).factors for x in samples]
    return np.stack([
        model.base_models[(n, r)].predict(np.stack([f[n][:, r] for f in factors]))
        for n, r in sorted(model.base_models)
    ])


def telvi_predict(
    model: TelviModel,
    x: DenseTensor,
    weights: Sequence[float] | None = None,
) -> tuple[int, VoteTally]:
    """Majority vote of the base learners on the sample's factor columns.

    Optional per-voter ``weights`` follow the sorted (mode, component)
    key order; the default is uniform.
    """
    _, votes = predict_votes(model, [x])
    tally = majority_vote(votes[:, 0].tolist(), weights)
    return tally.winner, tally


def flatten_samples(samples: Sequence[DenseTensor]) -> np.ndarray:
    """Column-major vectorization, one sample per row."""
    return np.stack([x.data for x in samples])


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

    @property
    def n_estimators(self) -> int:
        return len(self.estimators)


def bootstrap_indices(n_samples: int, seed: int) -> np.ndarray:
    """Seeded resample-with-replacement index multiset of size n."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_samples, size=n_samples)


def bagging_fit(
    data: LabeledTensorDataset,
    n_estimators: int,
    pca_dim: int,
    base: ClassifierSpec,
    seed: int,
) -> BaggingModel:
    """Vectorize, reduce with PCA, train on bootstrap resamples."""
    if data.n_samples < 2:
        raise ValueError("training needs at least two samples")
    vectors = flatten_samples(data.samples)
    pca = pca_fit(vectors, pca_dim)
    reduced = VectorDataset(pca_transform(pca, vectors), data.labels)
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
    if reduced.n_samples < 2:
        raise ValueError("training needs at least two samples")
    if n_estimators < 1:
        raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
    estimators = []
    bootstrap_seeds = []
    for e in range(n_estimators):
        est_seed = mix_seed(seed, e)
        bootstrap_seeds.append(est_seed)
        idx = bootstrap_indices(reduced.n_samples, est_seed)
        estimators.append(fit(base, reduced.subset(idx), mix_seed(est_seed, 1)))
    return BaggingModel(
        shape=tuple(shape),
        pca=pca,
        base_spec=base,
        estimators=estimators,
        bootstrap_seeds=bootstrap_seeds,
        class_labels=np.unique(reduced.labels),
        seed=seed,
    )


def bagging_predict(
    model: BaggingModel,
    x: DenseTensor,
    weights: Sequence[float] | None = None,
) -> tuple[int, VoteTally]:
    """Flatten, project, and majority-vote the estimators."""
    _, votes = predict_votes(model, [x])
    tally = majority_vote(votes[:, 0].tolist(), weights)
    return tally.winner, tally


def predict_votes(
    model: TelviModel | BaggingModel | TrainedModel,
    samples: Sequence[DenseTensor],
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Every voter's label for every sample: ``(keys, votes)``, one row of
    ``votes`` per key and one column per sample.  telvi voters are keyed
    (mode, component), flat ones (bagging estimators, a single learner)
    (-1, index).  Shapes are all checked before any sample is decomposed.
    """
    if len(samples) == 0:
        raise ValueError("prediction needs at least one sample")
    if isinstance(model, (TelviModel, BaggingModel)):
        for index, x in enumerate(samples):
            if x.shape != model.shape:
                raise ValueError(
                    f"sample {index} shape {x.shape} does not match training "
                    f"shape {model.shape}"
                )
    if isinstance(model, TelviModel):
        return sorted(model.base_models), telvi_votes(model, samples)
    vectors = flatten_samples(samples)
    if isinstance(model, BaggingModel):
        vectors = pca_transform(model.pca, vectors)
        keys = [(-1, e) for e in range(model.n_estimators)]
        return keys, np.stack([est.predict(vectors) for est in model.estimators])
    return [(-1, 0)], model.predict(vectors)[None, :]


def majority_error_probability(p: float, n_voters: int) -> float:
    """Probability that a majority of independent voters is wrong.

    Binomial tail from ceil(N/2) to N at per-voter error ``p``,
    accumulated through log-binomial terms for numerical stability.
    An exact even split counts as wrong here (the vote operations
    instead resolve splits by the tie rule).
    """
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
