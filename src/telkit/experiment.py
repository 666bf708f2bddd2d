"""Experiment orchestration: load, split, tune, fit, evaluate, report.

Reports serialize canonically (sorted keys, fixed float formatting) so a
rerun with the same config and seed writes byte-identical files.  Wall
clock timings are collected on the report object but deliberately kept
out of the canonical bytes; the CLI prints them instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .canonical import canonical_json
from .ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    TelviModel,
    bagging_fit_reduced,
    flatten_samples,
    majority_vote,
    predict_votes,
    regroup,
    telvi_fit_regrouped,
)
from .hosvd import MultilinearRank, hosvd, rank_search
from .learners import (
    ClassifierSpec,
    TrainedModel,
    VectorDataset,
    accuracy,
    cross_val_accuracy,
    fit,
    grid_search_cv,
)
from .linalg import pca_fit, pca_transform
from .seeding import mix_seed
from .synth import SyntheticSpec, synth_generate

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentError",
    "tune_shared_spec",
    "train_test_split",
    "train_model",
    "run_experiment",
    "write_report",
    "write_learner_csv",
]

REPORT_FORMAT_VERSION = 1

METHODS = ("telvi", "bagging", "single")

# purpose tags for stage-level seed derivation
_SPLIT = 1
_TUNE = 2
_FIT = 3


class ExperimentError(RuntimeError):
    """An experiment stage failed; the message names the stage."""


def train_test_split(
    data: LabeledTensorDataset, train_fraction: float, seed: int
) -> tuple[LabeledTensorDataset, LabeledTensorDataset]:
    """Stratified split: per-class seeded shuffle, first ceil(f*c) train.

    The train share is clamped to c-1 per class so both sides stay
    nonempty; classes with fewer than two samples are rejected.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in np.unique(data.labels):
        members = np.flatnonzero(data.labels == label)
        if members.size < 2:
            raise ValueError(
                f"class {int(label)} has {members.size} sample(s); "
                "need at least 2 to split"
            )
        shuffled = members[rng.permutation(members.size)]
        n_train = int(np.ceil(train_fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    return data.subset(sorted(train_idx)), data.subset(sorted(test_idx))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a dataset source, a method and its knobs."""

    dataset_path: str | None = None
    image_dir: str | None = None
    synthetic: SyntheticSpec | None = None
    train_fraction: float = 0.5
    method: str = "telvi"
    rank: MultilinearRank | None = None
    rank_search_threshold: float | None = None
    base_grid: tuple[ClassifierSpec, ...] = ()
    cv_folds: int = 5
    n_estimators: int = 12
    pca_dim: int | None = None
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        sources = [
            s for s in (self.dataset_path, self.image_dir, self.synthetic)
            if s is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                f"exactly one dataset source required, got {len(sources)}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r} (choose from {METHODS})"
            )
        if len(self.base_grid) == 0:
            raise ValueError("base_grid must not be empty")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.method == "telvi":
            if (self.rank is None) == (self.rank_search_threshold is None):
                raise ValueError(
                    "telvi needs exactly one of rank / rank_search_threshold"
                )
        if self.method == "bagging" and self.pca_dim is None:
            raise ValueError("bagging requires pca_dim")
        if self.rank is not None:
            object.__setattr__(self, "rank", tuple(int(r) for r in self.rank))
        object.__setattr__(
            self, "base_grid", tuple(self.base_grid)
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        source = payload.get("dataset", {})
        synthetic = source.get("synthetic")
        return cls(
            dataset_path=source.get("path"),
            image_dir=source.get("image_dir"),
            synthetic=SyntheticSpec.from_dict(synthetic) if synthetic else None,
            train_fraction=float(payload.get("train_fraction", 0.5)),
            method=payload.get("method", "telvi"),
            rank=(
                tuple(payload["rank"]) if payload.get("rank") is not None
                else None
            ),
            rank_search_threshold=payload.get("rank_search_threshold"),
            base_grid=tuple(
                ClassifierSpec.from_dict(s) for s in payload.get("base_grid", ())
            ),
            cv_folds=int(payload.get("cv_folds", 5)),
            n_estimators=int(payload.get("n_estimators", 12)),
            pca_dim=(
                int(payload["pca_dim"]) if payload.get("pca_dim") is not None
                else None
            ),
            seed=int(payload.get("seed", 0)),
            output=payload.get("output"),
        )

    def to_dict(self) -> dict[str, Any]:
        dataset: dict[str, Any] = {}
        if self.dataset_path is not None:
            dataset["path"] = self.dataset_path
        if self.image_dir is not None:
            dataset["image_dir"] = self.image_dir
        if self.synthetic is not None:
            dataset["synthetic"] = self.synthetic.to_dict()
        out: dict[str, Any] = {
            "dataset": dataset,
            "train_fraction": self.train_fraction,
            "method": self.method,
            "base_grid": [s.to_dict() for s in self.base_grid],
            "cv_folds": self.cv_folds,
            "n_estimators": self.n_estimators,
            "seed": self.seed,
        }
        if self.rank is not None:
            out["rank"] = list(self.rank)
        if self.rank_search_threshold is not None:
            out["rank_search_threshold"] = self.rank_search_threshold
        if self.pca_dim is not None:
            out["pca_dim"] = self.pca_dim
        if self.output is not None:
            out["output"] = self.output
        return out


@dataclass
class ExperimentReport:
    """Evaluation results plus a config echo.

    ``timings`` is wall-clock and therefore excluded from the canonical
    serialization; everything else is deterministic per (config, seed).
    """

    config: dict[str, Any]
    method: str
    chosen_spec: dict[str, Any]
    per_learner: list[dict[str, Any]]
    ensemble_accuracy: float
    seed: int
    train_size: int
    test_size: int
    class_labels: list[int]
    effective_rank: list[int] | None = None
    format_version: int = REPORT_FORMAT_VERSION
    timings: dict[str, float] = field(default_factory=dict)

    def mean_learner_accuracy(self) -> float:
        return float(np.mean([e["accuracy"] for e in self.per_learner]))

    def to_canonical_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "format_version": self.format_version,
            "config": self.config,
            "method": self.method,
            "chosen_spec": self.chosen_spec,
            "per_learner_accuracy": self.per_learner,
            "ensemble_accuracy": self.ensemble_accuracy,
            "mean_learner_accuracy": self.mean_learner_accuracy(),
            "seed": self.seed,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "class_labels": self.class_labels,
        }
        if self.effective_rank is not None:
            out["effective_rank"] = self.effective_rank
        return out


def load_dataset(config: ExperimentConfig) -> LabeledTensorDataset:
    # imported here: io depends on ensemble, which this module also uses
    from .io import load_ppm_dir, load_tensor_dataset

    if config.dataset_path is not None:
        return load_tensor_dataset(config.dataset_path)
    if config.image_dir is not None:
        return load_ppm_dir(config.image_dir)
    return synth_generate(config.synthetic)


def tune_shared_spec(
    grid: Sequence[ClassifierSpec],
    datasets: Mapping[tuple[int, int], VectorDataset],
    folds: int,
    seed: int,
) -> ClassifierSpec:
    """Pick one spec for all factor-column datasets.

    The regrouped datasets have different widths, so they cannot be
    concatenated; the score of a candidate is instead its mean CV
    accuracy across the datasets.  Ties go to the earliest grid entry.
    """
    if len(grid) == 1:
        return grid[0]
    best_spec = None
    best_score = -1.0
    keys = sorted(datasets)
    for spec in grid:
        score = float(
            np.mean(
                [cross_val_accuracy(spec, datasets[k], folds, seed) for k in keys]
            )
        )
        if score > best_score:
            best_score = score
            best_spec = spec
    return best_spec


def _evaluate(
    model: TelviModel | BaggingModel | TrainedModel, test: LabeledTensorDataset
) -> tuple[list[dict[str, Any]], float]:
    """Per-voter accuracies and the accuracy of their majority vote."""
    keys, votes = predict_votes(model, test.samples)
    per_learner = [
        {"mode": n, "component": r, "accuracy": accuracy(row, test.labels)}
        for (n, r), row in zip(keys, votes)
    ]
    winners = [majority_vote(column.tolist()).winner for column in votes.T]
    return per_learner, accuracy(np.array(winners), test.labels)


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time a pipeline stage and tag any failure with its name."""
    started = time.perf_counter()
    try:
        yield
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(f"{name} stage failed: {exc}") from exc
    timings[f"{name}_s"] = time.perf_counter() - started


def train_model(
    config: ExperimentConfig,
    data: LabeledTensorDataset,
    timings: dict[str, float] | None = None,
) -> tuple[TelviModel | BaggingModel | TrainedModel, ClassifierSpec]:
    """Choose the rank, tune the spec and fit ``config.method`` on ``data``.

    The one training path of ``run_experiment`` (on its train split) and
    ``telkit train`` (on the whole dataset).  telvi decomposes each sample
    once and tunes and fits on the same factor datasets.  Stage times go
    into ``timings``; a failing stage raises ExperimentError naming it.
    """
    if timings is None:
        timings = {}
    grid = list(config.base_grid)
    tune_seed = mix_seed(config.seed, _TUNE)
    fit_seed = mix_seed(config.seed, _FIT)
    if config.method == "telvi":
        with _stage("decompose", timings):
            rank = config.rank
            if rank is None:
                rank = rank_search(data.samples, config.rank_search_threshold)
            decompositions = [hosvd(x, rank) for x in data.samples]
            datasets = regroup(decompositions, data.labels)
        with _stage("tune", timings):
            chosen = tune_shared_spec(grid, datasets, config.cv_folds, tune_seed)
        with _stage("fit", timings):
            model = telvi_fit_regrouped(datasets, data.shape, chosen, fit_seed)
        return model, chosen

    def pca_reduce(vectors: VectorDataset):
        pca = pca_fit(vectors.features, config.pca_dim)
        return pca, VectorDataset(pca_transform(pca, vectors.features), data.labels)

    pca = None
    with _stage("tune", timings):
        vectors = VectorDataset(flatten_samples(data.samples), data.labels)
        chosen = grid[0]
        if len(grid) > 1:
            if config.method == "bagging":  # tune in the estimators' PCA space
                pca, vectors = pca_reduce(vectors)
            chosen = grid_search_cv(grid, vectors, config.cv_folds, tune_seed)
    with _stage("fit", timings):
        if config.method == "bagging":
            if pca is None:  # a one-spec grid skipped the tune-stage PCA
                pca, vectors = pca_reduce(vectors)
            model = bagging_fit_reduced(
                pca, vectors, data.shape, config.n_estimators, chosen, fit_seed
            )
        else:  # single: one base learner on the raw flattened vectors
            model = fit(chosen, vectors, fit_seed)
    return model, chosen


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one configured experiment end to end."""
    timings: dict[str, float] = {}
    with _stage("load", timings):
        data = load_dataset(config)
    with _stage("split", timings):
        train, test = train_test_split(
            data, config.train_fraction, mix_seed(config.seed, _SPLIT)
        )
    model, chosen = train_model(config, train, timings)
    with _stage("evaluate", timings):
        per_learner, ensemble_acc = _evaluate(model, test)

    return ExperimentReport(
        config=config.to_dict(),
        method=config.method,
        chosen_spec=chosen.to_dict(),
        per_learner=per_learner,
        ensemble_accuracy=ensemble_acc,
        seed=config.seed,
        train_size=train.n_samples,
        test_size=test.n_samples,
        class_labels=[int(c) for c in np.unique(data.labels)],
        effective_rank=list(model.rank) if config.method == "telvi" else None,
        timings=timings,
    )


def write_report(report: ExperimentReport, path: str | Path) -> None:
    """Write the canonical report JSON (timings excluded by design)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(report.to_canonical_dict()))
        handle.write("\n")


def write_learner_csv(report: ExperimentReport, path: str | Path) -> None:
    """Plot-ready per-learner accuracies (mode -1 = flat estimators)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mode,component,accuracy\n")
        for entry in report.per_learner:
            handle.write(
                f"{entry['mode']},{entry['component']},"
                f"{format(entry['accuracy'], '.17g')}\n"
            )
