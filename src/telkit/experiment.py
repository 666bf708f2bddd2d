"""Experiment orchestration: load, split, decompose, tune, fit, evaluate.

Reports serialize canonically (sorted keys, fixed float formatting) so a
rerun with the same config and seed writes byte-identical files.  Wall
clock timings are collected on the report object but deliberately kept
out of the canonical bytes; the CLI prints them instead.  An
``ExperimentConfig`` checks each field when it is built, a number by the
rule of the code that uses it under the config's key, so a config made in
Python and one read from a file meet the same rule; ``from_dict`` only
checks the keys.  Each dataset source has one reader, and every reader
fills one array.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .canonical import check_keys, check_number, dump_canonical, plain
from .ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    SingleModel,
    TelviModel,
    _check_estimators,
    _columns,
    _labeled,
    bagging_fit_reduced,
    predict_votes,
    regroup,
    telvi_fit_regrouped,
)
from .hosvd import MultilinearRank, _check_rank, _check_threshold, _search, clamp_rank
from .io import load_ppm_dir, load_tensor_dataset
from .learners import (
    ClassifierSpec,
    VectorDataset,
    accuracy,
    fit,
    grid_search_cv,
    majority_labels,
)
from .learners.base import two_class_labels
from .learners.grid import _check_folds, _check_grid
from .linalg import _check_retained, pca_fit, pca_transform
from .seeding import mix_seed
from .synth import SyntheticSpec, synth_generate

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentError",
    "train_test_split",
    "train_model",
    "run_experiment",
    "write_report",
    "write_learner_csv",
]

REPORT_FORMAT_VERSION = 1

METHODS = ("telvi", "bagging", "single")

# the reader of each "dataset" source, looked up when it is called
_READERS = {"path": lambda path: load_tensor_dataset(path),
            "image_dir": lambda root: load_ppm_dir(root),
            "synthetic": lambda spec: synth_generate(spec)}

# purpose tags for stage-level seed derivation
_SPLIT = 1
_TUNE = 2
_FIT = 3


class ExperimentError(RuntimeError):
    """An experiment stage failed; the message names the stage."""


def _check_fraction(train_fraction) -> float:
    """``train_fraction`` by ``check_number``, in (0, 1): the one fraction rule."""
    train_fraction = check_number(train_fraction, "train_fraction")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return train_fraction


def train_test_split(
    data: LabeledTensorDataset, train_fraction: float, seed: int
) -> tuple[LabeledTensorDataset, LabeledTensorDataset]:
    """Stratified split: per-class seeded shuffle, first ceil(f*c) train.

    The train share is clamped to c-1 per class so both sides stay
    nonempty; classes with fewer than two samples are rejected.  Each half
    is a ``subset`` and shares ``data``'s rows, so holding either keeps
    the whole array alive (the 500-sample test half of 1000 generated
    32x32x3 samples holds all 24.6 MB); ``LabeledTensorDataset.from_rows(
    half.data, half.shape, half.labels)`` gives a half an array of its own.
    """
    train_fraction = _check_fraction(train_fraction)
    rng = np.random.default_rng(check_number(seed, "seed", integral=True))
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
    """One experiment: a dataset source, a method and its knobs.  ``dataset``
    is the config file's ``dataset`` object, kept as its one source that is
    not None; a synthetic spec and the ``base_grid`` specs are built from
    their objects, so a file's config is ``cls(**payload)``."""

    dataset: Mapping[str, Any] = field(default_factory=dict)
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
        object.__setattr__(self, "dataset", _dataset_source(self.dataset))
        threshold, pca_dim = self.rank_search_threshold, self.pca_dim
        for name, value in (  # each by the rule of the code that uses it
            ("train_fraction", _check_fraction(self.train_fraction)),
            ("rank_search_threshold", threshold if threshold is None
             else _check_threshold(threshold, "rank_search_threshold")),
            ("cv_folds", _check_folds(self.cv_folds, "cv_folds")),
            ("n_estimators", _check_estimators(self.n_estimators)),
            ("pca_dim", pca_dim if pca_dim is None
             else _check_retained(pca_dim, "pca_dim")),
            ("seed", check_number(self.seed, "seed", integral=True)),
        ):
            object.__setattr__(self, name, value)
        if self.rank is not None:
            object.__setattr__(self, "rank", _check_rank(self.rank))
        if not isinstance(self.output, (str, type(None))):
            raise ValueError(f"output must be a string, got {self.output!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (choose from {METHODS})")
        grid = self.base_grid
        if not isinstance(grid, (list, tuple)) or not all(
            isinstance(s, (Mapping, ClassifierSpec)) for s in grid
        ):
            raise ValueError("base_grid must be a list of classifier spec objects")
        _check_grid(grid, "base_grid")
        object.__setattr__(self, "base_grid", tuple(
            ClassifierSpec.from_dict(s) if isinstance(s, Mapping) else s for s in grid
        ))
        if self.method == "telvi" and (
            (self.rank is None) == (self.rank_search_threshold is None)
        ):
            raise ValueError("telvi needs exactly one of rank / rank_search_threshold")
        if self.method == "bagging" and self.pca_dim is None:
            raise ValueError("bagging requires pca_dim")
        if self.rank is not None and "synthetic" in self.dataset:  # its order only
            clamp_rank(self.rank, self.dataset["synthetic"].shape)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        check_keys(payload, cls, "experiment config")
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        return plain(self)


def _dataset_source(dataset) -> dict[str, Any]:
    """``dataset``'s one source that is not None, checked: a ``path`` or
    ``image_dir`` string, or a synthetic spec or its object."""
    check_keys(dataset, _READERS, "dataset")
    sources = {key: value for key, value in dataset.items() if value is not None}
    if len(sources) != 1:
        raise ValueError(f"exactly one dataset source required, got {len(sources)}")
    (key, value), = sources.items()
    if key == "synthetic" and isinstance(value, Mapping):
        value = SyntheticSpec.from_dict(value)
    elif not isinstance(value, SyntheticSpec if key == "synthetic" else str):
        what = "a synthetic spec object" if key == "synthetic" else "a string"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return {key: value}


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
        """Every field but ``timings`` by name, ``per_learner`` as
        ``per_learner_accuracy``, plus ``mean_learner_accuracy``."""
        out = plain(self)
        del out["timings"]
        out["per_learner_accuracy"] = out.pop("per_learner")
        out["mean_learner_accuracy"] = self.mean_learner_accuracy()
        return out


def load_dataset(config: ExperimentConfig) -> LabeledTensorDataset:
    (kind, source), = config.dataset.items()
    return _READERS[kind](source)


def _evaluate(
    model: TelviModel | BaggingModel | SingleModel, test: LabeledTensorDataset
) -> tuple[list[dict[str, Any]], float]:
    """Per-voter accuracies and the accuracy of their majority vote."""
    keys, votes = predict_votes(model, test.data, test.shape)
    per_learner = [
        {"mode": n, "component": r, "accuracy": accuracy(row, test.labels)}
        for (n, r), row in zip(keys, votes)
    ]
    return per_learner, accuracy(majority_labels(votes), test.labels)


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
) -> tuple[TelviModel | BaggingModel | SingleModel, ClassifierSpec]:
    """Decompose, tune and fit ``config.method`` on ``data``.

    The one training path of ``run_experiment`` (on its train split) and
    ``telkit train`` (whole dataset).  ``decompose`` builds the learners'
    datasets once: telvi's factor columns, sliced from the rank search's
    factors when it searches, or one flat dataset keyed (-1, 0),
    PCA-projected for bagging; ``tune`` and ``fit`` share them.
    ``tune`` is always ``grid_search_cv``, which checks the folds against
    every dataset even when the grid has one spec.  Stage times go into
    ``timings``; a failing stage raises ExperimentError naming it.
    """
    if timings is None:
        timings = {}
    pca = None
    with _stage("decompose", timings):
        if config.method == "telvi":
            if config.rank is None:
                # the search's full-rank factors lead with those at the
                # rank it finds, so the samples are not decomposed again
                rank, stacks = _search(data.data, data.shape,
                                       config.rank_search_threshold)
                datasets = _labeled(_columns(stacks, rank), data.labels)
            else:
                datasets = regroup(data, config.rank)
        else:
            features = data.data
            if config.method == "bagging":
                pca = pca_fit(features, config.pca_dim)
                features = pca_transform(pca, features)
            datasets = {(-1, 0): VectorDataset(features, data.labels)}
    with _stage("tune", timings):
        chosen = grid_search_cv(
            config.base_grid, [datasets[key] for key in sorted(datasets)],
            config.cv_folds, mix_seed(config.seed, _TUNE),
        )
    fit_seed = mix_seed(config.seed, _FIT)
    with _stage("fit", timings):
        if config.method == "telvi":
            model = telvi_fit_regrouped(datasets, data.shape, chosen, fit_seed)
        elif config.method == "bagging":
            model = bagging_fit_reduced(
                pca, datasets[(-1, 0)], data.shape, config.n_estimators,
                chosen, fit_seed,
            )
        else:
            two_class_labels(datasets[(-1, 0)].labels, "training")
            model = SingleModel(data.shape, fit(chosen, datasets[(-1, 0)], fit_seed))
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
    dump_canonical(report.to_canonical_dict(), path)


def write_learner_csv(report: ExperimentReport, path: str | Path) -> None:
    """Plot-ready per-learner accuracies (mode -1 = flat estimators)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mode,component,accuracy\n")
        for entry in report.per_learner:
            handle.write(
                f"{entry['mode']},{entry['component']},"
                f"{format(entry['accuracy'], '.17g')}\n"
            )
