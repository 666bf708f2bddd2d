"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed in ``prepare``,
runs one untimed warm-up operation in ``warm_up`` and one closed-loop
pass over its timed operations in ``run_pass``.  telkit is reached
through module attributes only (``experiment.run_experiment``, never a
name imported from it), so the traced run's wrappers see every call the
benchmark makes.

Seed 0 is the reference seed: it reproduces the configurations the
workloads were sized on, and its outputs are checked against the digests
in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from telkit import canonical, cli, ensemble, experiment, io, model_io, synth

# Hyperparameter grid of the tune stage: one spec per learner kind.
TUNE_GRID = [
    {"kind": "knn", "hyperparameters": {"k": 3}},
    {"kind": "tree", "hyperparameters": {"max_depth": 5}},
    {"kind": "logit", "hyperparameters": {"max_iterations": 200}},
    {"kind": "svm", "hyperparameters": {"kernel": "rbf", "C": 1.0}},
]
KNN_ONLY = [{"kind": "knn", "hyperparameters": {"k": 3}}]
EXPERIMENT_SEED = 7


@dataclass
class Op:
    """One timed operation and what it produced.

    ``output`` holds bytes that must repeat across passes (None when the
    operation has nothing to compare); ``ok`` is False when the operation
    raised or failed the workload's own check.  ``latency`` marks the
    per-sample operations reported as percentiles rather than as a step.
    """

    name: str
    seconds: float
    output: bytes | None
    ok: bool
    latency: bool = False


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    # experiment stage timings per operation, keyed like "tune_s"
    stages: dict[str, dict[str, float]] = field(default_factory=dict)
    # samples the telvi models of this pass were trained on
    train_samples: int = 0
    model_bytes: int = 0


def _timed(call):
    """Run ``call``; return (seconds, result, raised)."""
    started = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - started, exc, True
    return time.perf_counter() - started, result, False


def _run_experiment_op(name: str, config, result: PassResult) -> None:
    seconds, report, raised = _timed(lambda: experiment.run_experiment(config))
    if raised:
        result.ops.append(Op(name, seconds, None, False))
        return
    result.stages[name] = dict(report.timings)
    if report.method == "telvi":
        result.train_samples += report.train_size
    output = canonical.canonical_json(report.to_canonical_dict()).encode()
    result.ops.append(Op(name, seconds, output, True))


def _synthetic(shape, classes, rank, per_class, seed) -> dict:
    return {
        "shape": list(shape), "classes": classes, "rank": list(rank),
        "samples_per_class": per_class, "noise_std": 0.05, "seed": seed,
    }


class GridTune:
    """``run_experiment`` once per method on the benchmark spec with a
    four-learner grid: bound by tuning and learner fits, not HOSVD."""

    name = "grid-tune"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.configs: dict[str, object] = {}

    def prepare(self) -> None:
        spec = synth.BENCHMARK_SPEC
        data = _synthetic(
            spec.shape, spec.classes, spec.rank, spec.samples_per_class,
            spec.seed + self.seed,
        )
        base = {
            "dataset": {"synthetic": data}, "train_fraction": 0.5,
            "base_grid": TUNE_GRID, "cv_folds": 5, "seed": EXPERIMENT_SEED,
        }
        methods = {
            "telvi": {"method": "telvi", "rank": [2, 2, 1]},
            "bagging": {"method": "bagging", "pca_dim": 16, "n_estimators": 12},
            "single": {"method": "single"},
        }
        self.configs = {
            method: experiment.ExperimentConfig.from_dict({**base, **extra})
            for method, extra in methods.items()
        }

    def warm_up(self) -> None:
        experiment.run_experiment(self.configs["bagging"])

    def run_pass(self) -> PassResult:
        result = PassResult()
        for method, config in self.configs.items():
            _run_experiment_op(f"experiment_{method}", config, result)
        return result


class RankSearch:
    """telvi with ``rank_search_threshold`` 0.3 on 12x12x3 samples: the
    greedy search decomposes and reconstructs every training sample at
    each candidate rank, while the single knn learner idles."""

    name = "rank-search"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = None

    def prepare(self) -> None:
        spec = synth.BENCHMARK_SPEC
        data = _synthetic(
            (12, 12, 3), spec.classes, spec.rank, spec.samples_per_class,
            spec.seed + self.seed,
        )
        self.config = experiment.ExperimentConfig.from_dict({
            "dataset": {"synthetic": data}, "train_fraction": 0.5,
            "method": "telvi", "rank_search_threshold": 0.3,
            "base_grid": KNN_ONLY, "cv_folds": 5, "seed": EXPERIMENT_SEED,
        })

    def warm_up(self) -> None:
        experiment.run_experiment(self.config)

    def run_pass(self) -> PassResult:
        result = PassResult()
        _run_experiment_op("experiment_telvi", self.config, result)
        return result


class ServeLarge:
    """Train a telvi model with the CLI on 500 samples of 32x32x3, predict
    500 more with the CLI, then classify each one with the library:
    HOSVD, tensor kernels and model I/O do the work, learners little."""

    name = "serve-large"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.train_path = workdir / "train.teld"
        self.test_path = workdir / "test.teld"
        self.config_path = workdir / "train-config.json"
        self.model_path = workdir / "model.json"
        self.csv_path = workdir / "predictions.csv"
        self.test = None
        self.n_train = 0
        self.teld_bytes = 0

    def prepare(self) -> None:
        spec = synth.SyntheticSpec.from_dict(
            _synthetic((32, 32, 3), 4, (4, 4, 2), 250, 11 + self.seed)
        )
        data = synth.synth_generate(spec)
        train, self.test = experiment.train_test_split(data, 0.5, 3)
        self.n_train = train.n_samples
        io.save_tensor_dataset(train, self.train_path)
        io.save_tensor_dataset(self.test, self.test_path)
        self.config_path.write_text(json.dumps({
            "dataset": {"path": str(self.train_path)}, "method": "telvi",
            "rank": [4, 4, 2], "base_grid": KNN_ONLY,
            "seed": EXPERIMENT_SEED,
        }))
        self.teld_bytes = (
            self.train_path.stat().st_size + self.test_path.stat().st_size
        )

    def _cli(self, *argv: str) -> tuple[float, bool]:
        """Time one in-process CLI command, console output captured.

        ``cli.main`` turns every failure into exit code 1."""
        sink = stdio.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(argv))
        return time.perf_counter() - started, code == 0

    def _train(self) -> tuple[float, bool]:
        return self._cli(
            "train", "--config", str(self.config_path),
            "--out", str(self.model_path),
        )

    def warm_up(self) -> None:
        if not self._train()[1]:
            raise RuntimeError("warm-up training failed")

    def run_pass(self) -> PassResult:
        result = PassResult()
        seconds, ok = self._train()
        model_bytes = self.model_path.read_bytes() if ok else None
        result.ops.append(Op("train", seconds, model_bytes, ok))
        if ok:
            result.model_bytes = len(model_bytes)
            result.train_samples = self.n_train

        seconds, ok = self._cli(
            "predict", "--model", str(self.model_path),
            "--data", str(self.test_path), "--out", str(self.csv_path),
        )
        csv = self.csv_path.read_bytes() if ok else None
        result.ops.append(Op("predict", seconds, csv, ok))
        cli_labels = []
        if ok:
            rows = csv.decode().splitlines()[1:]
            cli_labels = [int(row.split(",")[1]) for row in rows]

        _, model, unloadable = _timed(
            lambda: model_io.load_model(self.model_path)
        )
        for index, x in enumerate(self.test.samples):
            seconds, predicted, raised = _timed(
                lambda: ensemble.telvi_predict(model, x)
            )
            agrees = (
                not (unloadable or raised) and index < len(cli_labels)
                and predicted[0] == cli_labels[index]
            )
            result.ops.append(
                Op(f"sample{index}", seconds, None, agrees, latency=True)
            )
        return result


WORKLOADS = {w.name: w for w in (GridTune, ServeLarge, RankSearch)}
