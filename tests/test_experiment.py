"""Experiment harness, canonical serialization, model files, CLI."""

import dataclasses
import json
import re
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import telkit as tk
from telkit.canonical import canonical_json, dump_canonical
from telkit.cli import main
from telkit.ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    SingleModel,
    TelviModel,
    bagging_fit,
    predict_votes,
    regroup,
    telvi_fit,
)
from telkit.experiment import (
    ExperimentConfig,
    ExperimentError,
    load_dataset,
    run_experiment,
    write_learner_csv,
    write_report,
)
from telkit.hosvd import (HosvdFactors, clamp_rank, hosvd, hosvd_factors,
                          rank_search, reconstruct, relative_error)
from telkit.io import load_ppm_dir, save_tensor_dataset
from telkit.learners import (
    BinarySvm,
    ClassifierSpec,
    KnnModel,
    LogitModel,
    Scaler,
    SvmModel,
    TreeModel,
    TreeNode,
    VectorDataset,
    fit,
    grid_search_cv,
    majority_labels,
)
from telkit.linalg import PcaModel, pca_fit, pca_transform
from telkit.model_io import load_model, model_to_dict, save_model
from telkit.seeding import mix_seed
from telkit.synth import BENCHMARK_SPEC, SyntheticSpec
from telkit.tensor import DenseTensor, fold

KNN3 = {"kind": "knn", "hyperparameters": {"k": 3}}
# two specs, so the tune stage reads the training data
TWO_SPEC_GRID = [{"kind": "tree", "hyperparameters": {"max_depth": 1}}, KNN3]


def benchmark_config(**overrides):
    payload = {
        "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
        "train_fraction": 0.5,
        "method": "telvi",
        "rank": [2, 2, 1],
        "base_grid": [KNN3],
        "seed": 7,
    }
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_float_formatting_round_trips(self):
        for value in [0.1, 1.0, 0.9625, 1e-17, 123456.789]:
            rendered = canonical_json(value)
            assert float(rendered) == value

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(float("nan"))

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_round_trip_property(self, value):
        text = canonical_json(value)
        # "-0" is a float's negative zero; a plain json.loads reads int 0
        back = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
        assert back == value
        assert canonical_json(back) == text  # every float bit came back

    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.empty((0, 3)), "[]"),  # an svm binary with no support vectors
            (np.empty((2, 0)), "[[],[]]"),
            (np.array([[-0.0, 1.5], [0.1, -2.0]]), "[[-0,1.5],[0.10000000000000001,-2]]"),
            (np.array([3, -1], dtype=np.int64), "[3,-1]"),
            (np.arange(8, dtype=np.int64).reshape(2, 2, 2), "[[[0,1],[2,3]],[[4,5],[6,7]]]"),
            (np.array(0.5), "0.5"),
            ({"b": np.array([1.0]), "a": [np.zeros((1, 2)), (np.array([True]),)]},
             '{"a":[[[0,0]],[[true]]],"b":[1]}'),
        ],
        ids=["no-rows", "empty-rows", "negative-zero", "int64", "3-d", "0-d", "nested"],
    )
    def test_array_renders_as_its_list(self, tmp_path, value, expected):
        # an ndarray is rendered row by row; its bytes are those of its
        # nested lists, rendered as a list
        assert canonical_json(value) == expected
        if isinstance(value, np.ndarray):
            assert canonical_json(value.tolist()) == expected
        dump_canonical(value, tmp_path / "value.json")
        assert (tmp_path / "value.json").read_text(encoding="utf-8") == expected + "\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_entry_rejected(self, tmp_path, bad):
        value = {"a": np.array([[0.0, 1.0], [2.0, bad]])}
        with pytest.raises(ValueError, match="^non-finite float .* in canonical JSON$"):
            canonical_json(value)
        with pytest.raises(ValueError, match="^non-finite float .* in canonical JSON$"):
            dump_canonical(value, tmp_path / "value.json")
        # the pieces before the bad row were written: a prefix, not JSON
        assert (tmp_path / "value.json").read_text(encoding="utf-8") == '{"a":[[0,1],'

    @pytest.mark.parametrize(
        "value, error",
        [
            (np.array([1 + 1j]), "cannot canonicalize complex"),
            ({1: 2}, "canonical JSON object keys must be strings"),
            (np.int64(1), "cannot canonicalize int64"),
        ],
        ids=["complex-array", "int-key", "numpy-int"],
    )
    def test_unrenderable_rejected(self, value, error):
        with pytest.raises(TypeError, match=f"^{re.escape(error)}$"):
            canonical_json(value)


class TestConfigValidation:
    def test_two_sources_rejected(self):
        with pytest.raises(ValueError, match="exactly one dataset source"):
            ExperimentConfig.from_dict(
                {
                    "dataset": {
                        "path": "x.teld",
                        "synthetic": BENCHMARK_SPEC.to_dict(),
                    },
                    "base_grid": [KNN3],
                    "rank": [1, 1, 1],
                }
            )

    def test_no_source_rejected(self):
        with pytest.raises(ValueError, match="exactly one dataset source"):
            ExperimentConfig.from_dict({"base_grid": [KNN3], "rank": [1]})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            benchmark_config(method="boosting")

    def test_telvi_requires_exactly_one_rank_source(self):
        with pytest.raises(ValueError, match="exactly one of rank"):
            benchmark_config(rank=[1, 1, 1], rank_search_threshold=0.2)

    def test_bagging_requires_pca_dim(self):
        with pytest.raises(ValueError, match="pca_dim"):
            benchmark_config(method="bagging", pca_dim=None)

    def test_round_trip(self):
        config = benchmark_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "where, key",
        [
            ("experiment config", "n_estimator"),
            ("dataset", "paths"),
            ("synthetic spec", "noise"),
            ("classifier spec", "hyperparams"),
        ],
        ids=["config", "dataset", "synthetic", "base-grid-spec"],
    )
    def test_unknown_key_rejected(self, where, key):
        # a misspelt key used to fall back to the default without a word
        payload = benchmark_config(method="bagging", pca_dim=16).to_dict()
        target = {
            "experiment config": payload,
            "dataset": payload["dataset"],
            "synthetic spec": payload["dataset"]["synthetic"],
            "classifier spec": payload["base_grid"][0],
        }[where]
        target[key] = 5
        with pytest.raises(ValueError, match=f"^unknown {where} key '{key}'$"):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("config", "cv_folds", 2.7, "cv_folds must be an integer, got 2.7"),
            ("config", "n_estimators", 3.9, "n_estimators must be an integer, got 3.9"),
            ("config", "seed", True, "seed must be a number, got True"),
            ("config", "rank", [2.9, 2, 1], "rank must be an integer, got 2.9"),
            ("config", "pca_dim", "16", "pca_dim must be a number, got '16'"),
            ("config", "cv_folds", float("inf"), "cv_folds must be finite, got inf"),
            ("synthetic", "classes", 2.5, "classes must be an integer, got 2.5"),
            ("synthetic", "shape", [8.7, 8, 3], "shape[0] must be an integer, got 8.7"),
            ("synthetic", "seed", False, "seed must be a number, got False"),
            (
                "synthetic", "samples_per_class", float("nan"),
                "samples_per_class must be finite, got nan",
            ),
        ],
        ids=[
            "cv-folds", "n-estimators", "seed-bool", "rank", "pca-dim-str",
            "cv-folds-inf", "synthetic-classes", "synthetic-shape",
            "synthetic-seed-bool", "synthetic-samples-nan",
        ],
    )
    def test_non_integer_rejected(self, where, key, value, message):
        # these were truncated or coerced by int(...) without a word, and a
        # config built in Python was not checked at all
        self._rejected_both_ways(where, key, value, message)

    @staticmethod
    def _rejected_both_ways(where, key, value, message):
        """A bagging benchmark config whose ``key`` (at the top level or in
        its synthetic spec) is ``value`` fails with ``message``, read from
        a file and built by the constructor alike."""
        config = benchmark_config(method="bagging", pca_dim=16)
        payload = config.to_dict()
        target = payload if where == "config" else payload["dataset"]["synthetic"]
        target[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(payload)
        built = config if where == "config" else config.dataset["synthetic"]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(built, **{key: value})

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("config", "train_fraction", "0.5", "train_fraction must be a number, got '0.5'"),
            (
                "config", "rank_search_threshold", "0.3",
                "rank_search_threshold must be a number, got '0.3'",
            ),
            (
                "config", "rank_search_threshold", float("nan"),
                "rank_search_threshold must be finite, got nan",
            ),
            ("synthetic", "noise_std", True, "noise_std must be a number, got True"),
        ],
        ids=["train-fraction-str", "threshold-str", "threshold-nan", "noise-std-bool"],
    )
    def test_non_number_rejected(self, where, key, value, message):
        # float(...) read "0.5" and true as numbers, and a string threshold
        # failed only in the decompose stage
        self._rejected_both_ways(where, key, value, message)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"method": "bagging", "pca_dim": 0}, "pca_dim must be >= 1, got 0"),
            ({"method": "single", "pca_dim": -3}, "pca_dim must be >= 1, got -3"),
            ({"rank": [2, 0, 1]}, "rank entries must be >= 1, got [2, 0, 1]"),
            (
                {"rank": None, "rank_search_threshold": -0.1},
                "rank_search_threshold must be in [0, 1), got -0.1",
            ),
            (
                {"rank": None, "rank_search_threshold": 1},
                "rank_search_threshold must be in [0, 1), got 1",
            ),
            (
                {"base_grid": {"kind": "knn"}},
                "base_grid must be a list of classifier spec objects",
            ),
            (
                {"base_grid": ["knn"]},
                "base_grid must be a list of classifier spec objects",
            ),
            ({"rank": [2, 2]}, "rank [2, 2] has 2 entries but shape [8, 8, 3] has 3"),
        ],
        ids=[
            "pca-dim-zero", "pca-dim-negative", "rank-zero", "threshold-negative",
            "threshold-one", "grid-object", "grid-of-strings", "rank-order",
        ],
    )
    def test_out_of_range_rejected_at_load(self, knobs, message):
        # each one failed only after the data was loaded and split, the
        # grid object as "unknown classifier spec key 'd'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            benchmark_config(**knobs)

    @pytest.mark.parametrize(
        "dataset, message",
        [
            ([{"path": "x.teld"}], "dataset must be an object, got [{'path': 'x.teld'}]"),
            ("x.teld", "dataset must be an object, got 'x.teld'"),
            (None, "dataset must be an object, got None"),
            ({"path": 3}, "path must be a string, got 3"),
            ({"image_dir": 3}, "image_dir must be a string, got 3"),
            ({"synthetic": [8, 8, 3]}, "synthetic must be a synthetic spec object, got [8, 8, 3]"),
        ],
        ids=["list", "string", "null", "path-int", "image-dir-int", "synthetic-list"],
    )
    def test_bad_dataset_rejected(self, dataset, message):
        # a list or a string failed with AttributeError, null with TypeError,
        # and a path of 3 read file descriptor 3 and closed it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            benchmark_config(dataset=dataset)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(benchmark_config(), dataset=dataset)

    def test_null_sources_are_dropped(self):
        config = benchmark_config(
            dataset={"path": None, "synthetic": BENCHMARK_SPEC.to_dict()}
        )
        assert config.dataset == {"synthetic": BENCHMARK_SPEC}
        assert config == benchmark_config()

    def test_output_must_be_a_string(self):
        # an int output was opened as a file descriptor: the report went
        # to stdout, which was then closed
        with pytest.raises(ValueError, match="^output must be a string, got 1$"):
            benchmark_config(output=1)
        assert benchmark_config(output="report.json").output == "report.json"

    @pytest.mark.parametrize(
        "where, key",
        [("synthetic spec", "seed"), ("synthetic spec", "shape"),
         ("classifier spec", "kind")],
        ids=["synthetic-seed", "synthetic-shape", "base-grid-kind"],
    )
    def test_missing_key_rejected(self, where, key):
        # a synthetic spec without seed failed with TypeError from
        # __init__, a base_grid spec without kind with KeyError
        payload = benchmark_config().to_dict()
        target = {"synthetic spec": payload["dataset"]["synthetic"],
                  "classifier spec": payload["base_grid"][0]}[where]
        del target[key]
        with pytest.raises(ValueError, match=f"^missing {where} key '{key}'$"):
            ExperimentConfig.from_dict(payload)
        if where == "synthetic spec":
            with pytest.raises(ValueError, match=f"^missing {where} key '{key}'$"):
                SyntheticSpec.from_dict(target)

    @pytest.mark.parametrize("threshold", [0, 0.0, 0.999])
    def test_threshold_bounds_accepted(self, threshold):
        config = benchmark_config(rank=None, rank_search_threshold=threshold)
        assert config.rank_search_threshold == threshold

    @pytest.mark.parametrize("folds", [0, 1, -1])
    def test_cv_folds_below_two_rejected(self, folds):
        # rejected even with a one-spec grid, which never cross-validates
        with pytest.raises(ValueError, match=f"cv_folds must be >= 2, got {folds}"):
            benchmark_config(method="single", cv_folds=folds)


class TestRunExperiment:
    def test_telvi_benchmark_golden_values(self):
        """Pinned results of the seeded benchmark (frozen from a verified
        run; guards against accidental pipeline drift)."""
        report = run_experiment(benchmark_config())
        assert report.ensemble_accuracy == 1.0
        assert report.effective_rank == [2, 2, 1]
        assert [e["mode"] for e in report.per_learner] == [0, 0, 1, 1, 2]
        assert [e["component"] for e in report.per_learner] == [0, 1, 0, 1, 0]
        golden = [0.95, 0.95, 1.0, 0.9125, 1.0]
        got = [e["accuracy"] for e in report.per_learner]
        assert got == pytest.approx(golden, abs=1e-12)
        assert report.mean_learner_accuracy() == pytest.approx(0.9625, abs=1e-12)
        assert report.train_size == 80 and report.test_size == 80

    def test_image_tree_reports_as_its_teld_file(self, tmp_path, ppm_tree):
        # an image_dir run and a path run on the same images, saved to TELD,
        # write the same report bytes but for their dataset echo
        root = ppm_tree(per_class=6)
        teld = tmp_path / "images.teld"
        save_tensor_dataset(load_ppm_dir(root), teld)
        written = []
        for source in ({"image_dir": str(root)}, {"path": str(teld)}):
            report = run_experiment(benchmark_config(dataset=source, cv_folds=3))
            write_report(report, tmp_path / "report.json")
            write_learner_csv(report, tmp_path / "report.csv")
            text = (tmp_path / "report.json").read_text()
            assert text.count(canonical_json(source)) == 1
            text = text.replace(canonical_json(source), "SOURCE")
            written.append((text, (tmp_path / "report.csv").read_bytes()))
        assert written[0] == written[1]

    def test_telvi_learner_count_follows_rank(self):
        report = run_experiment(benchmark_config())
        assert len(report.per_learner) == 2 + 2 + 1

    def test_single_method_has_one_entry(self):
        report = run_experiment(
            benchmark_config(method="single", rank=None)
        )
        assert len(report.per_learner) == 1
        assert report.per_learner[0]["mode"] == -1
        assert report.ensemble_accuracy == report.per_learner[0]["accuracy"]

    def test_bagging_runs_with_twelve_estimators(self):
        report = run_experiment(
            benchmark_config(method="bagging", rank=None, pca_dim=16)
        )
        assert len(report.per_learner) == 12
        assert 0.0 <= report.ensemble_accuracy <= 1.0

    def test_rank_search_threshold_route(self):
        report = run_experiment(
            benchmark_config(rank=None, rank_search_threshold=0.35)
        )
        assert report.effective_rank == [2, 2, 1]
        assert len(report.per_learner) == sum(report.effective_rank)

    def test_grid_selection_is_reported(self):
        grid = [
            {"kind": "knn", "hyperparameters": {"k": 1}},
            {"kind": "knn", "hyperparameters": {"k": 3}},
        ]
        report = run_experiment(benchmark_config(base_grid=grid, cv_folds=3))
        assert report.chosen_spec["kind"] == "knn"
        assert report.chosen_spec["hyperparameters"]["k"] in (1, 3)

    def test_reports_byte_identical_across_runs(self, tmp_path):
        for method, extra in [
            ("telvi", {}),
            ("bagging", {"rank": None, "pca_dim": 16}),
        ]:
            config = benchmark_config(method=method, **extra)
            paths = []
            for run in range(2):
                report = run_experiment(config)
                path = tmp_path / f"{method}{run}.json"
                write_report(report, path)
                write_learner_csv(report, path.with_suffix(".csv"))
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert (
                paths[0].with_suffix(".csv").read_bytes()
                == paths[1].with_suffix(".csv").read_bytes()
            )

    def test_csv_shape(self, tmp_path):
        report = run_experiment(benchmark_config())
        path = tmp_path / "plot.csv"
        write_learner_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mode,component,accuracy"
        assert len(lines) == 1 + 5
        mode, component, acc = lines[1].split(",")
        assert (int(mode), int(component)) == (0, 0)
        assert 0.0 <= float(acc) <= 1.0

    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    def test_every_method_times_the_same_stages(self, method):
        extra = {} if method == "telvi" else {"rank": None, "pca_dim": 16}
        report = run_experiment(benchmark_config(method=method, **extra))
        assert sorted(report.timings) == [
            "decompose_s", "evaluate_s", "fit_s", "load_s", "split_s", "tune_s"
        ]

    def test_report_canonical_dict_excludes_timings(self):
        report = run_experiment(benchmark_config())
        assert report.timings  # measured...
        assert "timings" not in report.to_canonical_dict()  # ...but not serialized

    def test_failures_carry_stage_context(self):
        from telkit.experiment import ExperimentError

        config = ExperimentConfig.from_dict(
            {
                "dataset": {"path": "/no/such/file.teld"},
                "method": "telvi",
                "rank": [1, 1, 1],
                "base_grid": [KNN3],
            }
        )
        with pytest.raises(ExperimentError, match="load stage failed"):
            run_experiment(config)

    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    def test_one_class_fails_in_the_fit_stage(self, method, kind):
        # every model build checks its labels by one rule; single with knn
        # saved a model of one class
        config = benchmark_config(
            dataset={"synthetic": {**BENCHMARK_SPEC.to_dict(), "classes": 1}},
            method=method, base_grid=[{"kind": kind}],
            rank=[2, 2, 1] if method == "telvi" else None,
            pca_dim=16 if method == "bagging" else None,
        )
        with pytest.raises(
            ExperimentError,
            match="^fit stage failed: training needs at least two classes$",
        ):
            run_experiment(config)

    @pytest.mark.parametrize("method", ["telvi", "single"])
    def test_more_folds_than_samples_fail_tuning_whatever_the_grid(self, method):
        from telkit.experiment import ExperimentError

        messages = []
        for grid in ([KNN3], TWO_SPEC_GRID):  # the train split has 80 samples
            config = benchmark_config(
                method=method, base_grid=grid, cv_folds=81,
                rank=[2, 2, 1] if method == "telvi" else None,
            )
            with pytest.raises(ExperimentError) as failure:
                run_experiment(config)
            messages.append(str(failure.value))
        assert messages == [
            "tune stage failed: cannot make 81 nonempty folds from 80 samples"
        ] * 2


def tiny_tensor_dataset(rng, n_per_class=6, shape=(3, 4, 2)):
    samples, labels = [], []
    size = int(np.prod(shape))
    for label in range(2):
        center = 4.0 * rng.standard_normal(size)
        for _ in range(n_per_class):
            samples.append(DenseTensor(shape, center + rng.standard_normal(size)))
            labels.append(label)
    return LabeledTensorDataset(samples, np.array(labels))


def first_leaf(node):
    """The leftmost leaf of a tree model file's node."""
    while "label" not in node:
        node = node["left"]
    return node


def entry_index(where):
    """The entry ``[i][j]`` that the trailing list indices of a path into a
    model file name."""
    tail = []
    while where and isinstance(where[-1], int):
        *where, last = where
        tail.insert(0, f"[{last}]")
    return "".join(tail)


def add_knn_label(learner, label):
    """Give a knn learner of a model file one more class label, consistent
    with its own train_labels."""
    learner["class_labels"].append(label)
    learner["train_labels"][0] = label


class TestModelFiles:
    @pytest.mark.parametrize(
        "spec",
        [
            ClassifierSpec("knn", {"k": 2}),
            ClassifierSpec("tree", {"max_depth": 3}),
            ClassifierSpec("logit", {"max_iterations": 50}),
            ClassifierSpec("svm", {"kernel": "poly", "degree": 2, "max_passes": 5}),
        ],
        ids=["knn", "tree", "logit", "svm"],
    )
    def test_single_learner_round_trip(self, tmp_path, spec):
        rng = np.random.default_rng(431)
        features = np.vstack(
            [rng.standard_normal((10, 3)), 5.0 + rng.standard_normal((10, 3))]
        )
        data = VectorDataset(features, np.array([0] * 10 + [1] * 10))
        model = SingleModel((3,), fit(spec, data, seed=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probes = rng.standard_normal((30, 3)) * 3
        assert np.array_equal(
            model.learner.predict(probes), loaded.learner.predict(probes)
        )

    def test_save_model_streams_the_file(self, tmp_path):
        # a telvi knn model of serve-large's size: 10 learners memorising
        # 500 factor columns of width 32 or 3, 131,000 float64 values and
        # about 2.75 MB of file; building the whole document traced 9.6 MB
        rng = np.random.default_rng(443)
        spec, labels = ClassifierSpec("knn", {"k": 3}), np.arange(500) % 4
        shape, rank = (32, 32, 3), (4, 4, 2)
        learners = {
            (n, r): KnnModel(spec, np.arange(4), rng.standard_normal((500, shape[n])), labels)
            for n, r_n in enumerate(rank) for r in range(r_n)
        }
        model = TelviModel(rank, shape, spec, learners, np.arange(4), 3)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert path.stat().st_size > 2_500_000
        assert path.read_text(encoding="utf-8") == canonical_json(model_to_dict(model)) + "\n"

    def test_model_arrays_are_not_copied(self):
        learner = format_learner("knn")
        payload = model_to_dict(format_model("single", learner))
        assert payload["model"]["train_features"] is learner.train_features

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: [m], "model file must be an object, got [{"),
            (lambda m: {**m, "model": 3}, "single model: learner must be an object, got 3"),
            (lambda m: {**m, "model": {**m["model"], "spec": 5}},
             "single model: classifier spec must be an object, got 5"),
            (lambda m: {**m, "learners": []}, "unknown model file key 'learners'"),
            (lambda m: {**m, "model": {**m["model"], "roots": 1}},
             "single model: unknown learner key 'roots'"),
        ],
        ids=["list", "learner-int", "spec-int", "top-key", "learner-key"],
    )
    def test_non_object_or_unknown_key_rejected(self, tmp_path, edit, message):
        # a list failed with AttributeError and an int learner or spec with
        # TypeError; an unknown top-level key was ignored
        payload = model_to_dict(format_model("single", format_learner("knn")))
        path = tmp_path / "model.json"
        path.write_text(canonical_json(edit(json.loads(canonical_json(payload)))))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_model(path)

    def test_bare_learner_rejected(self, tmp_path):
        rng = np.random.default_rng(439)
        data = tiny_tensor_dataset(rng)
        flat = VectorDataset(data.data, data.labels)
        learner = fit(ClassifierSpec("knn", {"k": 1}), flat, 1)
        with pytest.raises(TypeError, match="^unknown model type KnnModel$"):
            save_model(learner, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()
        with pytest.raises(TypeError, match="^unknown model type KnnModel$"):
            predict_votes(learner, data.data, data.shape)

    def test_single_model_records_its_shape(self, tmp_path):
        rng = np.random.default_rng(431)
        data = tiny_tensor_dataset(rng)
        flat = VectorDataset(data.data, data.labels)
        model = SingleModel(data.shape, fit(ClassifierSpec("knn", {"k": 1}), flat, 1))
        path = tmp_path / "single.json"
        save_model(model, path)
        assert json.loads(path.read_text())["shape"] == list(data.shape)
        loaded = load_model(path)
        assert loaded.shape == data.shape
        assert np.array_equal(
            predict_votes(model, data.data, data.shape)[1],
            predict_votes(loaded, data.data, data.shape)[1],
        )

    def test_telvi_round_trip(self, tmp_path):
        rng = np.random.default_rng(433)
        data = tiny_tensor_dataset(rng)
        model = telvi_fit(data, (2, 2, 1), ClassifierSpec("knn", {"k": 1}), 9)
        path = tmp_path / "telvi.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.rank == model.rank
        for x in data.samples:
            assert tk.telvi_predict(model, x)[0] == tk.telvi_predict(loaded, x)[0]

    def test_bagging_round_trip(self, tmp_path):
        rng = np.random.default_rng(439)
        data = tiny_tensor_dataset(rng)
        model = bagging_fit(data, 4, 6, ClassifierSpec("tree", {"max_depth": 3}), 21)
        path = tmp_path / "bagging.json"
        save_model(model, path)
        loaded = load_model(path)
        for x in data.samples:
            assert tk.bagging_predict(model, x)[0] == tk.bagging_predict(loaded, x)[0]

    def test_saving_twice_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(443)
        data = tiny_tensor_dataset(rng)
        model = telvi_fit(data, (1, 1, 1), ClassifierSpec("knn", {"k": 1}), 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**70], ids=["-1", "2**70"])
    @pytest.mark.parametrize("method", ["telvi", "bagging"])
    def test_any_int_seed_round_trips(self, tmp_path, method, seed):
        # a library caller may pass any int seed; the reader puts no range on it
        data = tiny_tensor_dataset(np.random.default_rng(449))
        knn = ClassifierSpec("knn", {"k": 1})
        if method == "telvi":
            model = telvi_fit(data, (1, 1, 1), knn, seed)
        else:
            model = bagging_fit(data, 2, 3, knn, seed)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        loaded = load_model(a)
        assert loaded.seed == seed
        save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _knn_with_negative_zero():
        features = np.array([[-0.0, 1.0], [0.25, 2.0], [3.0, 4.0], [5.0, 6.0]])
        data = VectorDataset(features, np.array([0, 0, 1, 1]))
        return SingleModel((2,), fit(ClassifierSpec("knn", {"k": 1}), data, 0))

    def test_negative_zero_survives_a_round_trip(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(self._knn_with_negative_zero(), a)
        assert "[[-0,1]," in a.read_text()  # canonical JSON writes -0.0 as -0
        loaded = load_model(a)
        assert np.signbit(loaded.learner.train_features[0, 0])
        save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    # (learner kind or "pca", path to a number in the model file, the error):
    # each float field of every model kind, which fails naming the field,
    # and fields read as integers, which fail by check_number's rule
    FLOAT_FIELDS = [
        ("knn", ["model", "train_features", 0, 0], "knn train_features"),
        ("tree", ["model", "root", "threshold"], "tree split threshold"),
        ("logit", ["model", "weights", 0, 0], "logit weights"),
        ("logit", ["model", "bias", 0], "logit bias"),
        ("logit", ["model", "scaler", "mean", 0], "logit scaler mean"),
        ("logit", ["model", "scaler", "std", 0], "logit scaler std"),
        ("svm", ["model", "scaler", "mean", 0], "svm scaler mean"),
        ("svm", ["model", "scaler", "std", 0], "svm scaler std"),
        ("svm", ["model", "binaries", 0, "support_vectors", 0, 0],
         "svm binary 0 support_vectors"),
        ("svm", ["model", "binaries", 0, "dual_coefs", 0], "svm binary 0 dual_coefs"),
        ("svm", ["model", "binaries", 0, "bias"], "svm binary 0 bias"),
        ("pca", ["pca", "mean", 0], "pca mean"),
        ("pca", ["pca", "components", 0, 0], "pca components"),
    ]
    # ids name each integer field by its path in the file
    INTEGER_FIELDS = {
        "model-file-field-model.class_labels.1": (
            "knn", ["model", "class_labels", 1], "single model: class_labels[1]",
        ),
        "model-file-field-model.train_labels.0": (
            "knn", ["model", "train_labels", 0], "single model: knn train_labels[0]",
        ),
        "model-file-field-model.n_features": (
            "tree", ["model", "n_features"], "single model: tree n_features",
        ),
        "model-file-field-model.root.feature": (
            "tree", ["model", "root", "feature"], "single model: tree split feature",
        ),
        "model-file-field-seed": ("pca", ["seed"], "seed"),
        "model-file-field-bootstrap_seeds.0": (
            "pca", ["bootstrap_seeds", 0], "bootstrap_seeds[0]",
        ),
    }

    # integer array entries, read into int64 arrays
    ARRAY_INTEGER_FIELDS = [INTEGER_FIELDS["model-file-field-model.class_labels.1"],
                            INTEGER_FIELDS["model-file-field-model.train_labels.0"]]

    @pytest.mark.parametrize(
        "kind, where, message",
        [(kind, where, f"{field} has a non-finite value")
         for kind, where, field in FLOAT_FIELDS]
        + [(kind, where, f"{field} must be finite, got inf")
           for kind, where, field in INTEGER_FIELDS.values()],
        ids=[field.replace(" ", "-") for _, _, field in FLOAT_FIELDS]
        + list(INTEGER_FIELDS),
    )
    def test_overflowing_literal_rejected_by_its_field(
        self, tmp_path, kind, where, message
    ):
        path = self._field_file(tmp_path, kind, where, "1e999")
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, where, token, message",
        [
            (kind, where, token, f"{field}{entry_index(where)} must be a number, "
                                 f"got {shown}")
            for kind, where, field in FLOAT_FIELDS
            for token, shown in (('"1"', "'1'"), ("true", "True"))
        ]
        + [
            (kind, where, str(2**70), f"{field} must fit in int64, got {2**70}")
            for kind, where, field in ARRAY_INTEGER_FIELDS
        ],
        ids=[f"{field.replace(' ', '-')}-{token}" for _, _, field in FLOAT_FIELDS
             for token in ("str", "bool")]
        + [f"{field.split(': ')[1]}-2**70" for _, _, field in ARRAY_INTEGER_FIELDS],
    )
    def test_non_number_rejected_by_its_field(
        self, tmp_path, kind, where, token, message
    ):
        # float casts loaded "1" and true; int64 casts raised OverflowError
        path = self._field_file(tmp_path, kind, where, token)
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            load_model(path)

    @staticmethod
    def _field_file(tmp_path, kind, where, token):
        """A single model of learner ``kind``, or a bagging model if
        ``kind`` is "pca", saved with ``token`` at path ``where``."""
        rng = np.random.default_rng(449)
        data = tiny_tensor_dataset(rng)
        if kind == "pca":
            model = bagging_fit(data, 2, 4, ClassifierSpec("knn", {"k": 1}), 3)
        else:
            flat = VectorDataset(data.data, data.labels)
            model = SingleModel(data.shape, fit(ClassifierSpec(kind), flat, 1))
        payload = json.loads(canonical_json(model_to_dict(model)))
        *path, last = where
        node = payload
        for key in path:
            node = node[key]
        node[last] = 123456.75  # a marker the file holds once
        text = canonical_json(payload)
        assert text.count("123456.75") == 1
        model_path = tmp_path / "model.json"
        model_path.write_text(text.replace("123456.75", token))
        return model_path

    @pytest.mark.parametrize(
        "token, message",
        [
            ("NaN", "non-finite number NaN in model file"),
            ("Infinity", "non-finite number Infinity in model file"),
            # parses to inf; the field that holds it rejects it
            ("1e999", "single model: knn train_features has a non-finite value"),
        ],
        ids=["NaN", "Infinity", "1e999"],
    )
    def test_non_finite_number_rejected(self, tmp_path, token, message):
        path = tmp_path / "single.json"
        save_model(self._knn_with_negative_zero(), path)
        text = path.read_text()
        assert text.count("0.25") == 1
        path.write_text(text.replace("0.25", token))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda p: p["base_models"].pop("1,1"), "'1,1' is missing"),
            (
                lambda p: p["base_models"].update({"2,1": p["base_models"]["2,0"]}),
                "'2,1' is unexpected",
            ),
            (
                lambda p: p["rank"].pop(),
                r"^rank \[2, 2\] has 2 entries but shape \[3, 4, 2\] has 3$",
            ),
            (
                lambda p: p["base_models"].update({"0,0": p["base_models"]["1,0"]}),
                r"key '0,0' has width 4, expected 3$",
            ),
            (
                lambda p: add_knn_label(p["base_models"]["0,1"], 7),
                r"key '0,1' has class labels \[0, 1, 7\] outside the model's \[0, 1\]",
            ),
            (
                lambda p: p["base_models"]["0,1"]["train_labels"].pop(),
                r"^telvi base_models key '0,1': knn train_labels has shape \[11\]",
            ),
            (
                # a KeyError that named no learner
                lambda p: p["base_models"]["0,1"].pop("train_labels"),
                r"^telvi base_models key '0,1': missing knn learner key 'train_labels'$",
            ),
        ],
        ids=[
            "missing-key", "extra-key", "rank-shorter-than-shape",
            "learner-width", "learner-class-labels", "learner-train-labels",
            "learner-missing-key",
        ],
    )
    def test_tampered_telvi_model_rejected(self, tmp_path, tamper, message):
        rng = np.random.default_rng(449)
        model = telvi_fit(
            tiny_tensor_dataset(rng), (2, 2, 1), ClassifierSpec("knn", {"k": 1}), 3
        )
        with pytest.raises(ValueError, match=message):
            load_model(self._tampered_file(tmp_path, model, tamper))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (
                lambda p: p["estimators"][1].update(train_features=[
                    row[:-1] for row in p["estimators"][1]["train_features"]
                ]),
                r"^bagging estimator 1 has width 5, expected 6$",
            ),
            (
                lambda p: p["pca"]["mean"].pop(),
                r"^bagging pca mean has length 23, expected 24 for shape \[3, 4, 2\]$",
            ),
            (
                lambda p: p["pca"]["components"].pop(),
                r"^bagging pca components have shape \[23, 6\], expected "
                r"\[24, k\] for shape \[3, 4, 2\]$",
            ),
            (
                lambda p: p["pca"].update(components=sum(p["pca"]["components"], [])),
                r"^bagging pca components have shape \[144\], expected",
            ),
            (
                lambda p: add_knn_label(p["estimators"][0], 5),
                r"^bagging estimator 0 has class labels \[0, 1, 5\] outside",
            ),
            (
                lambda p: p["bootstrap_seeds"].pop(),
                r"^bagging bootstrap_seeds has length 2, expected 3, one per "
                r"estimator$",
            ),
            (
                lambda p: p["bootstrap_seeds"].append(p["bootstrap_seeds"][0]),
                r"^bagging bootstrap_seeds has length 4, expected 3, one per "
                r"estimator$",
            ),
            (
                lambda p: p["bootstrap_seeds"].__setitem__(1, -5),
                r"^bagging bootstrap_seeds\[1\] must be in \[0, 2\*\*64\), got -5$",
            ),
            (
                lambda p: p["bootstrap_seeds"].__setitem__(2, 2**70),
                r"^bagging bootstrap_seeds\[2\] must be in \[0, 2\*\*64\), "
                rf"got {2**70}$",
            ),
            # TypeError: 'int' object is not iterable, naming no key
            (
                lambda p: p.update(estimators=3),
                r"^bagging estimators must be a list, got 3$",
            ),
            (
                lambda p: p.update(bootstrap_seeds=3),
                r"^bagging bootstrap_seeds must be a list, got 3$",
            ),
        ],
        ids=[
            "estimator-width", "pca-mean-length", "pca-components-rows",
            "pca-components-flat", "estimator-class-labels",
            "bootstrap-seed-dropped", "bootstrap-seed-appended",
            "bootstrap-seed-negative", "bootstrap-seed-2**70",
            "estimators-number", "bootstrap-seeds-number",
        ],
    )
    def test_tampered_bagging_model_rejected(self, tmp_path, tamper, message):
        rng = np.random.default_rng(457)
        model = bagging_fit(
            tiny_tensor_dataset(rng), 3, 6, ClassifierSpec("knn", {"k": 1}), 5
        )
        with pytest.raises(ValueError, match=message):
            load_model(self._tampered_file(tmp_path, model, tamper))

    # (method, change to a fitted model, the reader's message for the same
    # defect in a file): the models check themselves when they are built
    LIBRARY_DEFECTS = {
        "telvi-rank-shorter-than-shape": (
            "telvi", lambda m: {"rank": (2, 2)},
            r"^rank \[2, 2\] has 2 entries but shape \[3, 4, 2\] has 3$",
        ),
        "telvi-missing-key": (
            "telvi",
            lambda m: {"base_models": {k: v for k, v in m.base_models.items()
                                       if k != (1, 1)}},
            "'1,1' is missing",
        ),
        "telvi-extra-key": (
            "telvi",
            lambda m: {"base_models": {**m.base_models, (2, 1): m.base_models[2, 0]}},
            "'2,1' is unexpected",
        ),
        "telvi-learner-width": (
            "telvi",
            lambda m: {"base_models": {**m.base_models, (0, 0): m.base_models[1, 0]}},
            r"key '0,0' has width 4, expected 3$",
        ),
        "telvi-learner-class-labels": (
            "telvi",
            lambda m: {"class_labels": np.array([0])},
            r"key '0,0' has class labels \[0, 1\] outside the model's \[0\]",
        ),
        "bagging-pca-mean-length": (
            "bagging",
            lambda m: {"pca": PcaModel(m.pca.mean[:-1], m.pca.components)},
            r"^bagging pca mean has length 23, expected 24 for shape \[3, 4, 2\]$",
        ),
        "bagging-pca-components-rows": (
            "bagging",
            lambda m: {"pca": PcaModel(m.pca.mean, m.pca.components[:-1])},
            r"^bagging pca components have shape \[23, 6\], expected "
            r"\[24, k\] for shape \[3, 4, 2\]$",
        ),
        "bagging-pca-components-flat": (
            "bagging",
            lambda m: {"pca": PcaModel(m.pca.mean, m.pca.components.ravel())},
            r"^bagging pca components have shape \[144\], expected",
        ),
        "bagging-estimator-width": (
            "bagging",
            lambda m: {"pca": PcaModel(m.pca.mean, m.pca.components[:, :5])},
            r"^bagging estimator 0 has width 6, expected 5$",
        ),
        "bagging-estimator-class-labels": (
            "bagging",
            lambda m: {"class_labels": np.array([0])},
            r"^bagging estimator 0 has class labels \[0, 1\] outside",
        ),
        "bagging-bootstrap-seeds-length": (
            "bagging",
            lambda m: {"bootstrap_seeds": m.bootstrap_seeds[:2]},
            r"^bagging bootstrap_seeds has length 2, expected 3, one per "
            r"estimator$",
        ),
        "bagging-bootstrap-seed-range": (
            "bagging",
            lambda m: {"bootstrap_seeds": [*m.bootstrap_seeds[:2], 2**64]},
            r"^bagging bootstrap_seeds\[2\] must be in \[0, 2\*\*64\), "
            rf"got {2**64}$",
        ),
        "single-width": (
            "single", lambda m: {"shape": (3, 4, 3)},
            "^single model has width 24, expected 36$",
        ),
    }

    @pytest.mark.parametrize(
        "method, change, message", LIBRARY_DEFECTS.values(), ids=list(LIBRARY_DEFECTS)
    )
    def test_library_built_model_checks_itself(self, method, change, message):
        data = tiny_tensor_dataset(np.random.default_rng(449))
        spec = ClassifierSpec("knn", {"k": 1})
        if method == "telvi":
            model = telvi_fit(data, (2, 2, 1), spec, 3)
        elif method == "bagging":
            model = bagging_fit(data, 3, 6, spec, 5)
        else:
            flat = VectorDataset(data.data, data.labels)
            model = SingleModel(data.shape, fit(spec, flat, 1))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, **change(model))

    def test_tampered_single_model_rejected(self, tmp_path):
        rng = np.random.default_rng(461)
        data = tiny_tensor_dataset(rng)
        flat = VectorDataset(data.data, data.labels)
        model = SingleModel(data.shape, fit(ClassifierSpec("tree"), flat, 1))
        path = self._tampered_file(
            tmp_path, model, lambda p: p.update(shape=[3, 4, 3])
        )
        with pytest.raises(ValueError, match="^single model has width 24, expected 36$"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, tamper, message",
        [
            (
                "knn",
                lambda m: m["train_labels"].pop(),
                r"^single model: knn train_labels has shape \[11\], expected one "
                r"label per row of train_features \(12\)$",
            ),
            (
                "knn",
                lambda m: m["class_labels"].pop(),
                r"^single model: knn class_labels \[0\] are not the distinct "
                r"train_labels \[0, 1\]$",
            ),
            (
                "knn",
                lambda m: m.update(train_features=[]),
                r"^single model: knn train_features has shape \[0\]",
            ),
            (
                "tree",
                lambda m: m["root"].update(feature=-1),
                r"^single model: tree split feature -1 is outside \[0, 24\)$",
            ),
            (
                "tree",
                lambda m: m["root"].update(feature=24),
                r"^single model: tree split feature 24 is outside \[0, 24\)$",
            ),
            (
                "tree",
                lambda m: first_leaf(m["root"]).update(label=-1),
                r"^single model: tree leaf label -1 is not one of the "
                r"class_labels \[0, 1\]$",
            ),
            (
                "logit",
                lambda m: m["class_labels"].pop(),
                r"^single model: logit weights has shape \[24, 2\], expected \[24, 1\]$",
            ),
            (
                "logit",
                lambda m: m["bias"].pop(),
                r"^single model: logit bias has shape \[1\], expected \[2\]$",
            ),
            (
                "logit",
                lambda m: m["scaler"]["mean"].pop(),
                r"^single model: logit scaler mean has shape \[23\], expected \[24\]$",
            ),
            (
                "logit",
                lambda m: m["scaler"]["std"].pop(),
                r"^single model: logit scaler std has shape \[23\], expected \[24\]$",
            ),
            (
                "svm",
                lambda m: m["class_labels"].pop(),
                r"^single model: svm has 2 binaries, expected one per class of "
                r"class_labels \[0\]$",
            ),
            (
                "svm",
                lambda m: m["binaries"].pop(),
                r"^single model: svm has 1 binaries, expected one per class of "
                r"class_labels \[0, 1\]$",
            ),
            (
                # TypeError: 'int' object is not iterable, naming no key
                "svm",
                lambda m: m.update(binaries=3),
                r"^single model: svm binaries must be a list, got 3$",
            ),
            (
                "svm",
                lambda m: m["binaries"][1]["dual_coefs"].pop(),
                r"^single model: svm binary 1 dual_coefs has shape \[\d+\], expected",
            ),
            (
                "svm",
                lambda m: m["scaler"]["std"].pop(),
                r"^single model: svm scaler std has shape \[23\], expected \[24\]$",
            ),
            # keys the writer never emits, once loaded without a word
            (
                "logit",
                lambda m: m.update(n_features=3),
                r"^single model: unknown logit learner key 'n_features'$",
            ),
            (
                "knn",
                lambda m: m.update(n_features=24),
                r"^single model: unknown knn learner key 'n_features'$",
            ),
            (
                "svm",
                lambda m: m["binaries"][0].update(alpha=[]),
                r"^single model: unknown svm binary key 'alpha'$",
            ),
            (
                "logit",
                lambda m: m["scaler"].update(scale=[]),
                r"^single model: unknown scaler key 'scale'$",
            ),
            (
                "tree",
                lambda m: first_leaf(m["root"]).update(count=3),
                r"^single model: unknown tree node key 'count'$",
            ),
            # arrays of the wrong rank, once an IndexError or wrong votes
            (
                "logit",
                lambda m: m.update(weights=5),
                r"^single model: logit weights has shape \[\], expected a 2-d array$",
            ),
            (
                "logit",
                lambda m: m.update(class_labels=[m["class_labels"]]),
                r"^single model: logit class_labels has shape \[1, 2\], "
                r"expected a 1-d array$",
            ),
            (
                "svm",
                lambda m: m.update(class_labels=[m["class_labels"]]),
                r"^single model: svm class_labels has shape \[1, 2\], "
                r"expected a 1-d array$",
            ),
            (
                "tree",
                lambda m: m.update(class_labels=[m["class_labels"]]),
                r"^single model: tree class_labels has shape \[1, 2\], "
                r"expected a 1-d array$",
            ),
            (
                "knn",
                lambda m: m.update(class_labels=[m["class_labels"]]),
                r"^single model: knn class_labels has shape \[1, 2\], "
                r"expected a 1-d array$",
            ),
        ],
        ids=[
            "knn-train-labels", "knn-class-labels", "knn-no-rows",
            "tree-negative-feature", "tree-feature-past-width", "tree-leaf-label",
            "logit-class-labels", "logit-bias", "logit-scaler-mean",
            "logit-scaler-std", "svm-class-labels", "svm-binaries",
            "svm-binaries-number", "svm-dual-coefs", "svm-scaler-std",
            "logit-unknown-key", "knn-unknown-key", "svm-binary-unknown-key",
            "scaler-unknown-key", "tree-node-unknown-key",
            "logit-weights-rank", "logit-class-labels-rank",
            "svm-class-labels-rank", "tree-class-labels-rank",
            "knn-class-labels-rank",
        ],
    )
    def test_tampered_single_learner_rejected_at_load(
        self, tmp_path, kind, tamper, message
    ):
        rng = np.random.default_rng(467)
        data = tiny_tensor_dataset(rng)
        flat = VectorDataset(data.data, data.labels)
        model = SingleModel(data.shape, fit(ClassifierSpec(kind), flat, 1))
        path = self._tampered_file(tmp_path, model, lambda p: tamper(p["model"]))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_single_model_without_shape_rejected(self, tmp_path):
        rng = np.random.default_rng(463)
        data = tiny_tensor_dataset(rng)
        flat = VectorDataset(data.data, data.labels)
        model = SingleModel(data.shape, fit(ClassifierSpec("knn", {"k": 1}), flat, 1))
        path = self._tampered_file(tmp_path, model, lambda p: p.pop("shape"))
        with pytest.raises(ValueError, match="^missing single model file key 'shape'$"):
            load_model(path)

    @staticmethod
    def _tampered_file(tmp_path, model, tamper):
        """Save ``model``, apply ``tamper`` to its JSON payload and return
        the rewritten file's path."""
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format_version": 1, "type": "mystery"}')
        with pytest.raises(ValueError, match="unknown model type"):
            load_model(path)

    @pytest.mark.parametrize(
        "version, message",
        [
            ("true", "format_version must be a number, got True"),
            ('"1"', "format_version must be a number, got '1'"),
            ("1.5", "format_version must be an integer, got 1.5"),
            ("2", "unsupported model format version 2"),
        ],
        ids=["bool", "str", "half", "two"],
    )
    def test_format_version_rejected(self, tmp_path, version, message):
        # true equals 1, so it loaded
        path = tmp_path / "x.json"
        path.write_text(f'{{"format_version": {version}, "type": "single"}}')
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)


def single_field_edits(node, path=()):
    """``(path, value)`` of every single-field edit of a parsed model file:
    a list loses or repeats its last entry, an int becomes x + 1, x - 1, 0,
    x + 0.5, true, "1" or 2**70, and a float is negated, scaled by 1e300 or
    becomes "1" or true."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from single_field_edits(value, path + (key,))
    elif isinstance(node, list):
        if node:
            yield path, node[:-1]
            yield path, node + node[-1:]
        for index, value in enumerate(node):
            yield from single_field_edits(value, path + (index,))
    elif isinstance(node, int):
        for value in (node + 1, node - 1, 0, node + 0.5, True, "1", 2**70):
            yield path, value
    elif isinstance(node, float):
        for value in (-node, node * 1e300, "1", True):
            yield path, value


class TestTamperedModelFiles:
    """Every single-field edit of a small model file of each learner kind
    and method fails at load with a ValueError, or loads and predicts
    labels from the model's class labels without a warning, or fails at
    predict by the svm rule for non-finite decision values; an edit to a
    bool or a str always fails at load."""

    SPECS = {
        "knn": ClassifierSpec("knn", {"k": 1}),
        "tree": ClassifierSpec("tree", {"max_depth": 2}),
        "logit": ClassifierSpec("logit", {"max_iterations": 20}),
        "svm": ClassifierSpec("svm", {"kernel": "poly", "max_passes": 2}),
    }

    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    def test_every_single_field_edit(self, tmp_path, kind, method):
        data = tiny_tensor_dataset(np.random.default_rng(467), 4, (2, 3, 2))
        spec = self.SPECS[kind]
        if method == "telvi":
            model = telvi_fit(data, (1, 1, 1), spec, 3)
        elif method == "bagging":
            model = bagging_fit(data, 2, 2, spec, 5)
        else:
            flat = VectorDataset(data.data, data.labels)
            model = SingleModel(data.shape, fit(spec, flat, 1))
        text = canonical_json(model_to_dict(model))
        path = tmp_path / "model.json"
        outcomes, wrong = Counter(), []
        for where, value in single_field_edits(json.loads(text)):
            payload = json.loads(text)
            *parents, last = where
            node = payload
            for key in parents:
                node = node[key]
            node[last] = value
            path.write_text(json.dumps(payload))
            outcome = self._outcome(path, data)
            outcomes[outcome.split(":")[0]] += 1
            if isinstance(value, (bool, str)) and outcome != "rejected":
                outcome = f"wrong: {value!r} not rejected"
            if outcome.startswith("wrong"):
                wrong.append((where, value, outcome))
        assert wrong == []
        assert outcomes["rejected"] > 0 and outcomes["predicted"] > 0

    @staticmethod
    def _outcome(path, data) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loaded = load_model(path)
            except ValueError:
                return "rejected"
            except Exception as exc:
                return f"wrong: {type(exc).__name__} at load: {exc}"
            try:
                votes = predict_votes(loaded, data.data, data.shape)[1]
            except ValueError as exc:
                if re.fullmatch(r"svm decision values of row \d+ are not finite", str(exc)):
                    return "svm rule"
                return f"wrong: ValueError at predict: {exc}"
            except Exception as exc:
                return f"wrong: {type(exc).__name__} at predict: {exc}"
        model = loaded.learner if isinstance(loaded, SingleModel) else loaded
        labels = set(majority_labels(votes).tolist())
        if not labels <= set(model.class_labels.tolist()):
            return f"wrong: labels {sorted(labels)} outside the class labels"
        return "predicted"


# Model files and config echoes of tiny hand-built objects, byte for byte.
# Every value is exact in binary or written at 17 digits, so these bytes
# depend on no BLAS build.  A wrapper's SPEC and LEARNER are its learner's.
FORMAT_SPECS = {
    "knn": '{"hyperparameters":{"distance":"euclidean","k":1},"kind":"knn"}',
    "tree": '{"hyperparameters":{"criterion":"gini","max_depth":2,"min_samples_split":2},'
            '"kind":"tree"}',
    "logit": '{"hyperparameters":{"l2_penalty":0.0001,"learning_rate":0.5,'
             '"max_iterations":500},"kind":"logit"}',
    "svm": '{"hyperparameters":{"C":1,"coef0":1,"degree":3,"gamma":0.5,"kernel":"poly",'
           '"max_passes":10,"tolerance":0.001},"kind":"svm"}',
}
FORMAT_LEARNERS = {
    "knn": '{"class_labels":[0,1],"spec":SPEC,'
           '"train_features":[[-0,1.5],[2,0.10000000000000001]],"train_labels":[0,1]}',
    "tree": '{"class_labels":[0,1],"n_features":2,"root":{"feature":1,"left":{"label":0},'
            '"right":{"label":1},"threshold":0.5},"spec":SPEC}',
    "logit": '{"bias":[0.10000000000000001,-0.10000000000000001],"class_labels":[0,1],'
             '"scaler":{"mean":[0.5,-1],"std":[2,0]},"spec":SPEC,'
             '"weights":[[1,-1],[0.25,3.0000000000000001e-05]]}',
    "svm": '{"binaries":[{"bias":-0.25,"dual_coefs":[],"support_vectors":[]}],'
           '"class_labels":[1],"n_features":2,"scaler":{"mean":[0,0],"std":[1,1]},'
           '"spec":SPEC}',
}
FORMAT_WRAPPERS = {
    "telvi": '{"base_models":{"0,0":LEARNER,"1,0":LEARNER},"base_spec":SPEC,'
             '"class_labels":[0,1],"format_version":1,"rank":[1,1],"seed":3,'
             '"shape":[2,2],"type":"telvi"}',
    "bagging": '{"base_spec":SPEC,"bootstrap_seeds":[11],"class_labels":[0,1],'
               '"estimators":[LEARNER],"format_version":1,'
               '"pca":{"components":[[1,0],[0,1]],"mean":[0,1]},"seed":5,"shape":[2],'
               '"type":"bagging"}',
    "single": '{"format_version":1,"model":LEARNER,"shape":[2],"type":"single"}',
}


def format_learner(kind):
    if kind == "knn":
        return KnnModel(ClassifierSpec("knn", {"k": 1}), np.array([0, 1]),
                        np.array([[-0.0, 1.5], [2.0, 0.1]]), np.array([0, 1]))
    if kind == "tree":
        root = TreeNode(feature=1, threshold=0.5, left=TreeNode(label=0),
                        right=TreeNode(label=1))
        return TreeModel(ClassifierSpec("tree", {"max_depth": 2}), np.array([0, 1]),
                         root, 2)
    if kind == "logit":
        return LogitModel(ClassifierSpec("logit"), np.array([0, 1]),
                          Scaler(np.array([0.5, -1.0]), np.array([2.0, 0.0])),
                          np.array([[1.0, -1.0], [0.25, 3e-5]]), np.array([0.1, -0.1]))
    return SvmModel(ClassifierSpec("svm", {"kernel": "poly"}), np.array([1]),
                    Scaler(np.zeros(2), np.ones(2)),
                    [BinarySvm(np.empty((0, 2)), np.empty(0), -0.25)], 2)


def format_model(wrapper, learner):
    if wrapper == "telvi":
        return TelviModel((1, 1), (2, 2), learner.spec,
                          {(0, 0): learner, (1, 0): learner}, np.array([0, 1]), 3)
    if wrapper == "bagging":
        return BaggingModel((2,), PcaModel(np.array([0.0, 1.0]), np.eye(2)),
                            learner.spec, [learner], [11], np.array([0, 1]), 5)
    return SingleModel((2,), learner)


class TestFileFormat:
    @pytest.mark.parametrize("wrapper", ["telvi", "bagging", "single"])
    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    def test_model_file_bytes(self, tmp_path, kind, wrapper):
        expected = (
            FORMAT_WRAPPERS[wrapper]
            .replace("LEARNER", FORMAT_LEARNERS[kind])
            .replace("SPEC", FORMAT_SPECS[kind])
        )
        model = format_model(wrapper, format_learner(kind))
        assert canonical_json(model_to_dict(model)) == expected
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        assert path.read_text() == expected + "\n"
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                lambda: ExperimentConfig(
                    dataset={"path": "data.teld"}, rank_search_threshold=0.25,
                    base_grid=(ClassifierSpec("knn", {"k": 3}),),
                ),
                '{"base_grid":[{"hyperparameters":{"distance":"euclidean","k":3},'
                '"kind":"knn"}],"cv_folds":5,"dataset":{"path":"data.teld"},'
                '"method":"telvi","n_estimators":12,"rank_search_threshold":0.25,'
                '"seed":0,"train_fraction":0.5}',
            ),
            (
                lambda: ExperimentConfig(
                    dataset={"image_dir": "images"}, method="bagging", pca_dim=4,
                    n_estimators=3,
                    base_grid=(ClassifierSpec("tree", {"max_depth": 2}),
                               ClassifierSpec("knn")),
                    output="report.json", seed=9,
                ),
                '{"base_grid":[{"hyperparameters":{"criterion":"gini","max_depth":2,'
                '"min_samples_split":2},"kind":"tree"},{"hyperparameters":'
                '{"distance":"euclidean","k":5},"kind":"knn"}],"cv_folds":5,'
                '"dataset":{"image_dir":"images"},"method":"bagging","n_estimators":3,'
                '"output":"report.json","pca_dim":4,"seed":9,"train_fraction":0.5}',
            ),
            (
                lambda: ExperimentConfig(
                    dataset={"synthetic": SyntheticSpec((4, 3), 2, (2, 1), 3, 0.125, 1)},
                    rank=(2, 1), cv_folds=3, train_fraction=0.75,
                    base_grid=(ClassifierSpec("logit"),),
                ),
                '{"base_grid":[{"hyperparameters":{"l2_penalty":0.0001,'
                '"learning_rate":0.5,"max_iterations":500},"kind":"logit"}],'
                '"cv_folds":3,"dataset":{"synthetic":{"classes":2,"noise_std":0.125,'
                '"rank":[2,1],"samples_per_class":3,"seed":1,"shape":[4,3]}},'
                '"method":"telvi","n_estimators":12,"rank":[2,1],"seed":0,'
                '"train_fraction":0.75}',
            ),
            (
                # integral values of float keys echo as they are written
                lambda: ExperimentConfig(
                    dataset={"synthetic": SyntheticSpec((4, 3), 2, (2, 1), 3, 0, 1)},
                    rank_search_threshold=0, base_grid=(ClassifierSpec("knn"),),
                ),
                '{"base_grid":[{"hyperparameters":{"distance":"euclidean","k":5},'
                '"kind":"knn"}],"cv_folds":5,"dataset":{"synthetic":{"classes":2,'
                '"noise_std":0,"rank":[2,1],"samples_per_class":3,"seed":1,'
                '"shape":[4,3]}},"method":"telvi","n_estimators":12,'
                '"rank_search_threshold":0,"seed":0,"train_fraction":0.5}',
            ),
        ],
        ids=["path", "image-dir", "synthetic", "integral-floats"],
    )
    def test_config_echo_bytes(self, config, expected):
        config = config()
        assert canonical_json(config.to_dict()) == expected
        assert ExperimentConfig.from_dict(json.loads(expected)) == config


# Every model file and builder of a shape meets the one shape rule,
# tensor._check_shape, with its one message.
BAD_SHAPES = {
    "empty": ([], "tensor order must be at least 1"),
    "zero": ([0, 3], "all dimensions must be >= 1, got (0, 3)"),
    "negative": ([-2, -3], "all dimensions must be >= 1, got (-2, -3)"),
    "half": ([2.5, 3], "shape[0] must be an integer, got 2.5"),
    # TypeError: 'int' (or 'NoneType') object is not iterable
    "number": (3, "shape must be a list, got 3"),
    "null": (None, "shape must be a list, got None"),
}

# Every builder of a rank meets the one rank rule, hosvd._check_rank.
BAD_RANKS = {
    "zero": ([0, 1], "rank entries must be >= 1, got [0, 1]"),
    "negative": ([2, -1], "rank entries must be >= 1, got [2, -1]"),
    "half": ([1.5, 1], "rank must be an integer, got 1.5"),
    "bool": ([True, 1], "rank must be a number, got True"),
    # TypeError: 'int' (or 'bool') object is not iterable
    "number": (2, "rank must be a list, got 2"),
    "true": (True, "rank must be a list, got True"),
}


def telvi_rank_one(shape=(3, 2)):
    """A telvi model of ``shape`` at rank 1 per mode, one knn learner per mode."""
    spec = ClassifierSpec("knn", {"k": 1})
    learners = {(n, 0): KnnModel(spec, np.array([0, 1]), np.eye(2, width), np.array([0, 1]))
                for n, width in enumerate(shape)}
    return TelviModel((1,) * len(shape), shape, spec, learners, np.array([0, 1]), 3)


def with_rank(model, rank):
    """``model``'s telvi fields at ``rank``: its (n, 0) learner once per
    factor column, so the learner keys always match the rank.  A rank that
    is not a list keeps the model's learners."""
    if not isinstance(rank, (list, tuple)):
        return {"rank": rank}
    keys = [(n, r) for n, r_n in enumerate(rank) for r in range(int(r_n))]
    return {"rank": rank, "base_models": {k: model.base_models[k[0], 0] for k in keys}}


def file_at_rank(tmp_path, model, rank):
    """``model``'s telvi file edited as ``with_rank`` edits the model."""
    def edit(payload):
        payload["rank"] = rank
        keys = with_rank(model, rank).get("base_models", model.base_models)
        payload["base_models"] = {f"{n},{r}": payload["base_models"][f"{n},0"]
                                  for n, r in keys}
    return TestModelFiles._tampered_file(tmp_path, model, edit)


class TestShapeAndRankRules:
    @pytest.mark.parametrize("shape, message", BAD_SHAPES.values(), ids=BAD_SHAPES)
    @pytest.mark.parametrize(
        "build", ["DenseTensor", "fold", "SyntheticSpec", "telvi", "bagging", "single"]
    )
    def test_shape_rule(self, tmp_path, build, shape, message):
        # at the parent a synthetic spec took [], fold and the models took
        # the others but [2.5, 3], and the model files took every shape
        if build in ("telvi", "bagging", "single"):
            model = format_model(build, format_learner("knn"))
            path = TestModelFiles._tampered_file(
                tmp_path, model, lambda p: p.update(shape=shape))
            calls = [lambda: dataclasses.replace(model, shape=shape),
                     lambda: load_model(path)]
        else:
            calls = [{
                "DenseTensor": lambda: DenseTensor(shape, [1.0]),
                "fold": lambda: fold(np.ones((1, 1)), 0, shape),
                "SyntheticSpec": lambda: SyntheticSpec(shape, 2, (1, 1), 2, 0.0, 0),
            }[build]]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("rank, message", BAD_RANKS.values(), ids=BAD_RANKS)
    @pytest.mark.parametrize(
        "build", ["ExperimentConfig", "SyntheticSpec", "clamp_rank", "telvi"]
    )
    def test_rank_rule(self, tmp_path, build, rank, message):
        model = telvi_rank_one()
        calls = {
            "ExperimentConfig": [lambda: ExperimentConfig(
                dataset={"path": "data.teld"}, rank=rank,
                base_grid=(ClassifierSpec("knn"),))],
            "SyntheticSpec": [lambda: SyntheticSpec((3, 2), 2, rank, 2, 0.0, 0)],
            "clamp_rank": [lambda: clamp_rank(rank, (3, 2))],
            "telvi": [lambda: dataclasses.replace(model, **with_rank(model, rank)),
                      lambda: load_model(file_at_rank(tmp_path, model, rank))],
        }[build]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize(
        "build", ["clamp_rank", "SyntheticSpec", "ExperimentConfig", "telvi", "telvi-file"]
    )
    def test_rank_order_rule(self, tmp_path, build):
        # five checks with four messages, "does not match shape" among them;
        # clamp_rank is now the one rule for a rank against its shape
        model = telvi_rank_one((8, 8, 3))
        call = {
            "clamp_rank": lambda: clamp_rank([2, 2], (8, 8, 3)),
            "SyntheticSpec": lambda: SyntheticSpec((8, 8, 3), 2, (2, 2), 2, 0.0, 0),
            "ExperimentConfig": lambda: benchmark_config(rank=[2, 2]),
            "telvi": lambda: dataclasses.replace(model, **with_rank(model, (2, 2))),
            "telvi-file": lambda: load_model(file_at_rank(tmp_path, model, [2, 2])),
        }[build]
        message = "rank [2, 2] has 2 entries but shape [8, 8, 3] has 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_telvi_rank_past_its_clamp_rejected(self, tmp_path):
        # it loaded, with learners for columns its factors never have, and
        # predict_votes failed with KeyError: (0, 2)
        model = telvi_rank_one()
        assert clamp_rank((4, 1), (3, 2)) == (2, 1)
        message = "telvi rank [4, 1] exceeds its clamp [2, 1] for shape [3, 2]"
        for call in [lambda: dataclasses.replace(model, **with_rank(model, (4, 1))),
                     lambda: load_model(file_at_rank(tmp_path, model, [4, 1]))]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_synthetic_spec_without_a_shape_fails_at_config_load(self):
        # it failed only in the load stage, as an ExperimentError
        payload = benchmark_config().to_dict()
        payload["dataset"]["synthetic"].update(shape=[], rank=[])
        with pytest.raises(ValueError, match="^tensor order must be at least 1$"):
            ExperimentConfig.from_dict(payload)

    def test_rules_normalize_what_they_read(self):
        model = dataclasses.replace(telvi_rank_one(), shape=[3.0, np.int64(2)], rank=[1, 1.0])
        assert model.shape == (3, 2) and model.rank == (1, 1)
        assert all(type(v) is int for v in model.shape + model.rank)


class TestModelFileObjects:
    """Each object of a model file is read against the one type it builds:
    a missing, extra or mistyped key is one ValueError naming both."""

    @pytest.mark.parametrize(
        "method, kind, edit, message",
        [
            ("single", "knn", lambda p: p.pop("shape"),
             "missing single model file key 'shape'"),
            ("single", "knn", lambda p: p.pop("model"),
             "missing single model file key 'model'"),
            ("telvi", "knn", lambda p: p.pop("rank"), "missing telvi model file key 'rank'"),
            ("telvi", "knn", lambda p: p.pop("seed"), "missing telvi model file key 'seed'"),
            ("telvi", "knn", lambda p: p.pop("base_models"),
             "missing telvi model file key 'base_models'"),
            ("bagging", "knn", lambda p: p.pop("pca"), "missing bagging model file key 'pca'"),
            ("single", "knn", lambda p: p["model"].pop("spec"),
             "single model: missing learner key 'spec'"),
            ("bagging", "knn", lambda p: p["pca"].pop("mean"), "missing pca key 'mean'"),
            ("telvi", "knn", lambda p: p.update(estimators=[]),
             "unknown telvi model file key 'estimators'"),
            ("telvi", "knn", lambda p: p.update(pca={}), "unknown telvi model file key 'pca'"),
            ("telvi", "knn", lambda p: p.update(model={}),
             "unknown telvi model file key 'model'"),
            ("telvi", "knn", lambda p: p.update(bootstrap_seeds=[]),
             "unknown telvi model file key 'bootstrap_seeds'"),
            ("bagging", "knn", lambda p: p["pca"].update(scale=[1]), "unknown pca key 'scale'"),
            ("bagging", "knn", lambda p: p.update(pca=[1]), "pca must be an object, got [1]"),
            ("telvi", "knn", lambda p: p.update(base_models=[1]),
             "telvi base_models must be an object, got [1]"),
            ("single", "tree", lambda p: p["model"]["root"].pop("left"),
             "single model: missing tree split key 'left'"),
            ("single", "tree", lambda p: p["model"]["root"].pop("threshold"),
             "single model: missing tree split key 'threshold'"),
            ("single", "tree", lambda p: p["model"]["root"].update(label=0),
             "single model: unknown tree leaf key 'feature'"),
        ],
        ids=[
            "single-shape", "single-model", "telvi-rank", "telvi-seed",
            "telvi-base-models", "bagging-pca", "learner-spec", "pca-mean",
            "telvi-estimators", "telvi-pca", "telvi-model", "telvi-bootstrap-seeds",
            "pca-extra-key", "pca-list", "base-models-list", "split-left",
            "split-threshold", "split-label",
        ],
    )
    def test_object_rejected(self, tmp_path, method, kind, edit, message):
        # each was a KeyError, a TypeError or an AttributeError, or loaded
        # (a split with a label as a leaf, dropping its subtree)
        model = format_model(method, format_learner(kind))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(TestModelFiles._tampered_file(tmp_path, model, edit))


class TestCli:
    @pytest.fixture()
    def config_files(self, tmp_path):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(BENCHMARK_SPEC.to_dict()))
        experiment = tmp_path / "exp.json"
        experiment.write_text(
            json.dumps(
                {
                    "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
                    "train_fraction": 0.5,
                    "method": "telvi",
                    "rank": [2, 2, 1],
                    "base_grid": [KNN3],
                    "seed": 7,
                }
            )
        )
        return tmp_path, synth, experiment

    def test_synth_writes_loadable_teld(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        out = tmp_path / "data.teld"
        assert main(["synth", "--config", str(synth), "--out", str(out)]) == 0
        from telkit.io import load_tensor_dataset

        data = load_tensor_dataset(out)
        assert data.n_samples == 160

    def test_synth_without_seed_fails_naming_it(self, tmp_path, capsys):
        spec = BENCHMARK_SPEC.to_dict()
        del spec["seed"]
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(spec))
        out = tmp_path / "data.teld"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: missing synthetic spec key 'seed'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, where",
        [
            (["train", "--out", "model.json"], "experiment config"),
            (["experiment", "--out", "report.json"], "experiment config"),
            (["inspect"], "experiment config"),
            (["decompose", "--rank", "2,2,1", "--out", "decompose.json"],
             "experiment config"),
            (["synth", "--out", "data.teld"], "synthetic spec"),
        ],
        ids=["train", "experiment", "inspect", "decompose", "synth"],
    )
    def test_non_object_config_fails_naming_it(self, tmp_path, capsys, command, where):
        # train, experiment, inspect and decompose failed with a TypeError
        # from **, synth with "missing synthetic spec key 'shape'"
        config = tmp_path / "config.json"
        config.write_text("[]")
        out = [str(tmp_path / a) if a.endswith((".json", ".teld")) else a for a in command]
        assert main([out[0], "--config", str(config), *out[1:]]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {where} must be an object, got []\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_non_object_model_file_fails_naming_it(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        data_path, model_path = tmp_path / "data.teld", tmp_path / "model.json"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        model_path.write_text("[1]")
        csv_path = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(csv_path)]) == 1
        # it failed with AttributeError: 'list' object has no attribute 'get'
        assert capsys.readouterr().err == (
            "error: ValueError: model file must be an object, got [1]\n"
        )
        assert not csv_path.exists()

    def test_decompose_prints_error_line(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        out = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(out)])
        capsys.readouterr()
        code = main(["decompose", "--data", str(out), "--rank", "2,2,1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean_relative_error=" in stdout
        assert "rank=2,2,1" in stdout

    def test_train_then_predict(self, config_files, capsys):
        tmp_path, synth, experiment = config_files
        data_path = tmp_path / "data.teld"
        model_path = tmp_path / "model.json"
        pred_path = tmp_path / "pred.csv"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        assert main(["train", "--config", str(experiment), "--out", str(model_path)]) == 0
        code = main(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data_path),
                "--out", str(pred_path),
            ]
        )
        assert code == 0
        lines = pred_path.read_text().strip().splitlines()
        assert lines[0] == "index,label"
        assert len(lines) == 1 + 160

    def test_single_spec_telvi_train_matches_library_fit(
        self, config_files, capsys
    ):
        tmp_path, _, experiment = config_files
        cli_path = tmp_path / "cli_model.json"
        lib_path = tmp_path / "lib_model.json"
        assert main(["train", "--config", str(experiment), "--out", str(cli_path)]) == 0
        config = ExperimentConfig.from_dict(json.loads(experiment.read_text()))
        model = telvi_fit(  # train fits on the full dataset with slot 3
            tk.synth_generate(BENCHMARK_SPEC), config.rank,
            config.base_grid[0], mix_seed(config.seed, 3),
        )
        save_model(model, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    def test_tuned_train_matches_library_composition(
        self, tmp_path, capsys, method
    ):
        payload = {
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": method, "base_grid": TWO_SPEC_GRID, "cv_folds": 3,
            "seed": 7, "rank": [2, 2, 1], "pca_dim": 16, "n_estimators": 4,
        }
        if method != "telvi":
            del payload["rank"]
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(payload))
        cli_path = tmp_path / "cli_model.json"
        lib_path = tmp_path / "lib_model.json"
        assert main(["train", "--config", str(config_path), "--out", str(cli_path)]) == 0

        # train tunes on the full dataset with slot 2 and fits with slot 3
        data = tk.synth_generate(BENCHMARK_SPEC)
        grid = [ClassifierSpec.from_dict(spec) for spec in TWO_SPEC_GRID]
        tune_seed, fit_seed = mix_seed(7, 2), mix_seed(7, 3)
        vectors = data.data
        if method == "telvi":
            datasets = regroup(data, (2, 2, 1))
            chosen = grid_search_cv(
                grid, [datasets[k] for k in sorted(datasets)], 3, tune_seed
            )
            model = telvi_fit(data, (2, 2, 1), chosen, fit_seed)
        elif method == "bagging":
            reduced = pca_transform(pca_fit(vectors, 16), vectors)
            chosen = grid_search_cv(
                grid, [VectorDataset(reduced, data.labels)], 3, tune_seed
            )
            model = bagging_fit(data, 4, 16, chosen, fit_seed)
        else:
            flat = VectorDataset(vectors, data.labels)
            chosen = grid_search_cv(grid, [flat], 3, tune_seed)
            model = SingleModel(data.shape, fit(chosen, flat, fit_seed))
        assert chosen == grid[1]  # tuning moved off the first spec
        save_model(model, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_rank_search_train_matches_library_fit(self, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "telvi", "rank_search_threshold": 0.35,
            "base_grid": [KNN3], "seed": 7,
        }))
        cli_path = tmp_path / "cli_model.json"
        lib_path = tmp_path / "lib_model.json"
        assert main(["train", "--config", str(config_path), "--out", str(cli_path)]) == 0
        data = tk.synth_generate(BENCHMARK_SPEC)
        rank = rank_search(data.data, data.shape, 0.35)
        model = telvi_fit(
            data, rank, ClassifierSpec.from_dict(KNN3), mix_seed(7, 3)
        )
        save_model(model, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    @staticmethod
    def _train_error(tmp_path, capsys, **knobs):
        # the benchmark as a TELD file: its shape is known only once loaded
        data_path = tmp_path / "bench.teld"
        save_tensor_dataset(tk.synth_generate(BENCHMARK_SPEC), data_path)
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"path": str(data_path)},
            "method": "bagging", "base_grid": [KNN3], "cv_folds": 3, **knobs,
        }))
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        return err

    def test_train_failure_names_its_stage(self, tmp_path, capsys):
        # a rank of the wrong order is caught once the data is loaded
        err = self._train_error(tmp_path, capsys, method="telvi", rank=[2, 2])
        assert err.startswith("error: ExperimentError: decompose stage failed: ")

    @pytest.mark.parametrize(
        "knobs, stage",
        [
            # the decomposition fails in one stage whatever the grid's size
            (
                {"method": "telvi", "rank": [2, 2], "base_grid": TWO_SPEC_GRID},
                "decompose",
            ),
            (
                {
                    "dataset": {"synthetic": {**BENCHMARK_SPEC.to_dict(), "classes": 1}},
                    "pca_dim": 16, "base_grid": [{"kind": "svm"}],
                },
                "fit",
            ),
        ],
        ids=["rank-order-two-specs", "one-class-svm"],
    )
    def test_train_failure_stage_per_cause(self, tmp_path, capsys, knobs, stage):
        err = self._train_error(tmp_path, capsys, **knobs)
        assert err.startswith(f"error: ExperimentError: {stage} stage failed: ")

    @staticmethod
    def _train_load_error(tmp_path, capsys, **knobs):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "base_grid": [KNN3], **knobs,
        }))
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_train_rejects_cv_folds_below_two(self, tmp_path, capsys):
        err = self._train_load_error(tmp_path, capsys, method="single", cv_folds=0)
        assert err == "error: ValueError: cv_folds must be >= 2, got 0\n"

    def test_train_rejects_n_estimators_below_one(self, tmp_path, capsys):
        err = self._train_load_error(
            tmp_path, capsys, method="bagging", pca_dim=16, n_estimators=0
        )
        assert err == "error: ValueError: n_estimators must be >= 1, got 0\n"

    def test_train_rejects_pca_dim_below_one(self, tmp_path, capsys):
        # was a decompose stage failure, after the data was loaded and split
        err = self._train_load_error(tmp_path, capsys, method="bagging", pca_dim=0)
        assert err == "error: ValueError: pca_dim must be >= 1, got 0\n"

    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    def test_predict_csv_is_the_vote_of_predict_votes(
        self, config_files, capsys, method
    ):
        tmp_path, synth, _ = config_files
        data_path = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"path": str(data_path)}, "method": method,
            "rank": [2, 2, 1] if method == "telvi" else None,
            "pca_dim": 6, "n_estimators": 5, "base_grid": [KNN3], "seed": 7,
        }))
        model_path = tmp_path / "model.json"
        csv_path = tmp_path / "pred.csv"
        assert main(["train", "--config", str(config_path), "--out", str(model_path)]) == 0
        assert main([
            "predict", "--model", str(model_path), "--data", str(data_path),
            "--out", str(csv_path),
        ]) == 0
        data = tk.synth_generate(BENCHMARK_SPEC)
        _, votes = predict_votes(load_model(model_path), data.data, data.shape)
        winners = majority_labels(votes).tolist()
        rows = csv_path.read_text().splitlines()
        assert rows == ["index,label"] + [f"{i},{w}" for i, w in enumerate(winners)]

    def test_single_predict_rejects_another_shape(self, config_files, capsys):
        # the same values relabelled 3x8x8 have the trained 8x8x3 size
        tmp_path, synth, _ = config_files
        data_path = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"path": str(data_path)}, "method": "single",
            "base_grid": [KNN3], "seed": 7,
        }))
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(model_path)]) == 0
        data = tk.synth_generate(BENCHMARK_SPEC)
        relabelled = LabeledTensorDataset.from_rows(data.data, (3, 8, 8), data.labels)
        other_path = tmp_path / "other.teld"
        save_tensor_dataset(relabelled, other_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(other_path)]) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: sample shape (3, 8, 8) does not match "
            "training shape (8, 8, 3)\n"
        )
        with pytest.raises(ValueError, match="sample shape"):
            predict_votes(load_model(model_path), relabelled.data, relabelled.shape)

    def test_single_predict_rejects_a_file_without_shape(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        data_path = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"path": str(data_path)}, "method": "single",
            "base_grid": [KNN3], "seed": 7,
        }))
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        del payload["shape"]
        model_path.write_text(json.dumps(payload))
        csv_path = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main([
            "predict", "--model", str(model_path), "--data", str(data_path),
            "--out", str(csv_path),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: missing single model file key 'shape'\n"
        assert not csv_path.exists()

    def test_telvi_predict_calls_each_learner_once(
        self, config_files, capsys, monkeypatch, cpus
    ):
        cpus(1)  # the calls are counted in this process, so none may pool
        tmp_path, synth, experiment = config_files
        data_path = tmp_path / "data.teld"
        model_path = tmp_path / "model.json"
        main(["synth", "--config", str(synth), "--out", str(data_path)])
        assert main(["train", "--config", str(experiment), "--out", str(model_path)]) == 0
        rows_per_call = []
        knn_predict = KnnModel.predict

        def counting_predict(model, X):
            rows_per_call.append(len(X))
            return knn_predict(model, X)

        monkeypatch.setattr(KnnModel, "predict", counting_predict)
        calls = count_decompositions(monkeypatch)
        assert main(["predict", "--model", str(model_path), "--data", str(data_path)]) == 0
        assert load_model(model_path).n_learners == 5
        assert rows_per_call == [160] * 5
        assert calls == [((2, 2, 1), 160)]  # one kernel call for the whole set

    def test_cli_train_with_rank_search(self, tmp_path, capsys, monkeypatch):
        # the search's full-rank call is the only one: the learners' columns
        # are sliced from its factors
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "telvi", "rank_search_threshold": 0.35,
            "base_grid": TWO_SPEC_GRID, "cv_folds": 3, "seed": 7,
        }))
        calls = count_decompositions(monkeypatch)
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert calls == [((8, 8, 3), 160)]
        assert json.loads(out.read_text())["rank"] == [2, 2, 1]

    def test_experiment_writes_report_and_csv(self, config_files, capsys):
        tmp_path, _, experiment = config_files
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(experiment), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ensemble_accuracy"] == 1.0
        assert len(payload["per_learner_accuracy"]) == 5
        assert out.with_suffix(".csv").exists()
        stdout = capsys.readouterr().out
        assert "ensemble_accuracy=" in stdout

    def test_experiment_rejects_a_nan_hyperparameter(self, config_files, capsys):
        tmp_path, _, experiment = config_files
        payload = json.loads(experiment.read_text())
        payload["base_grid"].append({"kind": "svm", "hyperparameters": {"C": np.nan}})
        config_path = tmp_path / "nan.json"
        config_path.write_text(json.dumps(payload))  # json writes (and reads) NaN
        assert '"C": NaN' in config_path.read_text()
        out = tmp_path / "report.json"
        assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: ValueError: C must be finite, got nan\n"

    def test_inspect_teld(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        out = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", "--data", str(out)]) == 0
        assert "samples=160" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3", "model or report file must be an object, got 3"),
            ('"type"', "model or report file must be an object, got 'type'"),
            ('{"type": "x"}', "unknown model type 'x'"),
            (
                FORMAT_WRAPPERS["single"].replace('"shape":[2],', "")
                .replace("LEARNER", FORMAT_LEARNERS["knn"])
                .replace("SPEC", FORMAT_SPECS["knn"]),
                "missing single model file key 'shape'",
            ),
        ],
        ids=["number", "string", "unknown-type", "shapeless-model"],
    )
    def test_inspect_rejects_json_that_is_no_model_or_report(
        self, tmp_path, capsys, text, message
    ):
        # a TypeError, a TypeError, "model type=x format_version=None" and
        # "model type=single format_version=1"
        path = tmp_path / "x.json"
        path.write_text(text)
        assert main(["inspect", "--data", str(path)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"

    def test_inspect_model_and_report(self, tmp_path, capsys):
        model_path, report_path = tmp_path / "model.json", tmp_path / "report.json"
        save_model(format_model("telvi", format_learner("tree")), model_path)
        report_path.write_text('{"method": "single", "per_learner_accuracy": [], '
                               '"ensemble_accuracy": 0.5}')
        assert main(["inspect", "--data", str(model_path)]) == 0
        assert main(["inspect", "--data", str(report_path)]) == 0
        assert capsys.readouterr().out == (
            "model type=telvi format_version=1\n"
            "report method=single ensemble_accuracy=0.5\n"
        )

    def test_inspect_reads_a_model_file_as_predict_does(self, tmp_path, capsys):
        # inspect read the file with json's own parser, which takes NaN, and
        # failed later with "telvi base_models key '0,0': knn train_features
        # has a non-finite value"
        model_path, data_path = tmp_path / "model.json", tmp_path / "data.teld"
        save_model(format_model("telvi", format_learner("knn")), model_path)
        text = model_path.read_text()
        assert text.count("1.5") == 2
        model_path.write_text(text.replace("1.5", "NaN"))
        save_tensor_dataset(LabeledTensorDataset.from_rows(
            np.zeros((2, 4)), (2, 2), np.array([0, 1])), data_path)
        error = "error: ValueError: non-finite number NaN in model file\n"
        for command in (["inspect", "--data", str(model_path)],
                        ["predict", "--model", str(model_path), "--data", str(data_path)]):
            assert main(command) == 1
            assert capsys.readouterr().err == error

    def test_failure_is_single_line_machine_parseable(self, capsys):
        code = main(["decompose", "--data", "missing.teld", "--rank", "2,2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_predict_can_take_dataset_from_config(self, config_files, capsys):
        tmp_path, _, experiment = config_files
        model_path = tmp_path / "model.json"
        main(["train", "--config", str(experiment), "--out", str(model_path)])
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--config", str(experiment)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("index,label")

    def test_inspect_falls_back_to_config_source(self, config_files, capsys):
        _, _, experiment = config_files
        assert main(["inspect", "--config", str(experiment)]) == 0
        assert "samples=160" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--data", "d.teld", "--rank", "2,2,1", "--seed", "1"],
            ["predict", "--model", "m.json", "--data", "d.teld", "--seed", "1"],
            ["inspect", "--data", "d.teld", "--seed", "1"],
            ["inspect", "--data", "d.teld", "--out", "x.json"],
        ],
        ids=["decompose-seed", "predict-seed", "inspect-seed", "inspect-out"],
    )
    def test_parser_rejects_flags_a_command_ignores(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err

    def test_seed_override_changes_dataset(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        a = tmp_path / "a.teld"
        b = tmp_path / "b.teld"
        main(["synth", "--config", str(synth), "--out", str(a)])
        main(["synth", "--config", str(synth), "--seed", "8", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


def count_calls(monkeypatch, original, record) -> list:
    """Record ``record(*args)`` for every call of ``original`` in telkit.

    Each module that imported the function holds its own binding, so every
    binding of the function is replaced.
    """
    calls = []

    def counting(*args):
        calls.append(record(*args))
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "telkit" or name.startswith("telkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def count_decompositions(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Record (requested rank, sample count) of every ``hosvd_factors`` call
    in telkit, ``hosvd``'s batches of one included."""
    original = sys.modules["telkit.hosvd"].hosvd_factors
    return count_calls(
        monkeypatch, original, lambda data, shape, rank: (tuple(rank), len(data))
    )


def samples_per_rank(calls) -> Counter:
    totals = Counter()
    for rank, count in calls:
        totals[rank] += count
    return totals


class TestDecomposeOnce:
    """Training decomposes each sample once: at the model rank, or at full
    rank for a rank search, whose factors the learners' columns are then
    sliced from; evaluation decomposes each test sample once for its votes."""

    def test_run_experiment_fixed_rank(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        report = run_experiment(benchmark_config(base_grid=TWO_SPEC_GRID, cv_folds=3))
        assert report.train_size == report.test_size == 80
        assert samples_per_rank(calls) == {(2, 2, 1): 80 + 80}

    def test_run_experiment_rank_search(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        report = run_experiment(
            benchmark_config(
                rank=None, rank_search_threshold=0.35,
                base_grid=TWO_SPEC_GRID, cv_folds=3,
            )
        )
        assert report.effective_rank == [2, 2, 1]
        assert samples_per_rank(calls) == {(8, 8, 3): 80, (2, 2, 1): 80}

    def test_cli_train_with_two_spec_grid(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "telvi", "rank": [2, 2, 1],
            "base_grid": TWO_SPEC_GRID, "cv_folds": 3, "seed": 7,
        }))
        calls = count_decompositions(monkeypatch)
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert calls == [((2, 2, 1), 160)]  # one kernel call for the whole set

    def test_cli_train_with_rank_search(self, tmp_path, capsys, monkeypatch):
        # the search's full-rank call is the only one: the learners' columns
        # are sliced from its factors
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "telvi", "rank_search_threshold": 0.35,
            "base_grid": TWO_SPEC_GRID, "cv_folds": 3, "seed": 7,
        }))
        calls = count_decompositions(monkeypatch)
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert calls == [((8, 8, 3), 160)]
        assert json.loads(out.read_text())["rank"] == [2, 2, 1]

    @pytest.mark.parametrize("rank", [(2, 2, 1), (8, 8, 3), (3, 5, 2)])
    def test_cli_decompose(self, rank, tmp_path, capsys, monkeypatch):
        # one full-rank kernel call; the JSON is byte-identical to the one
        # built from per-sample ``hosvd`` and ``reconstruct``
        config = benchmark_config()
        config_path = tmp_path / "data.json"
        config_path.write_text(json.dumps(config.to_dict()))
        calls = count_decompositions(monkeypatch)
        out = tmp_path / "decompose.json"
        argv = ["decompose", "--config", str(config_path),
                "--rank", ",".join(map(str, rank)), "--out", str(out)]
        assert main(argv) == 0
        assert calls == [((8, 8, 3), 160)]
        monkeypatch.undo()
        samples = load_dataset(config).samples
        errors = [relative_error(x, reconstruct(hosvd(x, rank))) for x in samples]
        reference = tmp_path / "reference.json"
        dump_canonical(
            {
                "requested_rank": list(rank),
                "effective_rank": list(hosvd(samples[0], rank).effective_rank),
                "n_samples": len(samples),
                "mean_relative_error": float(np.mean(errors)),
                "per_sample_error": errors,
            },
            reference,
        )
        assert out.read_bytes() == reference.read_bytes()


class TestPcaOnce:
    def test_bagging_with_two_spec_grid_fits_one_pca(self, monkeypatch):
        # tuning and the estimators share one PCA of the training split
        calls = count_calls(monkeypatch, pca_fit, lambda data, r: data.shape)
        report = run_experiment(
            benchmark_config(
                method="bagging", pca_dim=16, n_estimators=4,
                base_grid=TWO_SPEC_GRID, cv_folds=3,
            )
        )
        assert report.chosen_spec["kind"] == "knn"  # tuning read the PCA space
        assert calls == [(80, 192)]


# one spec of each learner kind, as in the benchmark's tune stage
FOUR_KIND_GRID = [
    KNN3,
    {"kind": "tree", "hyperparameters": {"max_depth": 5}},
    {"kind": "logit", "hyperparameters": {"max_iterations": 200}},
    {"kind": "svm", "hyperparameters": {"kernel": "rbf", "C": 1.0}},
]


# one cheap spec per kind: the fit gates count rows, not seconds
CHEAP_SPECS = {
    "knn": KNN3,
    "tree": {"kind": "tree", "hyperparameters": {"max_depth": 3}},
    "logit": {"kind": "logit", "hyperparameters": {"max_iterations": 30}},
    "svm": {"kind": "svm",
            "hyperparameters": {"C": 0.01, "tolerance": 0.1, "max_passes": 1}},
}


class TestCpuCount:
    """The pooled batches (the tuner's fold fits, decomposition chunks,
    knn votes and fit stages) run on one worker per CPU; the CPU count
    changes no byte of a report, learner CSV, model file or prediction
    CSV, and no error."""

    @staticmethod
    def _config(tmp_path, **knobs):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": {"synthetic": {
                "shape": [6, 6, 3], "classes": 3, "rank": [2, 2, 1],
                "samples_per_class": 12, "noise_std": 0.4, "seed": 5,
            }},
            "base_grid": FOUR_KIND_GRID, "cv_folds": 3, "seed": 7, **knobs,
        }))
        return path

    @staticmethod
    def _outputs(config, out_dir) -> list[bytes]:
        out_dir.mkdir()
        report = out_dir / "report.json"
        model = out_dir / "model.json"
        assert main(["experiment", "--config", str(config), "--out", str(report)]) == 0
        assert main(["train", "--config", str(config), "--out", str(model)]) == 0
        return [(out_dir / name).read_bytes()
                for name in ("report.json", "report.csv", "model.json")]

    @pytest.mark.parametrize(
        "knobs",
        [
            {"method": "telvi", "rank": [2, 2, 1]},
            {"method": "telvi", "rank_search_threshold": 0.35},
            {"method": "bagging", "pca_dim": 8, "n_estimators": 4},
            {"method": "single"},
        ],
        ids=["telvi", "telvi-rank-search", "bagging", "single"],
    )
    def test_outputs_byte_identical(self, tmp_path, capsys, cpus, knobs):
        config = self._config(tmp_path, **knobs)
        cpus(1)
        serial = self._outputs(config, tmp_path / "one")
        cpus(2)
        pooled = self._outputs(config, tmp_path / "two")
        assert cpus.pools == [2, 2]  # one pool per tune stage
        assert pooled == serial

    # 256 samples of 16x16x4: the whole set (train, predict) crosses the
    # decomposition gate; 8 telvi learners and 16 bagging estimators carry
    # the knn votes of the whole set and its logit and svm fit stages
    # across theirs.  A single model pools nothing but the tuner's fits,
    # and keeps its whole flattened training set (knn) or its support
    # vectors (svm), so it runs on the small set.
    POOLED_DATA = {
        "shape": [16, 16, 4], "classes": 4, "rank": [3, 3, 2],
        "samples_per_class": 64, "noise_std": 0.4, "seed": 5,
    }
    POOLED_METHODS = {
        "telvi": {"method": "telvi", "rank": [3, 3, 2]},
        "telvi-rank-search": {"method": "telvi", "rank_search_threshold": 0.3},
        "bagging": {"method": "bagging", "pca_dim": 8, "n_estimators": 16},
        "single": {"method": "single"},
    }
    # the batches, by the qualified name of their job function
    CHUNKS = "hosvd_factors.<locals>.<lambda>"
    VOTES = "_votes.<locals>.<lambda>"
    TELVI_FITS = "telvi_fit_regrouped.<locals>.<lambda>"
    BAGGING_FITS = "bagging_fit_reduced.<locals>.<lambda>"

    @classmethod
    def _pooled_jobs(cls, method, kind) -> set[str]:
        """The batches (method, kind) runs on a pool at 2 CPUs."""
        jobs = {cls.CHUNKS} if method.startswith("telvi") else set()
        if method == "single":  # one voter, one fit
            return jobs
        if kind == "knn":
            jobs.add(cls.VOTES)
        elif kind != "tree":  # knn and tree fit stages never pool
            jobs.add(cls.BAGGING_FITS if method == "bagging" else cls.TELVI_FITS)
        return jobs

    @pytest.mark.parametrize("kind", sorted(CHEAP_SPECS))
    @pytest.mark.parametrize("method", sorted(POOLED_METHODS))
    def test_pooled_batches_byte_identical(
        self, tmp_path, capsys, cpus, monkeypatch, method, kind
    ):
        from telkit import _pool

        pooled_jobs = []
        run = _pool.run

        def recording_run(fn, jobs, pooled=True):
            if pooled:
                pooled_jobs.append(fn.__qualname__)
            return run(fn, jobs, pooled)

        monkeypatch.setattr(_pool, "run", recording_run)
        if method == "single":
            config = self._config(tmp_path, method="single")
            config.write_text(json.dumps(
                {**json.loads(config.read_text()), "base_grid": [CHEAP_SPECS[kind]]}
            ))
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "dataset": {"synthetic": self.POOLED_DATA},
                "base_grid": [CHEAP_SPECS[kind]], "cv_folds": 3, "seed": 7,
                **self.POOLED_METHODS[method],
            }))
        outputs = []
        for count in (1, 2):
            cpus(count)
            out_dir = tmp_path / str(count)
            files = self._outputs(config, out_dir)
            predictions = out_dir / "predictions.csv"
            assert main(["predict", "--model", str(out_dir / "model.json"),
                         "--config", str(config), "--out", str(predictions)]) == 0
            outputs.append(files + [predictions.read_bytes()])
        assert outputs[1] == outputs[0]
        # the same calls at each count, and a pool for each call at 2 CPUs
        assert len(cpus.pools) == len(pooled_jobs) / 2
        assert set(pooled_jobs) == self._pooled_jobs(method, kind)

    def test_every_batch_runs_through_the_pool_runner(
        self, tmp_path, capsys, cpus, monkeypatch
    ):
        # at one CPU, under every work gate, each batch still runs through
        # _pool.run, the one serial loop: decomposition chunks, the fit
        # stage and the votes
        from telkit import _pool

        calls = []
        run = _pool.run

        def recording_run(fn, jobs, pooled=True):
            calls.append(fn.__qualname__)
            return run(fn, jobs, pooled)

        monkeypatch.setattr(_pool, "run", recording_run)
        cpus(1)
        cpus.forbid_pools()
        config = self._config(tmp_path, method="telvi", rank=[2, 2, 1])
        config.write_text(json.dumps(
            {**json.loads(config.read_text()), "base_grid": [KNN3]}
        ))
        model = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--config", str(config),
                     "--out", str(tmp_path / "predictions.csv")]) == 0
        assert calls == [self.CHUNKS, self.TELVI_FITS, self.CHUNKS, self.VOTES]

    def test_rank_search_size_opens_only_the_tuner_pool(self, tmp_path, cpus):
        # the rank-search benchmark's size (160 samples of 12x12x3, rank
        # search at 0.3) with a two-spec grid: every batch but the tuner's
        # fold fits stays under its gate
        cpus(2)
        data = {"shape": [12, 12, 3], "classes": 4, "rank": [2, 2, 1],
                "samples_per_class": 40, "noise_std": 0.05, "seed": 11}
        report = run_experiment(ExperimentConfig.from_dict({
            "dataset": {"synthetic": data}, "train_fraction": 0.5,
            "method": "telvi", "rank_search_threshold": 0.3,
            "base_grid": [CHEAP_SPECS["tree"], KNN3], "cv_folds": 5, "seed": 7,
        }))
        assert report.train_size == 80
        assert cpus.pools == [2]

    @pytest.mark.parametrize("count", [1, 2])
    def test_pooled_chunk_error_names_the_sample(self, cpus, count):
        # sample 100 lies in the second chunk of 64
        cpus(count)
        rng = np.random.default_rng(457)
        samples = [DenseTensor((16, 16, 4), rng.standard_normal(1024))
                   for _ in range(256)]
        bad = rng.standard_normal(1024)
        bad[7] = np.nan
        samples[100] = DenseTensor((16, 16, 4), bad)
        message = "hosvd input contains non-finite entries in sample 100"
        data = LabeledTensorDataset(samples, np.zeros(256, int))
        with pytest.raises(ValueError, match=f"^{message}$"):
            hosvd_factors(data.data, data.shape, (2, 2, 1))
        assert cpus.pools == ([] if count == 1 else [2])

    def test_fold_fit_error_identical(self, tmp_path, capsys, cpus, monkeypatch):
        import telkit.learners as learners

        def failing(spec, data, seed):
            raise ValueError(f"no svm for seed {seed}")

        monkeypatch.setitem(learners._FITTERS, "svm", failing)
        config = self._config(tmp_path, method="single")
        messages, lines = [], []
        for count in (1, 2):
            cpus(count)
            payload = json.loads(config.read_text())
            with pytest.raises(ExperimentError) as raised:
                run_experiment(ExperimentConfig.from_dict(payload))
            messages.append(str(raised.value))
            assert main(["experiment", "--config", str(config),
                         "--out", str(tmp_path / "report.json")]) == 1
            lines.append(capsys.readouterr().err)
        assert cpus.pools == [2, 2]
        assert messages[0] == messages[1]
        assert messages[0].startswith("tune stage failed: no svm for seed ")
        assert lines[0] == lines[1] == f"error: ExperimentError: {messages[0]}\n"
        assert not (tmp_path / "report.json").exists()


def spoiled(array, case):
    """``array`` as nested lists with one entry made a str or a bool, or
    its last row cut short ("ragged"); a 1-d array's first entry becomes a
    one-entry list in that case."""
    rows = np.asarray(array).tolist()
    if case == "ragged":
        if isinstance(rows[0], list):
            rows[-1] = rows[-1][:-1]
        else:
            rows[0] = [rows[0]]
    else:
        row = rows[0] if isinstance(rows[0], list) else rows
        row[0] = {"str": "1", "bool": True}[case]
    return rows


def _learner(kind):
    rng = np.random.default_rng(457)
    features = np.vstack([rng.standard_normal((6, 2)), 4.0 + rng.standard_normal((6, 2))])
    return fit(ClassifierSpec(kind, {}), VectorDataset(features, [0] * 6 + [1] * 6), 0)


def _reconstruct(factor):
    f = hosvd(DenseTensor.from_array(np.arange(12.0).reshape(3, 4)), (2, 2))
    return reconstruct(HosvdFactors(f.core, [f.factors[0], factor], f.effective_rank))


class TestCallerArrays:
    """Every array telkit takes from a caller is read by
    ``canonical.check_array``: a str, a bool or a ragged row fails naming
    its field, where a float cast coerced it or failed without a name."""

    X = np.arange(6.0).reshape(3, 2)
    # (entry point, its field, the call on a spoiled array)
    ENTRIES = [
        *((f"{kind}.predict", "features", lambda a, kind=kind: _learner(kind).predict(a))
          for kind in ["knn", "tree", "logit", "svm"]),
        ("pca_fit", "pca data", lambda a: pca_fit(a, 1)),
        ("pca_transform", "pca data", lambda a: pca_transform(pca_fit(np.eye(3)[:, :2], 1), a)),
        ("fold", "matrix", lambda a: tk.fold(a, 0, (3, 2))),
        ("mode_n_product", "factor",
         lambda a: tk.mode_n_product(DenseTensor.from_array(np.ones((3, 2))), a, 1)),
        ("outer_product", "vectors[1]", lambda a: tk.outer_product([[1.0, 2.0], a])),
        ("reconstruct", "factors[1]", _reconstruct),
    ]
    VALID = {"outer_product": np.arange(3.0), "reconstruct": np.eye(4)[:, :2]}

    @pytest.mark.parametrize("case", ["str", "bool", "ragged"])
    @pytest.mark.parametrize("name, field, call", ENTRIES, ids=[e[0] for e in ENTRIES])
    def test_a_spoiled_array_fails_naming_its_field(self, name, field, call, case):
        valid = self.VALID.get(name, self.X)
        call(valid)  # the unspoiled array is accepted
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}\[[0-9]+\]"):
            call(spoiled(valid, case))


class TestPublicSurface:
    """The names telkit and telkit.learners export, each one resolving."""

    TELKIT = [
        "DenseTensor", "unfold", "fold", "mode_n_product", "outer_product",
        "frobenius_norm", "PcaModel", "pca_fit", "pca_transform",
        "MultilinearRank", "HosvdFactors", "hosvd", "hosvd_factors",
        "reconstruct", "rank_search", "ClassifierSpec", "VectorDataset", "fit",
        "accuracy", "grid_search_cv", "majority_labels", "LabeledTensorDataset",
        "TelviModel", "BaggingModel", "SingleModel", "VoteTally",
        "factor_columns", "regroup", "telvi_fit", "telvi_predict", "bagging_fit",
        "bagging_predict", "predict_votes", "majority_error_probability",
        "SyntheticSpec", "BENCHMARK_SPEC", "synth_generate", "__version__",
    ]
    LEARNERS = [
        "ClassifierSpec", "KINDS", "VectorDataset", "Scaler", "TrainedModel",
        "KnnModel", "TreeModel", "TreeNode", "LogitModel", "SvmModel",
        "BinarySvm", "fit", "accuracy", "majority_labels", "kernel_matrix",
        "logit_loss", "logit_gradient", "grid_search_cv", "kfold_indices",
    ]

    @pytest.mark.parametrize(
        "module, names", [(tk, TELKIT), (tk.learners, LEARNERS)],
        ids=["telkit", "learners"],
    )
    def test_exports_are_pinned_and_resolve(self, module, names):
        assert module.__all__ == names
        assert [name for name in names if not hasattr(module, name)] == []
