"""Experiment harness, canonical serialization, model files, CLI."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import telkit as tk
from telkit.canonical import canonical_json
from telkit.cli import main
from telkit.ensemble import (
    LabeledTensorDataset,
    bagging_fit,
    flatten_samples,
    majority_vote,
    predict_votes,
    regroup,
    telvi_fit,
)
from telkit.experiment import (
    ExperimentConfig,
    run_experiment,
    tune_shared_spec,
    write_learner_csv,
    write_report,
)
from telkit.hosvd import hosvd, rank_search
from telkit.learners import (
    ClassifierSpec,
    KnnModel,
    VectorDataset,
    fit,
    grid_search_cv,
)
from telkit.linalg import pca_fit, pca_transform
from telkit.model_io import load_model, save_model
from telkit.seeding import mix_seed
from telkit.synth import BENCHMARK_SPEC
from telkit.tensor import DenseTensor

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


def tiny_tensor_dataset(rng, n_per_class=6, shape=(3, 4, 2)):
    samples, labels = [], []
    size = int(np.prod(shape))
    for label in range(2):
        center = 4.0 * rng.standard_normal(size)
        for _ in range(n_per_class):
            samples.append(DenseTensor(shape, center + rng.standard_normal(size)))
            labels.append(label)
    return LabeledTensorDataset(samples, np.array(labels))


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
        model = fit(spec, data, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probes = rng.standard_normal((30, 3)) * 3
        assert np.array_equal(model.predict(probes), loaded.predict(probes))

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

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda p: p["base_models"].pop("1,1"), "'1,1' is missing"),
            (
                lambda p: p["base_models"].update({"2,1": p["base_models"]["2,0"]}),
                "'2,1' is unexpected",
            ),
            (lambda p: p["rank"].pop(), "has 2 modes but shape"),
        ],
        ids=["missing-key", "extra-key", "rank-shorter-than-shape"],
    )
    def test_tampered_telvi_model_rejected(self, tmp_path, tamper, message):
        rng = np.random.default_rng(449)
        model = telvi_fit(
            tiny_tensor_dataset(rng), (2, 2, 1), ClassifierSpec("knn", {"k": 1}), 3
        )
        path = tmp_path / "telvi.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format_version": 1, "type": "mystery"}')
        with pytest.raises(ValueError, match="unknown model type"):
            load_model(path)


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
        vectors = flatten_samples(data.samples)
        if method == "telvi":
            datasets = regroup([hosvd(x, (2, 2, 1)) for x in data.samples], data.labels)
            chosen = tune_shared_spec(grid, datasets, 3, tune_seed)
            model = telvi_fit(data, (2, 2, 1), chosen, fit_seed)
        elif method == "bagging":
            reduced = pca_transform(pca_fit(vectors, 16), vectors)
            chosen = grid_search_cv(
                grid, VectorDataset(reduced, data.labels), 3, tune_seed
            )
            model = bagging_fit(data, 4, 16, chosen, fit_seed)
        else:
            flat = VectorDataset(vectors, data.labels)
            chosen = grid_search_cv(grid, flat, 3, tune_seed)
            model = fit(chosen, flat, fit_seed)
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
        rank = rank_search(data.samples, 0.35)
        model = telvi_fit(
            data, rank, ClassifierSpec.from_dict(KNN3), mix_seed(7, 3)
        )
        save_model(model, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()

    def test_train_failure_names_its_stage(self, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "bagging", "pca_dim": 0, "base_grid": [KNN3],
        }))
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ExperimentError: fit stage failed: ")
        assert len(err.strip().splitlines()) == 1

    def test_train_rejects_cv_folds_below_two(self, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "single", "base_grid": [KNN3], "cv_folds": 0,
        }))
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: cv_folds must be >= 2, got 0\n"
        assert not out.exists()

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
        samples = tk.synth_generate(BENCHMARK_SPEC).samples
        _, votes = predict_votes(load_model(model_path), samples)
        winners = [majority_vote(column.tolist()).winner for column in votes.T]
        rows = csv_path.read_text().splitlines()
        assert rows == ["index,label"] + [f"{i},{w}" for i, w in enumerate(winners)]

    def test_telvi_predict_calls_each_learner_once(
        self, config_files, capsys, monkeypatch
    ):
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
        calls = count_hosvd_calls(monkeypatch)
        assert main(["predict", "--model", str(model_path), "--data", str(data_path)]) == 0
        assert load_model(model_path).n_learners == 5
        assert rows_per_call == [160] * 5
        assert Counter(calls) == {(2, 2, 1): 160}

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

    def test_inspect_teld(self, config_files, capsys):
        tmp_path, synth, _ = config_files
        out = tmp_path / "data.teld"
        main(["synth", "--config", str(synth), "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", "--data", str(out)]) == 0
        assert "samples=160" in capsys.readouterr().out

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


def count_hosvd_calls(monkeypatch) -> list[tuple[int, ...]]:
    """Record the requested rank of every ``hosvd`` call in telkit."""
    original = sys.modules["telkit.hosvd"].hosvd
    return count_calls(monkeypatch, original, lambda x, rank: tuple(rank))


class TestDecomposeOnce:
    """Training decomposes each sample once at the model rank; evaluation
    decomposes each test sample once for its votes, and a rank search
    adds one full-rank decomposition per training sample."""

    def test_run_experiment_fixed_rank(self, monkeypatch):
        calls = count_hosvd_calls(monkeypatch)
        report = run_experiment(benchmark_config(base_grid=TWO_SPEC_GRID, cv_folds=3))
        assert report.train_size == report.test_size == 80
        assert Counter(calls) == {(2, 2, 1): 80 + 80}

    def test_run_experiment_rank_search(self, monkeypatch):
        calls = count_hosvd_calls(monkeypatch)
        report = run_experiment(
            benchmark_config(
                rank=None, rank_search_threshold=0.35,
                base_grid=TWO_SPEC_GRID, cv_folds=3,
            )
        )
        assert report.effective_rank == [2, 2, 1]
        assert Counter(calls) == {(8, 8, 3): 80, (2, 2, 1): 80 + 80}

    def test_cli_train_with_two_spec_grid(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "dataset": {"synthetic": BENCHMARK_SPEC.to_dict()},
            "method": "telvi", "rank": [2, 2, 1],
            "base_grid": TWO_SPEC_GRID, "cv_folds": 3, "seed": 7,
        }))
        calls = count_hosvd_calls(monkeypatch)
        out = tmp_path / "model.json"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert Counter(calls) == {(2, 2, 1): 160}


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
