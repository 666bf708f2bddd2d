"""Experiment harness, canonical serialization, model files, CLI."""

import json

import numpy as np
import pytest

import telkit as tk
from telkit.canonical import canonical_json
from telkit.cli import main
from telkit.ensemble import LabeledTensorDataset, bagging_fit, telvi_fit
from telkit.experiment import (
    ExperimentConfig,
    run_experiment,
    write_learner_csv,
    write_report,
)
from telkit.learners import ClassifierSpec, VectorDataset, fit
from telkit.model_io import load_model, save_model
from telkit.seeding import mix_seed
from telkit.synth import BENCHMARK_SPEC
from telkit.tensor import DenseTensor

KNN3 = {"kind": "knn", "hyperparameters": {"k": 3}}


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
