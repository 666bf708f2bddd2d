"""Command-line surface: synth, decompose, train, predict, experiment, inspect.

Every subcommand exits 0 on success; failures print a single
machine-parseable line ``error: <ExceptionType>: <message>`` on stderr
and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .canonical import check_object, dump_canonical
from .ensemble import predict_votes
from .experiment import (
    ExperimentConfig,
    load_dataset,
    run_experiment,
    train_model,
    write_learner_csv,
    write_report,
)
from .hosvd import _reconstruction_errors
from .io import load_tensor_dataset, save_tensor_dataset
from .learners import accuracy, majority_labels
from .model_io import load_model, save_model
from .synth import SyntheticSpec, synth_generate


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_config(cls, args):
    """The ``cls`` config at ``--config``, its seed overridden by ``--seed``."""
    config = cls.from_dict(_read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _parse_rank(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad rank {text!r}; expected e.g. 2,2,1") from None


def _cmd_synth(args) -> int:
    data = synth_generate(_read_config(SyntheticSpec, args))
    save_tensor_dataset(data, args.out)
    print(f"wrote {data.n_samples} samples of shape {data.shape} to {args.out}")
    return 0


def _load_cli_dataset(args):
    if args.data is not None:
        return load_tensor_dataset(args.data)
    if args.config is not None:
        return load_dataset(ExperimentConfig.from_dict(_read_json(args.config)))
    raise ValueError("need --data or --config to locate a dataset")


def _cmd_decompose(args) -> int:
    data = _load_cli_dataset(args)
    rank = _parse_rank(args.rank)
    effective, errors = _reconstruction_errors(data.data, data.shape, rank)
    mean_error = float(np.mean(errors))
    print(
        f"rank={','.join(map(str, effective))} samples={data.n_samples} "
        f"mean_relative_error={mean_error:.6g} max={max(errors):.6g}"
    )
    if args.out:
        dump_canonical(
            {
                "requested_rank": list(rank),
                "effective_rank": list(effective),
                "n_samples": data.n_samples,
                "mean_relative_error": mean_error,
                "per_sample_error": errors,
            },
            args.out,
        )
    return 0


def _cmd_train(args) -> int:
    """Train on the full configured dataset (no split) and save the model."""
    config = _read_config(ExperimentConfig, args)
    data = load_dataset(config)
    model, _ = train_model(config, data)
    save_model(model, args.out)
    print(f"trained {config.method} model on {data.n_samples} samples -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _load_cli_dataset(args)
    _, votes = predict_votes(model, data.data, data.shape)
    predicted = majority_labels(votes)
    lines = ["index,label"] + [
        f"{i},{label}" for i, label in enumerate(predicted)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    score = accuracy(predicted, data.labels)
    print(f"accuracy={score:.6g} n={data.n_samples}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    config = _read_config(ExperimentConfig, args)
    report = run_experiment(config)
    out = args.out or config.output
    if out is None:
        raise ValueError("no output path: pass --out or set output in config")
    write_report(report, out)
    write_learner_csv(report, Path(out).with_suffix(".csv"))
    print(
        f"method={report.method} ensemble_accuracy={report.ensemble_accuracy:.6g} "
        f"mean_learner_accuracy={report.mean_learner_accuracy():.6g} "
        f"train={report.train_size} test={report.test_size}"
    )
    for stage, seconds in report.timings.items():
        print(f"timing {stage}={seconds:.3f}", file=sys.stderr)
    return 0


def _print_dataset_summary(data, origin: str) -> None:
    values, counts = np.unique(data.labels, return_counts=True)
    per_class = " ".join(f"{v}:{c}" for v, c in zip(values, counts))
    print(
        f"{origin} samples={data.n_samples} shape={data.shape} "
        f"classes={values.size} per_class={per_class}"
    )


def _cmd_inspect(args) -> int:
    if args.data is None:
        _print_dataset_summary(_load_cli_dataset(args), "dataset")
        return 0
    path = Path(args.data)
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == b"TELD":
        _print_dataset_summary(load_tensor_dataset(path), "teld")
        return 0
    payload = json.loads(path.read_bytes())
    check_object(payload, "model or report file")
    if "type" in payload:
        load_model(path)
        print(
            f"model type={payload['type']} "
            f"format_version={payload['format_version']}"
        )
    elif "per_learner_accuracy" in payload:
        print(
            f"report method={payload.get('method')} "
            f"ensemble_accuracy={payload.get('ensemble_accuracy')}"
        )
    else:
        raise ValueError(f"unrecognized file content in {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telkit",
        description="Tensor ensemble learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_and_out(p, out_required=False):
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=out_required, help="output file path")

    def dataset_source(p):
        p.add_argument("--config", help="experiment config JSON naming the dataset")
        p.add_argument("--data", help="TELD dataset path")

    p = sub.add_parser("synth", help="generate a synthetic TELD dataset")
    p.add_argument("--config", required=True, help="SyntheticSpec JSON path")
    seed_and_out(p, out_required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="HOSVD a dataset and report error")
    dataset_source(p)
    p.add_argument("--rank", required=True, help="comma-separated rank, e.g. 2,2,1")
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("train", help="train a model on a full dataset")
    p.add_argument("--config", required=True, help="experiment config JSON")
    seed_and_out(p, out_required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    dataset_source(p)
    p.add_argument("--out", help="output file path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("experiment", help="run a full experiment to a report")
    p.add_argument("--config", required=True, help="experiment config JSON")
    seed_and_out(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("inspect", help="summarize a TELD/model/report file")
    dataset_source(p)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parseable diagnostics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
