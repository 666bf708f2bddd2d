"""Model files: canonical-JSON round-trip for every trained model.

The on-disk form is canonical JSON (sorted keys, 17 significant digits,
which round-trips float64 exactly), so saving a model twice gives the
same bytes and a loaded model predicts as the original.  The writer
``plain``s the model's dataclass fields by name, keeping its arrays as
ndarrays, and streams the file: ``canonical.dump_canonical`` renders each
array one row at a time and never holds the whole document.  The reader
only types the fields: every number by ``canonical.check_number``, every
array by ``canonical.check_array`` and every other list (an svm's
binaries, a bagging model's estimators and seeds) by ``check_list``, the
one list rule.  Each JSON object is read through
``canonical.check_keys`` against the one type it builds: one that is not
an object fails, as does a key that the writer never emits for it, or a
missing one.  The top level is read against its model type, each learner
against its kind, a tree node as a leaf (its label only) or a split (every
other field), and the PCA, scaler and svm binaries against theirs; a key
that no model type, no learner or no tree node has is named as such.
Everything else is checked by the model built from the values, at fit
and at load alike: each learner its own fields, every model its shape by
the one shape rule (``tensor._check_shape``), a telvi model its rank
against its shape by ``hosvd.clamp_rank`` and its learner keys, a
bagging model its PCA shape, every model each voter's width and class
labels and the finiteness of its floats.  The reader rejects only
the constants NaN and Infinity, as it reads them; 1e999 parses to inf
and fails in the model that holds it, naming the field.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Any

from .canonical import (check_array, check_keys, check_list, check_number,
                        check_object, dump_canonical, plain)
from .ensemble import BaggingModel, SingleModel, TelviModel
from .learners import (
    BinarySvm,
    ClassifierSpec,
    KnnModel,
    LogitModel,
    Scaler,
    SvmModel,
    TrainedModel,
    TreeModel,
    TreeNode,
)
from .linalg import PcaModel

__all__ = ["save_model", "load_model", "model_to_dict", "model_from_dict"]

MODEL_FORMAT_VERSION = 1

_TYPES = {TelviModel: "telvi", BaggingModel: "bagging", SingleModel: "single"}

# each model type's top-level keys, all required: the header and the
# model's fields, a single model's learner written as "model"
_FILE_KEYS = {
    kind: ["format_version", "type"] + [
        "model" if f.name == "learner" else f.name for f in dataclasses.fields(cls)]
    for cls, kind in _TYPES.items()
}

# each learner kind's model, whose fields are the keys the writer emits
_LEARNERS = {"knn": KnnModel, "tree": TreeModel, "logit": LogitModel, "svm": SvmModel}

# a tree node is a leaf, its label only, or a split, with every other field
_SPLIT_KEYS = ["feature", "threshold", "left", "right"]


def _tree_node_from_dict(payload: dict[str, Any]) -> TreeNode:
    check_keys(payload, TreeNode, "tree node")
    if "label" in payload:
        check_keys(payload, ["label"], "tree leaf")
        return TreeNode(label=check_number(payload["label"], "tree leaf label", True))
    check_keys(payload, _SPLIT_KEYS, "tree split", _SPLIT_KEYS)
    return TreeNode(
        feature=check_number(payload["feature"], "tree split feature", True),
        threshold=check_array(payload["threshold"], "tree split threshold").item(),
        left=_tree_node_from_dict(payload["left"]),
        right=_tree_node_from_dict(payload["right"]),
    )


def _scaler_from_dict(payload: dict[str, Any], kind: str) -> Scaler:
    check_keys(payload, Scaler, "scaler")
    return Scaler(mean=check_array(payload["mean"], f"{kind} scaler mean"),
                  std=check_array(payload["std"], f"{kind} scaler std"))


def _learner_from_dict(payload: dict[str, Any]) -> TrainedModel:
    # a key that no learner kind has is named as no learner's
    check_keys(payload, {f.name for cls in _LEARNERS.values()
                         for f in dataclasses.fields(cls)}, "learner", ["spec"])
    spec = ClassifierSpec.from_dict(payload["spec"])
    check_keys(payload, _LEARNERS[spec.kind], f"{spec.kind} learner")
    labels = check_array(payload["class_labels"], "class_labels", True)
    if spec.kind == "knn":
        return KnnModel(
            spec, labels,
            train_features=check_array(payload["train_features"], "knn train_features"),
            train_labels=check_array(payload["train_labels"], "knn train_labels", True),
        )
    if spec.kind == "tree":
        return TreeModel(
            spec, labels, root=_tree_node_from_dict(payload["root"]),
            n_features=check_number(payload["n_features"], "tree n_features", True),
        )
    if spec.kind == "logit":
        return LogitModel(
            spec, labels, scaler=_scaler_from_dict(payload["scaler"], "logit"),
            weights=check_array(payload["weights"], "logit weights"),
            bias=check_array(payload["bias"], "logit bias"),
        )
    # svm: ClassifierSpec.from_dict rejects any other kind
    n_features = check_number(payload["n_features"], "svm n_features", True)
    binaries = check_list(payload["binaries"], "svm binaries")
    return SvmModel(
        spec, labels, scaler=_scaler_from_dict(payload["scaler"], "svm"),
        n_features=n_features,
        binaries=[_binary_from_dict(b, f"svm binary {c}", n_features)
                  for c, b in enumerate(binaries)],
    )


def _binary_from_dict(payload: dict[str, Any], where: str, width: int) -> BinarySvm:
    check_keys(payload, BinarySvm, "svm binary")
    return BinarySvm(
        support_vectors=check_array(payload["support_vectors"],
                                    f"{where} support_vectors").reshape(-1, width),
        dual_coefs=check_array(payload["dual_coefs"], f"{where} dual_coefs"),
        bias=check_array(payload["bias"], f"{where} bias").item(),
    )


def _load_learner(payload: dict[str, Any], where: str) -> TrainedModel:
    """The learner ``payload`` describes; its errors name ``where``."""
    try:
        return _learner_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _telvi_key(text: str) -> tuple[int, ...]:
    """A telvi learner key as the writer spells it, "n,r", read as (n, r)."""
    if not re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", text):
        raise ValueError(f"telvi base_models key {text!r} is not of the form 'n,r'")
    return tuple(map(int, text.split(",")))


def model_to_dict(model) -> dict[str, Any]:
    """Serializable form of a telvi, bagging or single model: its fields by
    name, telvi's (n, r) learner keys as "n,r" and a single model's learner
    under "model".  The model's arrays stay ndarrays, shared with the model,
    which ``canonical_json`` and ``dump_canonical`` render."""
    kind = _TYPES.get(type(model))
    if kind is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    out = {"format_version": MODEL_FORMAT_VERSION, "type": kind, **plain(model)}
    if kind == "telvi":
        out["base_models"] = {f"{n},{r}": v for (n, r), v in out["base_models"].items()}
    if kind == "single":
        out["model"] = out.pop("learner")
    return out


def model_from_dict(payload: dict[str, Any]):
    """The model ``payload`` describes: each value typed by ``check_number``
    or ``check_array``, then checked by the constructor that holds it."""
    # a key that no model type has is named as no model file's
    check_keys(payload, {key for keys in _FILE_KEYS.values() for key in keys},
               "model file")
    kind = payload.get("type")
    if kind not in _TYPES.values():
        raise ValueError(f"unknown model type {kind!r}")
    version = check_number(payload.get("format_version"), "format_version", True)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    check_keys(payload, _FILE_KEYS[kind], f"{kind} model file", _FILE_KEYS[kind])
    if kind == "single":
        learner = _load_learner(payload["model"], "single model")
        return SingleModel(payload["shape"], learner)
    common = dict(
        shape=payload["shape"],
        base_spec=ClassifierSpec.from_dict(payload["base_spec"]),
        class_labels=check_array(payload["class_labels"], "class_labels", True),
        seed=check_number(payload["seed"], "seed", True),
    )
    if kind == "telvi":
        check_object(payload["base_models"], "telvi base_models")
        return TelviModel(
            rank=payload["rank"],
            base_models={
                _telvi_key(key): _load_learner(sub, f"telvi base_models key {key!r}")
                for key, sub in sorted(payload["base_models"].items())
            },
            **common,
        )
    check_keys(payload["pca"], PcaModel, "pca")
    estimators = check_list(payload["estimators"], "bagging estimators")
    seeds = check_list(payload["bootstrap_seeds"], "bagging bootstrap_seeds")
    return BaggingModel(
        pca=PcaModel(
            mean=check_array(payload["pca"]["mean"], "pca mean"),
            components=check_array(payload["pca"]["components"], "pca components"),
        ),
        estimators=[
            _load_learner(sub, f"bagging estimator {e}")
            for e, sub in enumerate(estimators)
        ],
        # 64-bit unsigned mix_seed values, past int64: Python ints
        bootstrap_seeds=[check_number(s, f"bootstrap_seeds[{e}]", True)
                         for e, s in enumerate(seeds)],
        **common,
    )


def save_model(model, path: str | Path) -> None:
    dump_canonical(model_to_dict(model), path)


def _parse_int(token: str):
    # canonical_json writes -0.0 as "-0"; no integer field is negative zero
    return -0.0 if token == "-0" else int(token)


def _constant(token: str):
    raise ValueError(f"non-finite number {token} in model file")


def load_model(path: str | Path):
    """Read a model file, rejecting values canonical JSON never writes:
    NaN and Infinity as they are read, any other value where it is typed
    or by the model that holds it, as a fit's would be."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle, parse_int=_parse_int, parse_constant=_constant)
    return model_from_dict(payload)
