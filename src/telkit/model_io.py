"""Model files: canonical-JSON round-trip for every trained model.

The on-disk form is canonical JSON (sorted keys, 17 significant digits,
which round-trips float64 exactly), so saving a model twice gives the
same bytes and a loaded model predicts as the original.  The writer
``plain``s the model's dataclass fields by name, keeping its arrays as
ndarrays, and streams the file: ``canonical.dump_canonical`` renders each
array one row at a time and never holds the whole document.  The reader
only types the fields: every number by ``canonical.check_number``, every
array by ``canonical.check_array``.  Each JSON object is read through
``canonical.check_keys``: one that is not an object fails, as does a key
that no model type's top level, or no learner, is written with, and a key
of a learner, its scaler, an svm binary or a tree node that the writer
never emits for it, or a missing one without a default.  Everything else is
checked by the model built from the values, at fit and at load alike:
each learner its own fields, the ensemble models rank, keys, PCA shape
and each voter's width and class labels, and every model the finiteness
of its floats.  The reader rejects only the constants NaN and Infinity,
as it reads them; 1e999 parses to inf and fails in the model that holds
it, naming the field.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Any

from .canonical import (check_array, check_keys, check_number, dump_canonical,
                        plain)
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


# each learner kind's model, whose fields are the keys the writer emits
_LEARNERS = {"knn": KnnModel, "tree": TreeModel, "logit": LogitModel, "svm": SvmModel}


def _field_names(*classes) -> set[str]:
    return {f.name for cls in classes for f in dataclasses.fields(cls)}


# the keys any model type's top level, or any learner, is written with
_MODEL_KEYS = _field_names(*_TYPES) - {"learner"} | {"format_version", "type", "model"}
_LEARNER_KEYS = _field_names(*_LEARNERS.values())


def _tree_node_from_dict(payload: dict[str, Any]) -> TreeNode:
    check_keys(payload, TreeNode, "tree node")
    if "label" in payload:
        return TreeNode(label=check_number(payload["label"], "tree leaf label", True))
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
    check_keys(payload, _LEARNER_KEYS, "learner")
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
    return SvmModel(
        spec, labels, scaler=_scaler_from_dict(payload["scaler"], "svm"),
        n_features=n_features,
        binaries=[_binary_from_dict(b, f"svm binary {c}", n_features)
                  for c, b in enumerate(payload["binaries"])],
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
    check_keys(payload, _MODEL_KEYS, "model file")
    version = check_number(payload.get("format_version"), "format_version", True)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = payload.get("type")
    if kind not in _TYPES.values():
        raise ValueError(f"unknown model type {kind!r}")
    shape = tuple(check_array(payload["shape"], "shape", True).tolist())
    if kind == "single":
        return SingleModel(shape, _load_learner(payload["model"], "single model"))
    common = dict(
        shape=shape,
        base_spec=ClassifierSpec.from_dict(payload["base_spec"]),
        class_labels=check_array(payload["class_labels"], "class_labels", True),
        seed=check_number(payload["seed"], "seed", True),
    )
    if kind == "telvi":
        return TelviModel(
            rank=tuple(check_array(payload["rank"], "rank", True).tolist()),
            base_models={
                _telvi_key(key): _load_learner(sub, f"telvi base_models key {key!r}")
                for key, sub in sorted(payload["base_models"].items())
            },
            **common,
        )
    return BaggingModel(
        pca=PcaModel(
            mean=check_array(payload["pca"]["mean"], "pca mean"),
            components=check_array(payload["pca"]["components"], "pca components"),
        ),
        estimators=[
            _load_learner(sub, f"bagging estimator {e}")
            for e, sub in enumerate(payload["estimators"])
        ],
        # 64-bit unsigned mix_seed values, past int64: Python ints
        bootstrap_seeds=[check_number(s, f"bootstrap_seeds[{e}]", True)
                         for e, s in enumerate(payload["bootstrap_seeds"])],
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
