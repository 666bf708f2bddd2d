"""Model files: canonical-JSON round-trip for every trained model.

The on-disk form is a canonical JSON document (sorted keys, 17
significant digits, which round-trips float64 exactly), so saving the
same model twice produces identical bytes and a loaded model predicts
identically to the original.  It is written from the model's dataclass
fields by name (``canonical.plain``) and read back field by field, so
the reader types and checks what comes from outside.  Every model file
records the training shape, so a single model file without ``shape`` is
rejected at load.
Loading checks that every learner takes the width its place in the model
feeds it and knows only the model's class labels, and rejects a key in a
learner, its scaler, an svm binary or a tree node that the writer never
emits; each learner model checks its own fields, the rank of each array
among them, when it is built, at fit and at load alike.  Every integer
field, scalar or array entry, is read by ``canonical.check_number``, so
0.5, true, "1" or an overflowing literal such as 1e999 there fails naming
the field.  Finiteness of the float fields is one of the models' own
checks: the reader rejects only the constants NaN and Infinity, as it
reads them, and 1e999, which parses to inf, fails in the model that
holds it, naming the field.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from .canonical import check_keys, check_number, dump_canonical, plain
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


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


# the keys the writer emits for each learner kind: its model's fields
_LEARNER_KEYS = {
    kind: _field_names(cls)
    for kind, cls in (("knn", KnnModel), ("tree", TreeModel),
                      ("logit", LogitModel), ("svm", SvmModel))
}


def _integers(values, key: str) -> np.ndarray:
    """``values`` as an int64 array of their own shape, each entry read by
    ``check_number``; an error names ``key`` and the entry's index."""
    array = np.asarray(values, dtype=object)
    for index, value in np.ndenumerate(array):
        check_number(value, key + "".join(f"[{i}]" for i in index), integral=True)
    return array.astype(np.int64)


def _tree_node_from_dict(payload: dict[str, Any]) -> TreeNode:
    check_keys(payload, _field_names(TreeNode), "tree node")
    if "label" in payload:
        return TreeNode(label=check_number(payload["label"], "tree leaf label", True))
    return TreeNode(
        feature=check_number(payload["feature"], "tree split feature", True),
        threshold=float(payload["threshold"]),
        left=_tree_node_from_dict(payload["left"]),
        right=_tree_node_from_dict(payload["right"]),
    )


def _scaler_from_dict(payload: dict[str, Any]) -> Scaler:
    check_keys(payload, _field_names(Scaler), "scaler")
    return Scaler(
        mean=np.asarray(payload["mean"], dtype=np.float64),
        std=np.asarray(payload["std"], dtype=np.float64),
    )


def _learner_from_dict(payload: dict[str, Any], labels: np.ndarray) -> TrainedModel:
    spec = ClassifierSpec.from_dict(payload["spec"])
    check_keys(payload, _LEARNER_KEYS[spec.kind], f"{spec.kind} learner")
    if spec.kind == "knn":
        return KnnModel(
            spec=spec,
            class_labels=labels,
            train_features=np.asarray(payload["train_features"], dtype=np.float64),
            train_labels=_integers(payload["train_labels"], "knn train_labels"),
        )
    if spec.kind == "tree":
        return TreeModel(
            spec=spec,
            class_labels=labels,
            root=_tree_node_from_dict(payload["root"]),
            n_features=check_number(payload["n_features"], "tree n_features", True),
        )
    if spec.kind == "logit":
        return LogitModel(
            spec=spec,
            class_labels=labels,
            scaler=_scaler_from_dict(payload["scaler"]),
            weights=np.asarray(payload["weights"], dtype=np.float64),
            bias=np.asarray(payload["bias"], dtype=np.float64),
        )
    # svm: ClassifierSpec.from_dict rejects any other kind
    n_features = check_number(payload["n_features"], "svm n_features", True)
    return SvmModel(
        spec=spec,
        class_labels=labels,
        scaler=_scaler_from_dict(payload["scaler"]),
        n_features=n_features,
        binaries=[_binary_from_dict(b, n_features) for b in payload["binaries"]],
    )


def _binary_from_dict(payload: dict[str, Any], n_features: int) -> BinarySvm:
    check_keys(payload, _field_names(BinarySvm), "svm binary")
    return BinarySvm(
        support_vectors=np.asarray(
            payload["support_vectors"], dtype=np.float64
        ).reshape(-1, n_features),
        dual_coefs=np.asarray(payload["dual_coefs"], dtype=np.float64),
        bias=float(payload["bias"]),
    )


def _load_learner(payload: dict[str, Any], where: str, width: int, class_labels=None):
    """The learner ``payload`` describes, checked to know only the enclosing
    model's ``class_labels``, if given, and to take ``width`` features.  The
    learner model checks its own fields; its errors name ``where``."""
    labels = _integers(payload["class_labels"], f"{where}: class_labels")
    if class_labels is not None and np.setdiff1d(labels, class_labels).size:
        raise ValueError(
            f"{where} has class labels {labels.tolist()} "
            f"outside the model's {class_labels.tolist()}"
        )
    try:
        learner = _learner_from_dict(payload, labels)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if learner.n_features != width:
        raise ValueError(f"{where} has width {learner.n_features}, expected {width}")
    return learner


def model_to_dict(model) -> dict[str, Any]:
    """Serializable form of a telvi, bagging or single model: its fields by
    name, telvi's (n, r) learner keys as "n,r" and a single model's learner
    under "model"."""
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
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = payload.get("type")
    if kind == "telvi":
        rank = _integers(payload["rank"], "rank").tolist()
        shape = _integers(payload["shape"], "shape").tolist()
        if len(rank) != len(shape):
            raise ValueError(
                f"telvi rank {rank} has {len(rank)} modes but shape {shape} "
                f"has {len(shape)}"
            )
        # one learner per factor column: keys "n,r" for r < rank[n], no others
        keys = set(payload["base_models"])
        expected = {f"{n},{r}" for n, r_n in enumerate(rank) for r in range(r_n)}
        offending = sorted(keys ^ expected)
        if offending:
            key = offending[0]
            problem = "unexpected" if key in keys else "missing"
            raise ValueError(
                f"telvi base_models key {key!r} is {problem} for rank {rank}"
            )
        class_labels = _integers(payload["class_labels"], "class_labels")
        base_models = {}
        for key, sub in sorted(payload["base_models"].items()):
            n, r = (int(part) for part in key.split(","))
            base_models[(n, r)] = _load_learner(
                sub, f"telvi base_models key {key!r}", shape[n], class_labels
            )
        return TelviModel(
            rank=tuple(rank),
            shape=tuple(shape),
            base_spec=ClassifierSpec.from_dict(payload["base_spec"]),
            base_models=base_models,
            class_labels=class_labels,
            seed=check_number(payload["seed"], "seed", True),
        )
    if kind == "bagging":
        shape = tuple(_integers(payload["shape"], "shape").tolist())
        pca = PcaModel(
            mean=np.asarray(payload["pca"]["mean"], dtype=np.float64),
            components=np.asarray(payload["pca"]["components"], dtype=np.float64),
        )
        if pca.mean.size != math.prod(shape):
            raise ValueError(
                f"bagging pca mean has length {pca.mean.size}, expected "
                f"{math.prod(shape)} for shape {list(shape)}"
            )
        components = pca.components.shape
        if len(components) != 2 or components[0] != math.prod(shape):
            raise ValueError(
                f"bagging pca components have shape {list(components)}, "
                f"expected [{math.prod(shape)}, k] for shape {list(shape)}"
            )
        class_labels = _integers(payload["class_labels"], "class_labels")
        return BaggingModel(
            shape=shape,
            pca=pca,
            base_spec=ClassifierSpec.from_dict(payload["base_spec"]),
            estimators=[
                _load_learner(sub, f"bagging estimator {e}", pca.retained, class_labels)
                for e, sub in enumerate(payload["estimators"])
            ],
            # 64-bit unsigned mix_seed values, past int64: Python ints
            bootstrap_seeds=[
                check_number(s, f"bootstrap_seeds[{e}]", True)
                for e, s in enumerate(payload["bootstrap_seeds"])
            ],
            class_labels=class_labels,
            seed=check_number(payload["seed"], "seed", True),
        )
    if kind == "single":
        shape = tuple(_integers(payload["shape"], "shape").tolist())
        learner = _load_learner(payload["model"], "single model", math.prod(shape))
        return SingleModel(shape=shape, learner=learner)
    raise ValueError(f"unknown model type {kind!r}")


def save_model(model, path: str | Path) -> None:
    dump_canonical(model_to_dict(model), path)


def _parse_int(token: str):
    # canonical_json writes -0.0 as "-0"; no integer field is negative zero
    return -0.0 if token == "-0" else int(token)


def _constant(token: str):
    raise ValueError(f"non-finite number {token} in model file")


def load_model(path: str | Path):
    """Read a model file, rejecting values canonical JSON never writes.

    The constants NaN and Infinity are rejected as they are read; any
    other value is checked by the field that holds it, as a fit's would
    be: a number in an integer field by ``check_number``, a float array
    or number by its model's finiteness check."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle, parse_int=_parse_int, parse_constant=_constant)
    return model_from_dict(payload)
