"""Classifier specifications: kind plus kind-specific hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..canonical import check_keys, check_number, plain

__all__ = ["ClassifierSpec", "KINDS"]

KINDS = ("knn", "tree", "logit", "svm")

_DEFAULTS: dict[str, dict[str, Any]] = {
    "knn": {"k": 5, "distance": "euclidean"},
    "tree": {"max_depth": 10, "min_samples_split": 2, "criterion": "gini"},
    "logit": {"l2_penalty": 1e-4, "max_iterations": 500, "learning_rate": 0.5},
    "svm": {
        "kernel": "rbf",
        "C": 1.0,
        "gamma": 0.5,
        "degree": 3,
        "coef0": 1.0,
        "tolerance": 1e-3,
        "max_passes": 10,
    },
}

_INTEGRAL = {"k", "max_depth", "min_samples_split", "max_iterations",
             "degree", "max_passes"}


@dataclass(frozen=True)
class ClassifierSpec:
    """A base-learner recipe.

    Unspecified hyperparameters take documented defaults; a ``kind`` that
    is not a string, ``hyperparameters`` that are not an object, unknown
    keys, numeric keys given a non-number (a str or bool too) and
    non-finite or non-positive numeric values are rejected at construction.
    """

    kind: str
    hyperparameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValueError(f"kind must be a string, got {self.kind!r}")
        kind = self.kind.lower()
        if kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        check_keys(self.hyperparameters, _DEFAULTS[kind], "hyperparameters")
        params = {**_DEFAULTS[kind], **self.hyperparameters}
        _validate(kind, params)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "hyperparameters", params)

    def __getitem__(self, key: str) -> Any:
        return self.hyperparameters[key]

    def to_dict(self) -> dict[str, Any]:
        return plain(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClassifierSpec":
        check_keys(payload, cls, "classifier spec")
        return cls(**payload)


def _validate(kind: str, params: dict[str, Any]) -> None:
    for key, value in params.items():
        default = _DEFAULTS[kind][key]
        if isinstance(default, str):
            continue
        value = params[key] = check_number(value, key, key in _INTEGRAL)
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value!r}")
    if kind == "knn" and params["distance"] != "euclidean":
        raise ValueError(f"unsupported distance {params['distance']!r}")
    if kind == "tree":
        if params["criterion"] != "gini":
            raise ValueError(f"unsupported criterion {params['criterion']!r}")
        if params["min_samples_split"] < 2:
            raise ValueError("min_samples_split must be >= 2")
    if kind == "svm" and params["kernel"] not in ("poly", "rbf"):
        raise ValueError(f"unsupported kernel {params['kernel']!r}")
