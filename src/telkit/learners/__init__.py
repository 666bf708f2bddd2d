"""Supervised base classifiers on fixed-length vectors.

Four kinds are available behind one ``fit``/``predict`` surface: KNN,
CART decision trees, multinomial logistic regression and kernel SVM.
All training is deterministic given (spec, data, seed).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .base import Scaler, VectorDataset, accuracy, check_finite, majority_label
from .grid import cross_val_accuracy, grid_search_cv, kfold_indices
from .knn import KnnModel, fit_knn
from .logit import LogitModel, fit_logit, logit_gradient, logit_loss
from .spec import KINDS, ClassifierSpec
from .svm import BinarySvm, SvmModel, fit_svm, kernel_matrix
from .tree import TreeModel, TreeNode, fit_tree

__all__ = [
    "ClassifierSpec",
    "KINDS",
    "VectorDataset",
    "Scaler",
    "TrainedModel",
    "KnnModel",
    "TreeModel",
    "TreeNode",
    "LogitModel",
    "SvmModel",
    "BinarySvm",
    "fit",
    "predict",
    "accuracy",
    "majority_label",
    "kernel_matrix",
    "logit_loss",
    "logit_gradient",
    "grid_search_cv",
    "cross_val_accuracy",
    "kfold_indices",
]

TrainedModel = Union[KnnModel, TreeModel, LogitModel, SvmModel]

_FITTERS = {
    "knn": fit_knn,
    "tree": fit_tree,
    "logit": fit_logit,
    "svm": fit_svm,
}


def fit(spec: ClassifierSpec, data: VectorDataset, seed: int) -> TrainedModel:
    """Train a base learner of the spec's kind; deterministic per seed."""
    if data.n_samples == 0:
        raise ValueError("cannot fit on an empty dataset")
    check_finite(data.features)
    return _FITTERS[spec.kind](spec, data, seed)


def predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """One label per feature row, always drawn from training labels."""
    return model.predict(features)
