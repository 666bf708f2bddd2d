"""Supervised base classifiers on fixed-length vectors.

Four kinds are available behind one ``fit`` dispatcher, each model with
its own ``predict`` and ``n_features``: KNN, CART decision trees,
multinomial logistic regression and kernel SVM.
All training is deterministic given (spec, data, seed).
``majority_labels`` is telkit's one plurality vote, ``grid_search_cv``
its one cross-validation scorer, and ``base.two_class_labels`` its one
training-set rule, applied by the tree, logit and svm fits and by the
telvi, bagging and single model builds.
"""

from __future__ import annotations

from typing import Union

from .base import Scaler, VectorDataset, accuracy, check_features, majority_labels
from .grid import grid_search_cv, kfold_indices
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
    "accuracy",
    "majority_labels",
    "kernel_matrix",
    "logit_loss",
    "logit_gradient",
    "grid_search_cv",
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
    check_features(data.features, data.n_features)
    return _FITTERS[spec.kind](spec, data, seed)
