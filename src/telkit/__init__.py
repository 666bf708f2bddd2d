"""telkit: tensor ensemble learning on dense multiway data.

Decomposes each sample by HOSVD, regroups factor columns into
independent training sets, trains one base learner per set, and
classifies by majority vote; ships a PCA + bootstrap bagging baseline
and a deterministic experiment harness.
"""

from .ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    TelviModel,
    VoteTally,
    bagging_fit,
    bagging_predict,
    majority_error_probability,
    majority_vote,
    predict_votes,
    regroup,
    telvi_fit,
    telvi_predict,
)
from .hosvd import HosvdFactors, MultilinearRank, hosvd, rank_search, reconstruct
from .learners import (
    ClassifierSpec,
    VectorDataset,
    accuracy,
    fit,
    grid_search_cv,
)
from .linalg import PcaModel, SvdResult, pca_fit, pca_transform, thin_svd, truncated_svd
from .synth import BENCHMARK_SPEC, SyntheticSpec, synth_generate
from .tensor import (
    DenseTensor,
    fold,
    frobenius_norm,
    mode_n_product,
    outer_product,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "DenseTensor",
    "unfold",
    "fold",
    "mode_n_product",
    "outer_product",
    "frobenius_norm",
    "SvdResult",
    "PcaModel",
    "thin_svd",
    "truncated_svd",
    "pca_fit",
    "pca_transform",
    "MultilinearRank",
    "HosvdFactors",
    "hosvd",
    "reconstruct",
    "rank_search",
    "ClassifierSpec",
    "VectorDataset",
    "fit",
    "accuracy",
    "grid_search_cv",
    "LabeledTensorDataset",
    "TelviModel",
    "BaggingModel",
    "VoteTally",
    "regroup",
    "telvi_fit",
    "telvi_predict",
    "bagging_fit",
    "bagging_predict",
    "predict_votes",
    "majority_vote",
    "majority_error_probability",
    "SyntheticSpec",
    "BENCHMARK_SPEC",
    "synth_generate",
    "__version__",
]
