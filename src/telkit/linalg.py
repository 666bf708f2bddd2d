"""PCA with deterministic signs.

The factorization is LAPACK's SVD through numpy; what this module adds is
the sign convention and the rank-clamping contract that the pipeline
relies on.  Sign canonicalization: in every column the entry of largest
magnitude is made nonnegative (ties go to the lowest row index), so
repeated runs produce bit-identical components.  HOSVD applies the same
rule to its factor matrices through ``_canonicalize_signs``.  The data of
``pca_fit`` and ``pca_transform`` is read by ``canonical.check_array``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import check_array, check_number
from .learners.base import check_finite_field

__all__ = ["PcaModel", "pca_fit", "pca_transform"]


@dataclass(frozen=True)
class PcaModel:
    """Principal components of a sample matrix (rows are samples); every
    value is finite, checked when it is built."""

    mean: np.ndarray
    components: np.ndarray  # features x retained

    def __post_init__(self):
        check_finite_field("pca mean", self.mean)
        check_finite_field("pca components", self.components)

    @property
    def retained(self) -> int:
        return int(self.components.shape[1])


def _canonicalize_signs(U: np.ndarray) -> None:
    """Flip column signs in place so each column's peak is nonnegative.

    Columns run along the last axis and any leading axes are a batch; the
    peak is the entry of largest magnitude, ties to the lowest row.
    """
    rows = np.abs(U).argmax(axis=-2)[..., None, :]
    np.negative(U, out=U, where=np.take_along_axis(U, rows, axis=-2) < 0)


def _check_retained(r, key: str = "retained dimension") -> int:
    """``r`` by ``check_number``, an integer >= 1: the one retained-dimension rule."""
    r = check_number(r, key, integral=True)
    if r < 1:
        raise ValueError(f"{key} must be >= 1, got {r}")
    return r


def pca_fit(data: np.ndarray, r: int) -> PcaModel:
    """Fit PCA on a samples-by-features matrix.

    Components are the leading right singular vectors of the row-centered
    data, sign-canonicalized per component.  ``r`` is clamped to
    min(samples, features).  Raises ValueError on empty or non-finite input.
    """
    r = _check_retained(r)
    data = check_array(data, "pca data")
    if data.ndim != 2:
        raise ValueError("pca_fit expects a 2-d samples-by-features matrix")
    if data.shape[0] < 2:
        raise ValueError("pca_fit needs at least 2 samples")
    if data.size == 0:
        raise ValueError("pca_fit expects a nonempty matrix")
    if not np.all(np.isfinite(data)):
        raise ValueError("pca_fit input contains non-finite entries")
    mean = data.mean(axis=0)
    centered = data - mean
    r = min(r, min(data.shape))
    components = np.linalg.svd(centered, full_matrices=False)[2][:r].T.copy()
    _canonicalize_signs(components)
    return PcaModel(mean=mean, components=components)


def pca_transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows of ``data`` onto the fitted components."""
    data = check_array(data, "pca data")
    if data.ndim != 2 or data.shape[1] != model.mean.size:
        raise ValueError(
            f"data width {data.shape[1] if data.ndim == 2 else 'n/a'} does "
            f"not match the fitted feature count {model.mean.size}"
        )
    return (data - model.mean) @ model.components
