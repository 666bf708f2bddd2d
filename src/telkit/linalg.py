"""Matrix kernels: thin SVD, truncated SVD and PCA.

The factorizations are backed by LAPACK through numpy; what this module
adds is the deterministic sign convention and the rank-clamping contract
that the tensor pipeline relies on.  Sign canonicalization: in every
column of U the entry of largest magnitude is made nonnegative (ties go
to the lowest row index) and the matching column of V is negated to
compensate, so repeated runs produce bit-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdResult",
    "PcaModel",
    "thin_svd",
    "truncated_svd",
    "pca_fit",
    "pca_transform",
]


@dataclass(frozen=True)
class SvdResult:
    """Thin or truncated SVD: ``U @ diag(singular_values) @ V.T``."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        """Number of retained singular triplets."""
        return int(self.singular_values.size)


@dataclass(frozen=True)
class PcaModel:
    """Principal components of a sample matrix (rows are samples)."""

    mean: np.ndarray
    components: np.ndarray  # features x retained

    @property
    def retained(self) -> int:
        return int(self.components.shape[1])


def _canonicalize_signs(U: np.ndarray, *companions: np.ndarray) -> None:
    """Flip column signs in place so each U column's peak is nonnegative.

    Columns run along the last axis and any leading axes are a batch; the
    peak is the entry of largest magnitude, ties to the lowest row.  The
    same columns of every companion (e.g. V) are flipped with U's.
    """
    rows = np.abs(U).argmax(axis=-2)[..., None, :]
    flip = np.take_along_axis(U, rows, axis=-2) < 0
    for a in (U,) + companions:
        np.negative(a, out=a, where=flip)


def thin_svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with deterministic signs.

    Raises ValueError on empty or non-finite input.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("thin_svd expects a nonempty 2-d matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("thin_svd input contains non-finite entries")
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    V = Vt.T.copy()
    U = U.copy()
    _canonicalize_signs(U, V)
    return SvdResult(U=U, singular_values=s, V=V)


def truncated_svd(m: np.ndarray, r: int) -> SvdResult:
    """Leading ``r`` singular triplets of ``m``.

    ``r`` is clamped to min(rows, cols); the effective rank is visible
    as ``result.rank``.
    """
    if r < 1:
        raise ValueError(f"truncation rank must be >= 1, got {r}")
    full = thin_svd(m)
    r = min(int(r), full.rank)
    return SvdResult(
        U=full.U[:, :r],
        singular_values=full.singular_values[:r],
        V=full.V[:, :r],
    )


def pca_fit(data: np.ndarray, r: int) -> PcaModel:
    """Fit PCA on a samples-by-features matrix.

    Components are the leading right singular vectors of the row-centered
    data, sign-canonicalized per component.  ``r`` is clamped to
    min(samples, features).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("pca_fit expects a 2-d samples-by-features matrix")
    if data.shape[0] < 2:
        raise ValueError("pca_fit needs at least 2 samples")
    if r < 1:
        raise ValueError(f"retained dimension must be >= 1, got {r}")
    mean = data.mean(axis=0)
    centered = data - mean
    r = min(int(r), min(data.shape))
    svd = thin_svd(centered)
    components = svd.V[:, :r].copy()
    _canonicalize_signs(components)
    return PcaModel(mean=mean, components=components)


def pca_transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows of ``data`` onto the fitted components."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.mean.size:
        raise ValueError(
            f"data width {data.shape[1] if data.ndim == 2 else 'n/a'} does "
            f"not match the fitted feature count {model.mean.size}"
        )
    return (data - model.mean) @ model.components
