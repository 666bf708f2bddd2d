"""Higher Order SVD with multilinear-rank truncation.

The decomposition of an order-N tensor X at rank (R_1, ..., R_N):

* factor n holds the leading R_n left singular vectors of the mode-n
  unfolding of X;
* the core is X multiplied by every factor transposed along its mode.

Requested ranks are clamped per mode to min(I_n, prod of the other
dimensions); the clamped tuple is reported as ``effective_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import truncated_svd
from .tensor import DenseTensor, frobenius_norm, mode_n_product, unfold

__all__ = ["MultilinearRank", "HosvdFactors", "hosvd", "reconstruct", "rank_search"]

MultilinearRank = tuple[int, ...]


@dataclass(frozen=True)
class HosvdFactors:
    """Core tensor plus one orthonormal factor matrix per mode."""

    core: DenseTensor
    factors: list[np.ndarray]  # factor n is I_n x R_n
    effective_rank: MultilinearRank

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the tensor the factors reconstruct."""
        return tuple(f.shape[0] for f in self.factors)


def clamp_rank(rank: Sequence[int], shape: Sequence[int]) -> MultilinearRank:
    """Clamp each R_n to min(I_n, prod of the other dimensions)."""
    shape = tuple(shape)
    clamped = []
    for n, r in enumerate(rank):
        if r < 1:
            raise ValueError(f"rank entries must be >= 1, got {tuple(rank)}")
        others = int(np.prod(shape[:n] + shape[n + 1 :]))
        clamped.append(min(int(r), shape[n], others))
    return tuple(clamped)


def hosvd(x: DenseTensor, rank: Sequence[int]) -> HosvdFactors:
    """Decompose ``x`` at multilinear rank ``rank`` (clamped per mode)."""
    if len(rank) != x.order:
        raise ValueError(
            f"rank tuple has length {len(rank)} but tensor has order {x.order}"
        )
    if not np.all(np.isfinite(x.data)):
        raise ValueError("hosvd input contains non-finite entries")
    effective = clamp_rank(rank, x.shape)
    factors = [
        truncated_svd(unfold(x, n), effective[n]).U for n in range(x.order)
    ]
    core = x
    for n, factor in enumerate(factors):
        core = mode_n_product(core, factor.T, n)
    return HosvdFactors(core=core, factors=factors, effective_rank=effective)


def reconstruct(f: HosvdFactors) -> DenseTensor:
    """Multiply the core by every factor along its mode."""
    if f.core.order != len(f.factors):
        raise ValueError(
            f"core order {f.core.order} does not match "
            f"{len(f.factors)} factors"
        )
    for n, factor in enumerate(f.factors):
        if factor.shape[1] != f.core.shape[n]:
            raise ValueError(
                f"factor {n} has {factor.shape[1]} columns but core mode "
                f"{n} has size {f.core.shape[n]}"
            )
    result = f.core
    for n, factor in enumerate(f.factors):
        result = mode_n_product(result, factor, n)
    return result


def relative_error(x: DenseTensor, approx: DenseTensor) -> float:
    """||x - approx||_F / ||x||_F (0 for an all-zero x matched exactly)."""
    denom = frobenius_norm(x)
    diff = float(np.linalg.norm(x.data - approx.data))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def _tail_errors(
    energy: np.ndarray, norms: np.ndarray, rank: MultilinearRank
) -> np.ndarray:
    """Per-sample relative error at ``rank`` from squared full-rank cores."""
    # Core energy outside the leading block, as N disjoint slabs: the
    # total minus the block would cancel to about sqrt(eps).
    lead = tuple(slice(r) for r in rank)
    axes = tuple(range(1, energy.ndim))
    tail = sum(
        energy[(slice(None),) + lead[:n] + (slice(r, None),)].sum(axis=axes)
        for n, r in enumerate(rank)
    )
    return np.sqrt(tail) / np.where(norms > 0.0, norms, 1.0)  # 0 when x = 0


def _storage(rank: MultilinearRank, shape: tuple[int, ...]) -> int:
    return int(np.prod(rank)) + sum(i * r for i, r in zip(shape, rank))


def rank_search(
    samples: Sequence[DenseTensor], max_relative_error: float
) -> MultilinearRank:
    """Smallest rank tuple keeping mean reconstruction error in budget.

    Greedy coordinate descent from full rank: repeatedly decrement the
    mode whose decrement keeps the mean relative error lowest, stopping
    when any further decrement would exceed ``max_relative_error``.
    Ties go to smaller storage (prod(R) + sum(I_n * R_n)), then to the
    lower mode; an unattainable threshold (e.g. 0) returns full rank.

    Exact, from one full-rank HOSVD per sample and then O(M * prod(I))
    per candidate: rank-R factors are prefixes of the full-rank ones, so
    X_R = X x_n U_n U_n^T is an orthogonal projection and ||X - X_R||^2
    is the energy of the full core (||G|| = ||X||) outside its leading
    R block.
    """
    if len(samples) == 0:
        raise ValueError("rank_search needs at least one sample")
    if not 0.0 <= max_relative_error < 1.0:
        raise ValueError(
            f"max_relative_error must be in [0, 1), got {max_relative_error}"
        )
    shape = samples[0].shape
    for x in samples:
        if x.shape != shape:
            raise ValueError(
                f"samples disagree in shape: {x.shape} vs {shape}"
            )
    current = clamp_rank(shape, shape)  # full rank, clamped
    energy = np.stack([hosvd(x, current).core.to_array() ** 2 for x in samples])
    norms = np.array([frobenius_norm(x) for x in samples])
    while True:
        best = None  # (mean_error, storage, mode, candidate)
        for n in range(len(shape)):
            if current[n] <= 1:
                continue
            candidate = current[:n] + (current[n] - 1,) + current[n + 1 :]
            err = float(np.mean(_tail_errors(energy, norms, candidate)))
            if err > max_relative_error:
                continue
            key = (err, _storage(candidate, shape), n)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is None:
            return current
        current = best[1]
