"""Higher Order SVD with multilinear-rank truncation.

The decomposition of an order-N tensor X at rank (R_1, ..., R_N):

* factor n holds the leading R_n left singular vectors of the mode-n
  unfolding of X;
* the core is X multiplied by every factor transposed along its mode.

A rank is read by the one rank rule, ``_check_rank`` (a list of integers
>= 1), and met with its shape by ``clamp_rank``: one entry per dimension,
each clamped to min(I_n, prod of the other dimensions) (``effective_rank``).

A sample set is an ``(M, P)`` array of rows and the sample shape
(``tensor._rows``), and a chunk of rows is a batch in the product
kernel's layout with no copy (``tensor._batch_view``).  ``hosvd_factors``
is the one decomposition kernel: it unfolds a chunk per mode as the
product kernel does (``tensor._unfold_batch``) and makes one stacked
LAPACK SVD call per chunk and mode, keeping the factors only.  Each
LAPACK call sees one matrix, so the chunks are exact on their own: they
run through ``telkit._pool.run``, the one batch runner, pooled from
``_POOL_ENTRIES`` samples x tensor entries and serially below.
``_multiply``, the one "tensor times matrices" loop (Kolda & Bader,
2009), runs ``tensor._mode_product``, the batched product kernel, once
per mode on a chunk of ``_CHUNK`` samples in the same batch layout;
``_chunk_cores`` builds every chunk's cores with it, from column slices
of one full-rank kernel call.  ``hosvd`` runs that path on its tensor's
entries as one row, ``rank_search`` and ``telkit decompose``
(``_reconstruction_errors``) on a whole sample set, and each item of a
batched product has the bits of a batch of one, so every decomposition
in telkit gives the same factor and core bits.  A rank search hands its
full-rank factors on (``_search``), so a rank-searched telvi run
decomposes each training sample once: its learners' factor columns are
the leading columns of the factors the search already computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _pool
from .canonical import check_array, check_list, check_number
from .linalg import _canonicalize_signs
from .tensor import (DenseTensor, _batch_view, _mode_product, _rows,
                     _unfold_batch, frobenius_norm)

__all__ = [
    "MultilinearRank",
    "HosvdFactors",
    "hosvd_factors",
    "hosvd",
    "reconstruct",
    "rank_search",
]

MultilinearRank = tuple[int, ...]

# Samples stacked per SVD call: the unfolding copies and the discarded
# right singular vectors then hold 64 samples' worth, whatever the count.
_CHUNK = 64

# Samples x tensor entries from which ``hosvd_factors`` runs its chunks
# on ``_pool``: 65-130 ms of serial work at 0.25-0.5 us per entry, where
# a 2-worker pool first breaks even (CHANGES.md has the measurements).
_POOL_ENTRIES = 1 << 18


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


def _check_rank(rank: Sequence[int]) -> MultilinearRank:
    """``rank``, a list, as a tuple of integers by ``check_number``, each >= 1."""
    rank = tuple(check_number(r, "rank", True) for r in check_list(rank, "rank"))
    if any(r < 1 for r in rank):
        raise ValueError(f"rank entries must be >= 1, got {list(rank)}")
    return rank


def clamp_rank(rank: Sequence[int], shape: Sequence[int]) -> MultilinearRank:
    """``rank``, read by ``_check_rank``, one R_n per dimension I_n of
    ``shape``, each clamped to min(I_n, prod of the other dimensions)."""
    rank, shape = _check_rank(rank), tuple(shape)
    if len(rank) != len(shape):
        raise ValueError(f"rank {list(rank)} has {len(rank)} entries but "
                         f"shape {list(shape)} has {len(shape)}")
    return tuple(min(r, shape[n], math.prod(shape[:n] + shape[n + 1 :]))
                 for n, r in enumerate(rank))


def hosvd_factors(
    data: np.ndarray, shape: Sequence[int], rank: Sequence[int]
) -> tuple[list[np.ndarray], MultilinearRank]:
    """Factors of every sample, a row of ``data``, at rank ``rank`` (clamped).

    Returns one ``(M, I_n, R_n)`` stack per mode n, where ``[m]`` is
    sample m's mode-n factor, and the clamped rank.  No core is built.
    """
    data, shape = _rows(data, shape)
    effective = clamp_rank(rank, shape)
    chunks = _pool.run(
        lambda start: _chunk_factors(data, shape, effective, start),
        range(0, len(data), _CHUNK), data.size >= _POOL_ENTRIES,
    )
    return [np.concatenate(parts) for parts in zip(*chunks)], effective


def _chunk_factors(data, shape, effective, start: int) -> list[np.ndarray]:
    """Mode-n factor stacks of rows ``start : start + _CHUNK``, one stacked
    LAPACK SVD call per mode; a non-finite sample is named by its row."""
    rows = data[start : start + _CHUNK]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        index = start + int(np.argmin(finite))
        raise ValueError(f"hosvd input contains non-finite entries in sample {index}")
    chunk = _batch_view(rows, shape)
    factors = []
    for n, r in enumerate(effective):
        unfolded = _unfold_batch(chunk, n)
        kept = np.linalg.svd(unfolded, full_matrices=False)[0][..., :r].copy()
        _canonicalize_signs(kept)
        factors.append(kept)
    return factors


def _multiply(batch: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Every item of ``batch`` times the float64 ``matrices[n]`` along every
    mode n, unchecked: one ``tensor._mode_product`` per mode, ``matrices[n]``
    shared by the items (2-d) or one per item (3-d, batch first)."""
    for n, matrix in enumerate(matrices):
        batch = _mode_product(batch, matrix, n)
    return batch


def _leading(
    data: np.ndarray, shape: Sequence[int], rank: Sequence[int]
) -> tuple[list[np.ndarray], MultilinearRank]:
    """The factor stacks of every sample at ``rank`` (clamped), as column
    slices of one full-rank ``hosvd_factors`` call.

    Rank-R factors are prefixes of the full-rank ones, and the rounding
    of a product depends on its factors' memory layout, which slices keep:
    a core has the same bits whatever the batch it was decomposed in.
    """
    effective = clamp_rank(rank, shape)
    stacks, _ = hosvd_factors(data, shape, shape)
    return [stack[:, :, :r] for stack, r in zip(stacks, effective)], effective


def _chunk_cores(
    data: np.ndarray, shape: Sequence[int], stacks: Sequence[np.ndarray]
) -> Iterator[tuple[slice, np.ndarray]]:
    """``(part, cores)`` for each chunk ``data[part]`` of ``_CHUNK`` rows:
    their cores as one batch, each sample times its factors
    ``stacks[n][m]`` transposed, one kernel call per mode."""
    for start in range(0, len(data), _CHUNK):
        part = slice(start, start + _CHUNK)
        factors = [stack[part].transpose(0, 2, 1) for stack in stacks]
        yield part, _multiply(_batch_view(data[part], shape), factors)


def hosvd(x: DenseTensor, rank: Sequence[int]) -> HosvdFactors:
    """Decompose ``x`` at multilinear rank ``rank`` (clamped per mode)."""
    row = x.data.reshape(1, -1)  # x as a batch of one, no copy
    stacks, effective = _leading(row, x.shape, rank)
    _, cores = next(_chunk_cores(row, x.shape, stacks))
    return HosvdFactors(
        core=DenseTensor.from_array(cores[..., 0]),
        factors=[stack[0] for stack in stacks],
        effective_rank=effective,
    )


def reconstruct(f: HosvdFactors) -> DenseTensor:
    """Multiply the core by every factor, read by ``check_array``, along its mode."""
    if f.core.order != len(f.factors):
        raise ValueError(
            f"core order {f.core.order} does not match "
            f"{len(f.factors)} factors"
        )
    factors = [check_array(m, f"factors[{n}]") for n, m in enumerate(f.factors)]
    for n, factor in enumerate(factors):
        if factor.ndim != 2:
            raise ValueError("factor must be a 2-d matrix")
        if factor.shape[1] != f.core.shape[n]:
            raise ValueError(
                f"factor {n} has {factor.shape[1]} columns but core mode "
                f"{n} has size {f.core.shape[n]}"
            )
    product = _multiply(f.core.to_array()[..., None], factors)
    return DenseTensor.from_array(product[..., 0])


def _reconstruction_errors(
    data: np.ndarray, shape: Sequence[int], rank: Sequence[int]
) -> tuple[MultilinearRank, list[float]]:
    """The clamped ``rank`` and each sample's ``relative_error`` against
    its reconstruction at that rank, a chunk of samples per kernel call."""
    stacks, effective = _leading(data, shape, rank)
    errors = []
    for part, cores in _chunk_cores(data, shape, stacks):
        approx = _multiply(cores, [stack[part] for stack in stacks])
        errors += [relative_error(DenseTensor(shape, row), DenseTensor.from_array(a))
                   for row, a in zip(data[part], np.moveaxis(approx, -1, 0))]
    return effective, errors


def relative_error(x: DenseTensor, approx: DenseTensor) -> float:
    """||x - approx||_F / ||x||_F (0 for an all-zero x matched exactly)."""
    if x.shape != approx.shape:
        raise ValueError(f"approx shape {approx.shape} does not match "
                         f"x shape {x.shape}")
    denom = frobenius_norm(x)
    diff = float(np.linalg.norm(x.data - approx.data))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def _tail_errors(energy: np.ndarray, norms: np.ndarray):
    """``errors(rank)``: per-sample relative errors from squared full-rank
    cores.  The core energy outside the leading block is N disjoint slabs
    added in mode order (the total minus the block would cancel to about
    sqrt(eps)); slab n depends on (R_1..R_n) only, so it is summed once."""
    scale, axes = np.where(norms > 0.0, norms, 1.0), tuple(range(1, energy.ndim))
    slabs: dict[MultilinearRank, np.ndarray] = {}

    def errors(rank: MultilinearRank) -> np.ndarray:
        tail = 0
        for n, r in enumerate(rank):
            if rank[: n + 1] not in slabs:
                lead = tuple(slice(r_k) for r_k in rank[:n])
                slab = energy[(slice(None),) + lead + (slice(r, None),)]
                slabs[rank[: n + 1]] = slab.sum(axis=axes)
            tail = tail + slabs[rank[: n + 1]]
        return np.sqrt(tail) / scale  # 0 when x = 0

    return errors


def _storage(rank: MultilinearRank, shape: tuple[int, ...]) -> int:
    return math.prod(rank) + sum(i * r for i, r in zip(shape, rank))


def rank_search(
    data: np.ndarray, shape: Sequence[int], max_relative_error: float
) -> MultilinearRank:
    """Smallest rank tuple keeping the mean reconstruction error of the
    samples of ``shape`` in the rows of ``data`` in budget.

    Greedy coordinate descent from full rank: repeatedly decrement the
    mode whose decrement keeps the mean relative error lowest, stopping
    when any further decrement would exceed ``max_relative_error``.
    Ties go to smaller storage (prod(R) + sum(I_n * R_n)), then to the
    lower mode; an unattainable threshold (e.g. 0) returns full rank.

    Exact, from one full-rank ``hosvd_factors`` call over all samples
    (each core equal to ``hosvd``'s bit for bit): rank-R factors are
    prefixes of the full-rank ones, so X_R = X x_n U_n U_n^T is an
    orthogonal projection and ||X - X_R||^2 is the energy of the full
    core (||G|| = ||X||) outside its leading R block.  That energy is N
    slab sums, each summed once per search (``_tail_errors``).
    """
    return _search(data, shape, max_relative_error)[0]


def _search(
    data: np.ndarray, shape: Sequence[int], max_relative_error: float
) -> tuple[MultilinearRank, list[np.ndarray]]:
    """``rank_search``'s rank and the full-rank factor stacks of
    ``hosvd_factors`` it searched from, whose leading columns are the
    samples' factors at that rank, bit for bit."""
    data, shape = _rows(data, shape)
    if not 0.0 <= max_relative_error < 1.0:
        raise ValueError(
            f"max_relative_error must be in [0, 1), got {max_relative_error}"
        )
    stacks, current = hosvd_factors(data, shape, shape)
    # squared cores in one batch, read sample-first: the layout the
    # tail sums have always reduced over, so the errors keep their bits
    energy = np.empty(current + (len(data),), order="F")
    for part, cores in _chunk_cores(data, shape, stacks):
        np.square(cores, out=energy[..., part])
    norms = np.array([np.linalg.norm(row) for row in data])
    errors = _tail_errors(np.moveaxis(energy, -1, 0), norms)
    while True:
        best = None  # (mean_error, storage, mode, candidate)
        for n in range(len(shape)):
            if current[n] <= 1:
                continue
            candidate = current[:n] + (current[n] - 1,) + current[n + 1 :]
            err = float(np.mean(errors(candidate)))
            if err > max_relative_error:
                continue
            key = (err, _storage(candidate, shape), n)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is None:
            return current, stacks
        current = best[1]
