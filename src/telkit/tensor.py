"""Dense N-way tensors and the multilinear primitives built on them.

A :class:`DenseTensor` is an immutable real-valued array of order N >= 1
whose canonical linearization is column-major (the first index varies
fastest).  Mode-n unfolding follows the Kolda-Bader convention: the
columns of the unfolding are the mode-n fibers, enumerated so that the
lowest surviving index varies fastest.

``_mode_product`` is the one product kernel.  It multiplies a batch of
same-shape items, laid out as a DenseTensor stores its entries with the
batch as the last, slowest axis, by one factor shared by the items or one
per item, in one ``np.matmul`` per mode.  Per item that call sees the
operand shapes and strides of a lone ``factor @ unfold(x, mode)`` and
fills a C-contiguous output as it does, so numpy makes the same BLAS call
for each item: an item has the same bits whatever batch it is in.
``mode_n_product`` checks its operands and runs the kernel on a batch of
one.  A sample set is one ``(M, P)`` array (``_rows``), row m sample m's
entries as its ``DenseTensor.data`` holds them, so a chunk of rows is a
batch in that layout with no copy (``_batch_view``); a set's array is
allocated on pages of its own (``_empty_rows``).  ``_check_shape`` is the
one shape rule, N >= 1 dimensions, each an integer >= 1 by
``canonical.check_number``, read wherever a shape is built; data,
``fold``'s matrix, ``mode_n_product``'s factor and ``outer_product``'s
vectors are read by ``check_array``.
"""

from __future__ import annotations

import math
import mmap
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .canonical import check_array, check_list, check_number, nonfinite_row

__all__ = [
    "DenseTensor",
    "unfold",
    "fold",
    "mode_n_product",
    "outer_product",
    "frobenius_norm",
]


class DenseTensor:
    """Immutable dense tensor with an explicit column-major layout.

    Parameters
    ----------
    shape : sequence of int
        Dimension sizes (I_1, ..., I_N); every entry must be >= 1.
    data : iterable of float
        The prod(shape) entries in column-major order, i.e. element
        (i_1, ..., i_N) sits at linear offset sum_n i_n * prod_{m<n} I_m.
    """

    __slots__ = ("_array",)

    def __init__(self, shape: Sequence[int], data: Iterable[float]):
        shape = _check_shape(shape)
        flat = check_array(data, "tensor data").ravel()
        expected = math.prod(shape)
        if flat.size != expected:
            raise ValueError(
                f"data length {flat.size} does not match shape {shape} "
                f"(expected {expected})"
            )
        array = flat.reshape(shape, order="F")
        array.flags.writeable = False
        self._array = array

    @classmethod
    def from_array(cls, array: np.ndarray) -> "DenseTensor":
        """Build a tensor from an N-d array (values copied)."""
        array = np.atleast_1d(check_array(array, "tensor data"))
        return cls(array.shape, array.ravel(order="F"))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def order(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def data(self) -> np.ndarray:
        """The entries as a flat column-major vector (read-only)."""
        flat = self._array.ravel(order="F")
        flat.flags.writeable = False
        return flat

    def to_array(self) -> np.ndarray:
        """The entries as a read-only N-d array."""
        return self._array

    def __getitem__(self, index) -> float:
        return float(self._array[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self._array, other._array
        )

    def __hash__(self):
        return hash((self.shape, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape``, a list, as the tuple of its N >= 1 dimensions, each an int >= 1."""
    shape = tuple(check_number(s, f"shape[{n}]", True)
                  for n, s in enumerate(check_list(shape, "shape")))
    if len(shape) < 1:
        raise ValueError("tensor order must be at least 1")
    if any(s < 1 for s in shape):
        raise ValueError(f"all dimensions must be >= 1, got {shape}")
    return shape


# Private anonymous pages where the platform has the flag (not Windows).
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _empty_rows(m: int, p: int) -> np.ndarray:
    """A zeroed ``(m, p)`` float64 array for a sample set, on pages of its
    own (an anonymous mmap), which freeing it returns at once.  From
    malloc, an array of that size can come from the heap once a larger
    one was freed, and its pages then stay resident after it is freed."""
    pages = mmap.mmap(-1, max(8 * m * p, 1), **_PRIVATE)
    return np.frombuffer(pages, np.float64, m * p).reshape(m, p)


def _rows(data, shape: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """A sample set in its one layout: ``data``, read by ``check_array``, as
    a read-only view of C-ordered ``(M, P)`` rows, row m the P =
    prod(shape) column-major entries of sample m, M >= 1, each finite, and
    ``shape`` read by ``_check_shape``.  The caller's array is left writable."""
    shape = _check_shape(shape)
    data = np.ascontiguousarray(check_array(data, "data")).view()
    data.flags.writeable = False
    size = math.prod(shape)
    if data.ndim != 2 or data.shape[1] != size:
        raise ValueError(f"samples of shape {shape} need rows of {size} "
                         f"entries, got an array of shape {data.shape}")
    if len(data) == 0:
        raise ValueError("a sample set needs at least one sample")
    m = nonfinite_row(data)
    if m is not None:
        raise ValueError(f"sample {m} has a non-finite value")
    return data, shape


def _require_mode(tensor: DenseTensor, mode: int) -> None:
    if not 0 <= mode < tensor.order:
        raise ValueError(
            f"mode {mode} out of range for order-{tensor.order} tensor"
        )


def unfold(tensor: DenseTensor, mode: int) -> np.ndarray:
    """Mode-n unfolding: stack the mode-``mode`` fibers as columns.

    The result has shape (I_mode, prod of the remaining dimensions);
    columns enumerate the fixed indices in column-major order.
    """
    _require_mode(tensor, mode)
    array = tensor.to_array()
    moved = np.moveaxis(array, mode, 0)
    return moved.reshape(array.shape[mode], -1, order="F")


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> DenseTensor:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape``."""
    shape = _check_shape(shape)
    matrix = check_array(matrix, "matrix")
    if matrix.ndim != 2:
        raise ValueError("fold expects a 2-d matrix")
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if matrix.shape[0] != shape[mode] or matrix.shape[1] != int(np.prod(rest)):
        raise ValueError(
            f"matrix shape {matrix.shape} inconsistent with target shape "
            f"{shape} at mode {mode}"
        )
    moved = matrix.reshape((shape[mode],) + rest, order="F")
    return DenseTensor.from_array(np.moveaxis(moved, 0, mode))


def mode_n_product(
    tensor: DenseTensor, factor: np.ndarray, mode: int
) -> DenseTensor:
    """Multiply ``tensor`` by ``factor`` along ``mode``.

    Defined through the unfolded identity: the mode-n unfolding of the
    result equals ``factor @ unfold(tensor, mode)``.
    """
    _require_mode(tensor, mode)
    factor = check_array(factor, "factor")
    if factor.ndim != 2:
        raise ValueError("factor must be a 2-d matrix")
    if factor.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"factor has {factor.shape[1]} columns but mode {mode} has "
            f"size {tensor.shape[mode]}"
        )
    product = _mode_product(tensor.to_array()[..., None], factor, mode)
    return DenseTensor.from_array(product[..., 0])


def _unfold_batch(batch: np.ndarray, mode: int) -> np.ndarray:
    """Every item of ``batch``, laid out as ``_mode_product`` takes it,
    unfolded along ``mode`` as :func:`unfold` does: an ``(M, I_mode, P)``
    stack, batch first, each item with the strides of a lone unfolding."""
    # np.moveaxis(item, mode, 0) with the batch axis kept last
    shape, order = batch.shape, batch.ndim - 1
    others = (*range(mode), *range(mode + 1, order))
    unfolded = batch.transpose(mode, *others, order).reshape(
        shape[mode], -1, shape[-1], order="F"
    )
    return unfolded.transpose(2, 0, 1)


def _batch_view(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``_rows``' ``rows`` of samples of ``shape`` as one batch in
    ``_mode_product``'s layout: a view, with the strides of the samples'
    ``DenseTensor.data`` stacked."""
    return rows.T.reshape(tuple(shape) + (len(rows),), order="F")


def _mode_product(batch: np.ndarray, factor: np.ndarray, mode: int) -> np.ndarray:
    """``factor`` times every item of ``batch`` along ``mode``, unchecked.

    ``batch`` holds M items laid out as a DenseTensor stores its entries,
    the batch being its last, slowest axis; ``factor`` is shared by the
    items (2-d) or one per item (3-d, batch first).  Each item is unfolded
    as :func:`unfold` does and folded back as :func:`fold` does, so chained
    calls round as chained :func:`mode_n_product` calls do.  The batch
    axis changes no item's strides, nor whether its unfolding is a view or
    a copy; items stacked in C order, or one GEMM over all items with a
    shared factor, would change the BLAS call, and so the bits, where an
    unfolding has one row or column.
    """
    shape, order = batch.shape, batch.ndim - 1
    product = np.matmul(factor, _unfold_batch(batch, mode))
    # each item's product is C-ordered (R, P), so the transposed batch is
    # F-ordered (P, R, M), and P splits over the other modes as fold does;
    # the transpose below undoes _unfold_batch's np.moveaxis
    moved = product.T.reshape(
        shape[:mode] + shape[mode + 1 : -1] + product.shape[1:2] + shape[-1:],
        order="F",
    )
    if mode == order - 1:  # R is already in place: the batch's layout
        return moved
    return moved.transpose(
        *range(mode), order - 1, *range(mode, order - 1), order
    ).copy(order="F")


def outer_product(vectors: Sequence[np.ndarray]) -> DenseTensor:
    """Outer product of N vectors: a rank-1 tensor of order N."""
    if len(vectors) == 0:
        raise ValueError("outer_product needs at least one vector")
    arrays = [check_array(v, f"vectors[{k}]").ravel() for k, v in enumerate(vectors)]
    return DenseTensor.from_array(reduce(np.multiply.outer, arrays))


def frobenius_norm(tensor: DenseTensor) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(tensor.data))
