"""Dataset files: the TELD binary format and PPM/PGM image directories.

TELD layout (all integers little-endian unsigned 32-bit):

    magic "TELD" | version | sample_count | order N | N dim sizes |
    dtype code (1 = little-endian float64) |
    per sample: label | prod(dims) finite float64 scalars, column-major

Image ingestion walks one subdirectory per class, decoding binary PPM
(P6) and PGM (P5) files with maxval 255 into (height, width, channels)
samples scaled to [0, 1], each into its row of one array as a TELD record
is; subdirectories and files are visited in lexicographic order, so the
sample order is fixed.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .ensemble import LabeledTensorDataset
from .tensor import DenseTensor, _empty_rows

__all__ = [
    "TeldError",
    "BadMagicError",
    "UnsupportedVersionError",
    "UnsupportedDtypeError",
    "TruncatedFileError",
    "TrailingDataError",
    "ShapeError",
    "NonFiniteValueError",
    "ImageFormatError",
    "save_tensor_dataset",
    "load_tensor_dataset",
    "decode_ppm",
    "load_ppm_dir",
]

TELD_MAGIC = b"TELD"
TELD_VERSION = 1
TELD_DTYPE_F64 = 1
_MAX_ELEMENTS = 1 << 31  # refuse absurd shapes before allocating


class TeldError(ValueError):
    """Base class for malformed TELD files."""


class BadMagicError(TeldError):
    pass


class UnsupportedVersionError(TeldError):
    pass


class UnsupportedDtypeError(TeldError):
    pass


class TruncatedFileError(TeldError):
    pass


class TrailingDataError(TeldError):
    pass


class ShapeError(TeldError):
    pass


class NonFiniteValueError(TeldError):
    pass


class ImageFormatError(ValueError):
    """Unsupported or malformed PPM/PGM content."""


def save_tensor_dataset(data: LabeledTensorDataset, path: str | Path) -> None:
    """Write a dataset in TELD format (lossless round-trip); one whose
    labels or dimensions do not all fit in u32 writes no file."""
    shape = data.shape
    for name, values in (("dimension", shape), ("label of sample", data.labels)):
        too_big = np.flatnonzero(np.asarray(values) >= 1 << 32)
        if too_big.size:
            index = int(too_big[0])
            raise ValueError(f"TELD {name} {index} is {values[index]}, "
                             "which does not fit in u32")
    with open(path, "wb") as handle:
        handle.write(TELD_MAGIC)
        handle.write(struct.pack("<III", TELD_VERSION, data.n_samples, len(shape)))
        handle.write(struct.pack(f"<{len(shape)}I", *shape))
        handle.write(struct.pack("<I", TELD_DTYPE_F64))
        for x, label in zip(data.samples, data.labels):
            handle.write(struct.pack("<I", int(label)))
            handle.write(x.data.astype("<f8").tobytes())


class _Reader:
    """Cursor over an open file that reports the offset of a short read."""

    def __init__(self, handle):
        self.handle = handle
        self.size = os.fstat(handle.fileno()).st_size
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > self.size:
            raise TruncatedFileError(
                f"unexpected end of file at byte {self.size} "
                f"(needed {count} bytes for {what} at offset {self.offset})"
            )
        self.offset += count
        return self.handle.read(count)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_tensor_dataset(path: str | Path) -> LabeledTensorDataset:
    """Read a TELD file; every malformation has its own error class.

    The header and then each record, into its row of one array, are read
    from the open file, so no copy of the whole file is ever held."""
    with open(path, "rb") as handle:
        return _read_teld(_Reader(handle))


def _read_teld(reader: _Reader) -> LabeledTensorDataset:
    magic = reader.take(4, "magic")
    if magic != TELD_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {TELD_MAGIC!r}")
    version = reader.u32("version")
    if version != TELD_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {version} (supported: {TELD_VERSION})"
        )
    n_samples = reader.u32("sample count")
    order = reader.u32("order")
    if n_samples == 0 or order == 0:
        raise ShapeError(
            f"dataset must have samples and order >= 1, "
            f"got {n_samples} samples of order {order}"
        )
    dims = [reader.u32(f"dimension {n}") for n in range(order)]
    if any(d == 0 for d in dims):
        raise ShapeError(f"zero dimension in shape {tuple(dims)}")
    n_elements = 1
    for d in dims:
        n_elements *= d
        if n_elements > _MAX_ELEMENTS:
            raise ShapeError(
                f"shape {tuple(dims)} overflows the element limit "
                f"{_MAX_ELEMENTS}"
            )
    dtype = reader.u32("dtype code")
    if dtype != TELD_DTYPE_F64:
        raise UnsupportedDtypeError(
            f"unsupported dtype code {dtype} (supported: {TELD_DTYPE_F64})"
        )
    # rows for the whole records there are: an overstated count fails later
    whole = (reader.size - reader.offset) // (4 + 8 * n_elements)
    data = _empty_rows(min(n_samples, whole), n_elements)
    labels = np.empty(len(data), dtype=np.int64)
    for m in range(n_samples):
        label = reader.u32(f"label of sample {m}")
        payload = reader.take(8 * n_elements, f"payload of sample {m}")
        values = np.frombuffer(payload, dtype="<f8")
        if not np.isfinite(values).all():
            raise NonFiniteValueError(f"sample {m} has a non-finite value")
        data[m], labels[m] = values, label
    if reader.offset < reader.size:
        raise TrailingDataError(
            f"{reader.size - reader.offset} bytes after the last of {n_samples} "
            f"records, at offset {reader.offset}"
        )
    return LabeledTensorDataset.from_rows(data, dims, labels)


def _ppm_tokens(blob: bytes):
    """Yield header tokens, skipping whitespace and # comments.

    Returns (token, offset just past the single whitespace byte that
    terminated it).
    """
    i = 0
    while True:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i] == ord("#"):
            while i < len(blob) and blob[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ImageFormatError("truncated header")
        yield blob[start:i], i + 1
        i += 1


def decode_ppm(blob: bytes) -> DenseTensor:
    """Decode one binary P6 (RGB) or P5 (gray) image to a [0, 1] tensor.

    The result has shape (height, width, channels) with channels 3 for
    P6 and 1 for P5.  Only maxval 255 is supported.
    """
    tokens = _ppm_tokens(blob)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P5", b"P6"):
            raise ImageFormatError(
                f"unsupported image variant {magic!r} (binary P5/P6 only)"
            )
        channels = 3 if magic == b"P6" else 1
        width_tok, _ = next(tokens)
        height_tok, _ = next(tokens)
        maxval_tok, raster_start = next(tokens)
    except StopIteration:
        raise ImageFormatError("truncated header") from None
    try:
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError:
        raise ImageFormatError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise ImageFormatError(f"invalid image size {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (255 only)")
    expected = width * height * channels
    raster = blob[raster_start : raster_start + expected]
    if len(raster) < expected:
        raise ImageFormatError(
            f"raster truncated: expected {expected} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    array = pixels.reshape((height, width, channels))  # row-major raster
    return DenseTensor.from_array(array)


def load_ppm_dir(root_path: str | Path) -> LabeledTensorDataset:
    """Ingest a directory of class subdirectories of P5/P6 images.

    The lexicographically sorted subdirectory names get class labels
    0..K-1.  Images of differing sizes are rejected.
    """
    root = Path(root_path)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ImageFormatError(f"no class subdirectories under {root}")
    files, labels = [], []
    for label, class_dir in enumerate(class_dirs):
        members = sorted(p for p in class_dir.iterdir() if p.is_file())
        if not members:
            raise ImageFormatError(f"empty class directory {class_dir}")
        files += members
        labels += [label] * len(members)
    data = shape = None
    for m, file in enumerate(files):
        tensor = decode_ppm(file.read_bytes())
        if shape is None:
            shape = tensor.shape
            data = _empty_rows(len(files), tensor.size)
        elif tensor.shape != shape:
            raise ImageFormatError(
                f"inconsistent image sizes: {file} is {tensor.shape}, "
                f"expected {shape}"
            )
        data[m] = tensor.data
    return LabeledTensorDataset.from_rows(data, shape, labels)
