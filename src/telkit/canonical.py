"""Canonical JSON: a byte-deterministic serialization of report content.

Keys are sorted, floats are rendered with 17 significant digits (enough
to round-trip IEEE doubles exactly), and there is no insignificant
whitespace, so equal content always produces equal bytes.  ``plain``
turns a telkit object into that content: every model file and config
echo is written from its dataclass fields by name, its ndarrays kept as
they are.  The writer streams: one generator yields the text piece by
piece, an ndarray one last-axis row at a time, so ``dump_canonical``
never holds the whole document, nor a list copy of an array;
``canonical_json`` joins the same pieces into one string.  Every JSON
object read back in goes through ``check_keys``: a value that is not an
object fails (``check_object``, the one object rule), as do a typo'd key
and a missing one that is required; a list, through ``check_list``.
``check_number``
is the one number rule of every value telkit builds from outside, and
``check_array`` its form for each entry of an array; configs, specs,
ranks, seeds, tensors, datasets, the model reader and every array a
caller hands to a learner's prediction, PCA and the tensor kernels run
them.  A float array's finiteness is checked by its holder.
"""

from __future__ import annotations

import dataclasses
import json
import math
from numbers import Integral, Real
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

__all__ = ["plain", "canonical_json", "dump_canonical", "check_object",
           "check_list", "check_keys", "check_number", "check_array"]


def plain(value) -> Any:
    """The JSON form of a telkit object: a dataclass becomes a dict of its
    fields that are not None, keyed by field name, and a tuple a list; dict
    and list values are converted the same way, recursively.  An ndarray is
    kept as it is, for ``canonical_json`` to render row by row."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: plain(v) for name, v in fields if v is not None}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def _scalar(value) -> str:
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} in canonical JSON")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _pieces(value) -> Iterator[str]:
    """The canonical text of ``value``, piece by piece: an object one key at
    a time, a list one item at a time and an ndarray one last-axis row at a
    time, so no piece holds more than one row."""
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise TypeError("canonical JSON object keys must be strings")
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "") + json.dumps(key, ensure_ascii=False) + ":"
            yield from _pieces(value[key])
        yield "}"
    elif isinstance(value, (list, tuple)) or (
            isinstance(value, np.ndarray) and value.ndim > 1):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _pieces(item)
        yield "]"
    elif isinstance(value, np.ndarray):  # one row, or a 0-d array's value
        items = value.tolist()
        yield "[" + ",".join(map(_scalar, items)) + "]" if value.ndim else _scalar(items)
    else:
        yield _scalar(value)


def canonical_json(value) -> str:
    return "".join(_pieces(value))


def dump_canonical(value, path) -> None:
    """Write ``value``'s canonical text and a newline to ``path`` as it is
    rendered, never holding the whole document.  A value that cannot be
    rendered fails part-way and leaves a prefix of the text in the file,
    which is not valid JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_pieces(value))
        handle.write("\n")


def check_object(payload, where: str) -> None:
    """Reject a ``payload`` that is not a mapping: the one object rule."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{where} must be an object, got {payload!r}")


def check_list(values, where: str):
    """``values`` unless it is no list, tuple or ndarray: the one list rule."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{where} must be a list, got {values!r}")
    return values


def check_keys(payload: Mapping, known: Iterable[str] | type, where: str,
               required: Iterable[str] = ()) -> None:
    """Reject a ``payload`` that is not a mapping, then the first key of it
    (sorted) that ``known`` lacks, then the first of ``required`` that it
    lacks.  A dataclass ``known`` has its field names as keys and those of
    its fields with no default as ``required``."""
    check_object(payload, where)
    if dataclasses.is_dataclass(known):
        fields = dataclasses.fields(known)
        known = [f.name for f in fields]
        required = [f.name for f in fields if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"missing {where} key {missing[0]!r}")


def check_number(value, key: str, integral: bool = False):
    """``value`` of number ``key``, an int if ``integral``.  A bool, a str or
    any other non-number, a non-finite value and, if ``integral``, a
    non-integral number are a ValueError naming ``key``."""
    if type(value) is int:  # the common case, valid as it is
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if integral:
        if int(value) != value:
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return value


def check_array(values, key: str, integral: bool = False) -> np.ndarray:
    """``values`` as a float64 array, int64 if ``integral``, by
    ``check_number``'s rule for each entry, an error naming it ``key[i][j]``;
    an int64 entry must fit.  A number ndarray that casts safely is taken
    as it is, and a list's entry types are scanned in one pass."""
    dtype, kinds = (np.int64, "iu") if integral else (np.float64, "iuf")
    if isinstance(values, np.ndarray) and (values.dtype == dtype or (
            values.dtype.kind in kinds and np.can_cast(values.dtype, dtype))):
        return np.asarray(values, dtype=dtype)
    entries = np.asarray(values, dtype=object)
    if set(map(type, entries.flat)) <= ({int} if integral else {int, float}):
        try:
            return entries.astype(dtype)
        except OverflowError:  # named below
            pass
    info = np.iinfo(dtype) if integral else np.finfo(dtype)
    for index, value in np.ndenumerate(entries):
        if isinstance(value, float) and not integral:
            continue  # its finiteness is its holder's check
        name = key + "".join(f"[{i}]" for i in index)
        if not int(info.min) <= check_number(value, name, integral) <= int(info.max):
            raise ValueError(f"{name} must fit in {np.dtype(dtype)}, got {value!r}")
    return entries.astype(dtype)
