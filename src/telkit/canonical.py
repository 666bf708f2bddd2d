"""Canonical JSON: a byte-deterministic serialization of report content.

Keys are sorted, floats are rendered with 17 significant digits (enough
to round-trip IEEE doubles exactly), and there is no insignificant
whitespace, so equal content always produces equal bytes.  Config
objects read back in go through ``check_keys``, so a typo'd key fails.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

__all__ = ["canonical_json", "dump_canonical", "check_keys"]


def _render(value) -> str:
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
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise TypeError("canonical JSON object keys must be strings")
        items = (
            f"{json.dumps(k, ensure_ascii=False)}:{_render(v)}"
            for k, v in sorted(value.items())
        )
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canonical_json(value) -> str:
    return _render(value)


def dump_canonical(value, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(value))
        handle.write("\n")


def check_keys(payload: Mapping, known: Iterable[str], where: str) -> None:
    """Reject the first key of ``payload`` (sorted) that ``known`` lacks."""
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
