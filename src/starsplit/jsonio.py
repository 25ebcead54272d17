"""Deterministic JSON output, and the shape checks of JSON input.

Serialisation is canonical: keys sorted, floats in 17-significant-digit
shortest form, no whitespace variation.  Non-finite floats are refused.
Parsing a document produced here and re-serialising it reproduces the
bytes (floats round-trip exactly through 17 significant digits).

``json_object`` and ``json_array`` let the input readers (manifold, metric
and pullback files) refuse a value of the wrong JSON type or an object
with an unknown key as ``InputError`` instead of misreading it.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Optional

from .errors import InputError, StarsplitError


def _write(obj, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise StarsplitError(f"cannot write non-finite number {obj} as JSON")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    out: List[str] = []
    _write(obj, out)
    return "".join(out)


def json_object(data, what: str, keys: Optional[Iterable[str]] = None) -> dict:
    """``data`` if it is a JSON object whose keys all lie in ``keys`` (any
    key when ``keys`` is None)."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    if keys is not None:
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise InputError(f"unknown key {unknown[0]!r} in {what}")
    return data


def json_array(data, what: str) -> list:
    """``data`` if it is a JSON array."""
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array")
    return data

