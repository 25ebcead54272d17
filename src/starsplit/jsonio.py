"""Deterministic JSON output, and the shape checks of JSON input.

Serialisation is canonical: keys sorted, floats in 17-significant-digit
shortest form, no whitespace variation.  Non-finite floats are refused.
Parsing a document produced here and re-serialising it reproduces the
bytes (floats round-trip exactly through 17 significant digits).

``read_file`` is the one reader of input files (manifold, metric and
pullback): it refuses an object that repeats a key, where ``json.load``
would keep the last.  ``json_object``, ``json_array``, ``json_number`` and
``json_complex`` let the readers refuse a value of the wrong JSON type, an
object with an unknown key, or a string or boolean where a number belongs,
as ``InputError`` instead of misreading it.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Optional, Tuple

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


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_file(path: str, what: str):
    """The JSON document in the file ``path`` (``what`` names it in errors);
    an object that repeats a key is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    except InputError as exc:
        raise InputError(f"{what} {path!r}: {exc}") from exc


def json_number(data, what: str, integer: bool = False):
    """``data`` if it is a JSON number (an integer when ``integer``); a
    boolean is not a number."""
    kinds = int if integer else (int, float)
    if isinstance(data, bool) or not isinstance(data, kinds):
        raise InputError(f"{what} must be {'an integer' if integer else 'a number'}, "
                         f"got {data!r}")
    return data


def json_complex(data, what: str) -> complex:
    """A complex number written as the JSON pair ``[re, im]``."""
    if not (isinstance(data, list) and len(data) == 2):
        raise InputError(f"{what} must be a pair [re, im], got {data!r}")
    return complex(json_number(data[0], what), json_number(data[1], what))
