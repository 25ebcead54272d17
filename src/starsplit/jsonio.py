"""Deterministic JSON output, and the shape checks of JSON input.

``dumps`` is ``json.dumps`` with sorted keys: floats print as Python's
shortest round-trip ``repr`` (``-0.0`` and integral floats such as ``1.0``
keep their point), and NaN and infinities are refused as
``StarsplitError``.  Parsing a document produced here and re-serialising
it reproduces the bytes.

``read_file`` is the one reader of input files (manifold, metric and
pullback): it refuses an object that repeats a key, where ``json.load``
would keep the last.  ``json_object``, ``json_array``, ``json_number`` and
``json_complex`` let the readers refuse a value of the wrong JSON type, an
object with an unknown key, or a string or boolean where a number belongs,
as ``InputError`` instead of misreading it.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Tuple

from .errors import InputError, StarsplitError


def dumps(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise StarsplitError(f"cannot write JSON: {exc}") from exc


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
