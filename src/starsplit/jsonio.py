"""Deterministic JSON output.

Serialisation is canonical: keys sorted, floats in 17-significant-digit
shortest form, no whitespace variation.  Non-finite floats are refused.
Parsing a document produced here and re-serialising it reproduces the
bytes (floats round-trip exactly through 17 significant digits).
"""

from __future__ import annotations

import json
import math
from typing import List

from .errors import StarsplitError


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
