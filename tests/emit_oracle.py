"""The recursive JSON writer the CLI once used, kept as a test oracle.

``ozaki.cli.emit`` writes the envelope in one pass into one list of pieces;
the tests check that it prints the same bytes as this writer, and raises the
same exceptions.  ``_fmt_float`` is copied too, so that a change to the
float format shows as a difference.
"""

import json
import math
from typing import Any


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in output")
    return f"{x:.17g}"


def _jsonval(value: Any, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_jsonval(v, indent + 2)}"
            for k, v in value.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_jsonval(v, indent + 2)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)}")
