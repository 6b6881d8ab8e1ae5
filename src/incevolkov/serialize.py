"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so every value round-trips
bit-exactly; identical inputs produce identical bytes (no timestamps, no
environment-dependent content).  JSON key order follows construction order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

SCHEMA = "ince-volkov/1"


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def _escape(s: str) -> str:
    if s.isprintable() and '"' not in s and "\\" not in s:
        return s
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _float_parts(row: np.ndarray) -> list:
    """Strings of a 1-D float array, as `format_number` renders each item."""
    values = row.tolist()
    if np.isfinite(row).all():
        return list(map("%.17g".__mod__, values))
    return [format_number(x) for x in values]


def _list_json(parts: list, indent: int) -> str:
    """A JSON array of rendered items: inline when every item is short and one line."""
    if not parts:
        return "[]"
    if len(parts) <= 400 and max(map(len, parts)) < 24:
        line = ", ".join(parts)
        if "\n" not in line:
            return "[" + line + "]"
    inner = " " * (indent + 2)
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + " " * indent + "]"


def dumps_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return dumps_json(obj.item(), indent)
        if obj.dtype == np.float64:
            if obj.ndim == 1:
                return _list_json(_float_parts(obj), indent)
            return _list_json([dumps_json(row, indent + 2) for row in obj], indent)
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{_escape(str(k))}": {dumps_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        return _list_json([dumps_json(v, indent + 2) for v in obj], indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_csv(columns: Sequence[str], rows: Iterable[Sequence],
               header_comments: Sequence[str] = ()) -> str:
    """CSV text with '#' comment lines (units, column meanings) up front."""
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(format_number(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
