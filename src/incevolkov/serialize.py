"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so every value round-trips
bit-exactly; identical inputs produce identical bytes (no timestamps, no
environment-dependent content).  JSON key order follows construction order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

SCHEMA = "ince-volkov/1"

# Builtin types are checked first and numpy types after: a numpy value
# exists only once numpy is loaded, so loading this module (as `params`
# does) never loads numpy.


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(int(x))
    if not isinstance(x, float):
        import numpy as np

        if isinstance(x, np.bool_):
            return "true" if x else "false"
        if isinstance(x, np.integer):
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
    if isinstance(obj, (bool, int, float)):
        return format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{_escape(str(k))}": {dumps_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        return _list_json([dumps_json(v, indent + 2) for v in obj], indent)
    return _numpy_json(obj, indent)


def _numpy_json(obj, indent: int) -> str:
    """`dumps_json` of a numpy scalar or array; float64 rows format in one pass."""
    import numpy as np

    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return format_number(obj)
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if obj.ndim == 0:
        return dumps_json(obj.item(), indent)
    if obj.dtype != np.float64:
        return dumps_json(obj.tolist(), indent)
    if obj.ndim > 1:
        return _list_json([dumps_json(row, indent + 2) for row in obj], indent)
    values = obj.tolist()
    if np.isfinite(obj).all():
        return _list_json(list(map("%.17g".__mod__, values)), indent)
    return _list_json([format_number(x) for x in values], indent)


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
