"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so every value round-trips
bit-exactly; identical inputs produce identical bytes (no timestamps, no
environment-dependent content).  JSON key order follows construction order.

A float64 array is written a row at a time: one `%`-template per array,
filled once per row.  A row that holds a non-finite value, or a value that
may print in 24 characters, takes the per-value path instead, since those
are the only values that can change the row's layout.  The rows of a
matrix are appended to one string that grows in place, so the peak stays
near one copy of the result.
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
    return _rows_json(parts, indent)


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
        # one string grows in place, as in `_rows_json`: each rendered
        # value is freed once it is appended
        out = "{"
        sep = "\n" + inner
        for k, v in obj.items():
            out += f'{sep}"{_escape(str(k))}": '
            out += dumps_json(v, indent + 2)
            sep = ",\n" + inner
        out += f"\n{pad}}}"
        return out
    if isinstance(obj, (list, tuple)):
        return _list_json([dumps_json(v, indent + 2) for v in obj], indent)
    return _numpy_json(obj, indent)


def _numpy_json(obj, indent: int) -> str:
    """`dumps_json` of a numpy scalar or array; float64 rows fill one template each."""
    import numpy as np

    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return format_number(obj)
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if obj.ndim == 0:
        return dumps_json(obj.item(), indent)
    if obj.dtype != np.float64:
        return dumps_json(obj.tolist(), indent)
    if obj.ndim == 1:
        return next(_float_rows(obj[np.newaxis], indent))
    if obj.ndim > 2:
        return _list_json([_numpy_json(sub, indent + 2) for sub in obj], indent)
    rows = _float_rows(obj, indent + 2)
    if len(obj) <= 400 and obj.shape[1] < 8:    # 8 values make a row of 24+ characters
        return _list_json(list(rows), indent)
    return _rows_json(rows, indent)


def _float_rows(m, indent: int):
    """Each row of the 2-D float64 array m, rendered as `_list_json` renders it at indent."""
    import numpy as np

    row_t = _list_json(["%.17g"] * m.shape[1], indent)
    # A finite double prints in 24 characters (one past the inline limit)
    # only if it is negative with a three-digit exponent.
    flagged = ~np.isfinite(m)
    flagged |= (m < 0) & (m > -1e-99)
    flagged |= m <= -1e100
    for row, exact in zip(m, flagged.any(axis=1).tolist()):
        values = row.tolist()
        if exact:
            yield _list_json([format_number(x) for x in values], indent)
        else:
            yield row_t % tuple(values)


def _rows_json(rows, indent: int) -> str:
    """The one-item-per-line form of the rendered rows: every multi-line JSON array.

    CPython grows a str that only this frame holds in place, so each row is
    freed once it is appended; joining a list of the rows would hold two
    copies of the result.
    """
    inner = " " * (indent + 2)
    out = "["
    sep = "\n" + inner
    for row in rows:
        out += sep + row
        sep = ",\n" + inner
    out += "]" if out == "[" else "\n" + " " * indent + "]"
    return out


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
