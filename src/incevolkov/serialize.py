"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so every value round-trips
bit-exactly; identical inputs produce identical bytes (no timestamps, no
environment-dependent content).  JSON key order follows construction order.

A float64 array is written a row at a time: one `%`-template per array,
filled once per row.  A row that holds a non-finite value, or a value that
may print in 24 characters, takes the per-value path instead, since those
are the only values that can change the row's layout.  A dict, list or
array is written in pieces (a value, an item, a row) appended to one
string that grows in place, so the peak stays near one copy of the result.
"""

from __future__ import annotations

import itertools
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


def _list_json(parts, indent: int) -> str:
    """A JSON array of rendered items: `_array_pieces` joined into one string."""
    return "".join(_array_pieces(parts, indent))


def _array_pieces(parts, indent: int):
    """A JSON array of rendered items at indent, in pieces.

    Inline when it has at most 400 items, each under 24 characters and on
    one line; else one item per line.  Items are drawn from parts as they
    are needed: once an item or the count decides the form, the rest
    stream, so an iterator of parts is never held whole.
    """
    parts = iter(parts)
    short = []
    for part in parts:
        if len(short) == 400 or len(part) >= 24 or "\n" in part:
            inner = "\n" + " " * (indent + 2)
            sep = "[" + inner
            for item in itertools.chain(short, (part,), parts):
                yield sep + item
                sep = "," + inner
            yield "\n" + " " * indent + "]"
            return
        short.append(part)
    yield "[" + ", ".join(short) + "]"


def _leaf_json(obj):
    """The JSON of None, a str, a bool or a builtin number; None for anything else."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, (bool, int, float)):
        return format_number(obj)
    return None


def dumps_json(obj, indent: int = 0) -> str:
    text = _leaf_json(obj)
    if text is None:
        # CPython grows a str that only this frame holds in place, and each
        # piece is freed once it is appended: the peak stays near one copy
        # of the text
        text = ""
        for piece in _pieces(obj, indent):
            text += piece
    return text


def _pieces(obj, indent: int):
    """The JSON of a dict, list, tuple or numpy value at indent, in pieces;
    each value, item and row is rendered when it is written."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = "\n" + " " * (indent + 2)
        sep = "{" + inner
        for k, v in obj.items():
            key = f'{sep}"{_escape(str(k))}": '
            text = _leaf_json(v)
            if text is None:
                yield key
                yield from _pieces(v, indent + 2)
            else:
                yield key + text
            sep = "," + inner
        yield "\n" + " " * indent + "}"
    elif isinstance(obj, (list, tuple)):
        yield from _array_pieces((dumps_json(v, indent + 2) for v in obj), indent)
    else:
        yield from _numpy_pieces(obj, indent)


def _numpy_pieces(obj, indent: int):
    """`_pieces` of a numpy scalar or array; float64 rows fill one template each."""
    import numpy as np

    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        yield format_number(obj)
    elif not isinstance(obj, np.ndarray):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    elif obj.ndim == 0:
        yield dumps_json(obj.item(), indent)
    elif obj.dtype != np.float64:
        yield from _pieces(obj.tolist(), indent)
    elif obj.ndim == 1:
        yield next(_float_rows(obj[np.newaxis], indent))
    elif obj.ndim == 2:
        yield from _array_pieces(_float_rows(obj, indent + 2), indent)
    else:
        yield from _pieces(list(obj), indent)


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


_WRITE_SLICE = 1 << 18          # characters per write: a stream encodes each write whole


def write_text(stream, *texts: str) -> None:
    """The texts, one after another, to a text stream in _WRITE_SLICE slices."""
    for text in texts:
        for start in range(0, len(text), _WRITE_SLICE):
            stream.write(text[start:start + _WRITE_SLICE])
