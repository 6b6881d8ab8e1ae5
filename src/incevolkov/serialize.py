"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so every value round-trips
bit-exactly; identical inputs produce identical bytes (no timestamps, no
environment-dependent content).  JSON key order follows construction order.

A float64 array is written a row at a time: one `%`-template per array,
filled once per row.  A row that holds a non-finite value, or a value that
may print in 24 characters, takes a per-value path instead, since those
are the only values that can change the row's layout: `%.17g` value by
value when every value is finite, `format_number` otherwise.  A dict, list
or array is written in pieces (a value, an item, a row) appended to one
string that grows in place, so the peak stays near one copy of the result.

A 2-D float64 array of at least _SPLIT_VALUES (2^15) values is rendered by
two processes where `forking.may_fork()` holds (the platform forks, two or
more usable CPUs, numpy's bundled OpenBLAS): this process renders the even
rows and one forked child the odd rows, which it streams back through a
pipe, each row length-prefixed; the rows are yielded in order.  Every row
is the text one process renders, so the bytes do not depend on the split.
A smaller array never loads the `forking` module.
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


# A float64 array of at least this many values is rendered by two processes
_SPLIT_VALUES = 1 << 15


def _float_rows(m, indent: int):
    """Each row of the 2-D float64 array m, rendered as `_list_json` renders it at indent.

    A row fills the array's template, unless it holds a value that may
    print in 24 characters (formatted one value at a time with `%.17g`)
    or a non-finite one (`format_number`).  An array of at least
    _SPLIT_VALUES values, where `forking.may_fork()` holds, is rendered by
    two processes (`_two_process_rows`).
    """
    import numpy as np

    row_t = _list_json(["%.17g"] * m.shape[1], indent)
    # A finite double prints in 24 characters (one past the inline limit)
    # only if it is negative with a three-digit exponent.
    nonfinite = ~np.isfinite(m)
    flagged = (nonfinite | ((m < 0) & (m > -1e-99)) | (m <= -1e100)).any(axis=1).tolist()
    nonfinite = nonfinite.any(axis=1).tolist()

    def rows(start: int, step: int):
        """Rows start, start + step, ... of m, rendered."""
        for i in range(start, len(flagged), step):
            values = m[i].tolist()
            if not flagged[i]:
                yield row_t % tuple(values)
            elif nonfinite[i]:
                yield _list_json([format_number(x) for x in values], indent)
            else:
                yield _list_json(list(map("%.17g".__mod__, values)), indent)

    if m.size >= _SPLIT_VALUES:
        from . import forking           # loaded only for an array this large

        if forking.may_fork():
            yield from _two_process_rows(rows, len(flagged))
            return
    yield from rows(0, 1)


def _two_process_rows(rows, count: int):
    """rows(0, 1), with this process rendering the even rows and a forked child the odd.

    The child writes each of its rows to a buffered pipe, its length in 8
    bytes first; this process yields its own row, then reads and yields
    the child's next one.  Interleaved rows keep the two shares even where
    an array's cheap rows lie together, and neither process holds more
    than a pipe's worth of rendered text.  The child is ended and reaped
    on every way out (`forking.child`).
    """
    from .forking import child

    def send(pipe):
        for text in rows(1, 2):
            data = text.encode("ascii")
            pipe.write(len(data).to_bytes(8, "little"))
            pipe.write(data)

    with child(send) as pipe:
        for i, text in enumerate(rows(0, 2)):
            yield text
            if 2 * i + 1 < count:
                header = pipe.read(8)
                size = int.from_bytes(header, "little")
                data = pipe.read(size)
                if len(header) != 8 or len(data) != size:
                    raise RuntimeError("the forked child process ended without its rows")
                yield data.decode("ascii")


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
