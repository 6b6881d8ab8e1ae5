"""Deterministic serialization: 17-digit round trips, JSON validity."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import incevolkov.forking as forking
import incevolkov.serialize as serialize
from incevolkov.serialize import _escape, _list_json, dumps_json, format_number, render_csv


def reference_escape(s):
    """The character-by-character escaper, without the fast path for clean strings."""
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


def reference_dumps_json(obj, indent=0):
    """The item-by-item writer that the float-array path replaced."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{reference_escape(obj)}"'
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{reference_escape(str(k))}": {reference_dumps_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [reference_dumps_json(v, indent + 2) for v in obj]
        if all(len(p) < 24 and "\n" not in p for p in parts) and len(parts) <= 400:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# 24 characters: the longest a finite double renders, one past the inline limit
LONG = -1.2345678901234567e-300
SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, LONG,
            -LONG, 1e308, 1.0 / 3.0, 7.0]
# Either side of where a negative double's exponent takes a third digit,
# the only way a finite value reaches 24 characters
BOUNDARY = [-9.9999999999999999e-100, -1e-99, -1.0000000000000001e-99,
            float(np.nextafter(-1e-99, 0.0)), float(np.nextafter(-1e-99, -1.0)), -1e-100,
            float(np.nextafter(-1e100, 0.0)), -1e100, float(np.nextafter(-1e100, -math.inf)),
            -5e-324, -2.2250738585072009e-308, -2.2250738585072014e-308, 1e-100, 1e100]


class TestFormatNumber:
    def test_round_trip_random_doubles(self):
        rng = np.random.default_rng(42)
        values = np.concatenate([
            rng.normal(scale=1e-300, size=50),
            rng.normal(scale=1.0, size=50),
            rng.normal(scale=1e300, size=50),
        ])
        for x in values:
            assert float(format_number(float(x))) == float(x)

    def test_ints_stay_ints(self):
        assert format_number(7) == "7"
        assert format_number(np.int64(-3)) == "-3"

    def test_bools(self):
        assert format_number(True) == "true"
        assert format_number(np.False_) == "false"

    def test_non_finite_to_null(self):
        assert format_number(math.inf) == "null"
        assert format_number(math.nan) == "null"


class TestJson:
    def test_parseable_and_lossless(self):
        payload = {
            "name": 'quote " and \\ backslash\nnewline',
            "values": [1.0 / 3.0, 2.0 ** -1074, -0.0, 1e308],
            "nested": {"empty_list": [], "empty_dict": {}, "none": None},
            "array": np.array([1.5, 2.5]),
            "flag": True,
        }
        parsed = json.loads(dumps_json(payload))
        assert parsed["values"] == payload["values"]
        assert parsed["name"] == payload["name"]
        assert parsed["array"] == [1.5, 2.5]
        assert parsed["nested"]["none"] is None

    def test_determinism(self):
        payload = {"b": [1.0, 2.0], "a": {"x": 3.0}}
        assert dumps_json(payload) == dumps_json(payload)

    @pytest.mark.parametrize("text", ["dirac-plus", "", 'say "hi"', "a\\b", "two\nlines",
                                      "tab\there", "\x7f\u00e9\u2028", "\x00"])
    def test_escape_examples(self, text):
        assert _escape(text) == reference_escape(text)
        assert json.loads(f'"{_escape(text)}"') == text

    @given(st.text())
    def test_escape_matches_reference(self, text):
        assert _escape(text) == reference_escape(text)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps_json({"bad": object()})

    def test_numpy_scalars_as_builtins(self):
        # builtin types are checked first, numpy scalars after
        payload = {"flags": [np.True_, np.False_, True], "ints": [np.int64(-3), np.uint8(7)],
                   "floats": [np.float64(0.1), np.float32(0.1), np.float64(math.nan)],
                   "mixed": (np.int32(2), 2, np.bool_(False))}
        assert dumps_json(payload) == reference_dumps_json(payload)
        assert format_number(np.float32(0.1)) == format_number(float(np.float32(0.1)))

    @pytest.mark.parametrize("indent", [0, 2, 4])
    @pytest.mark.parametrize("obj", [
        [{"k": 1, "sub": {"x": [1.0, 2.0], "empty": {}}}, {"y": "text"}],
        [{"a": {"b": {"c": [0.1] * 9}}}, "s", None],
        list(range(401)),
    ], ids=["dicts", "deep", "long"])
    def test_multi_line_list_as_concatenated(self, obj, indent):
        # one item per line, as the chained concatenation used to build it
        parts = [dumps_json(v, indent + 2) for v in obj]
        inner = " " * (indent + 2)
        old = "[\n" + inner + (",\n" + inner).join(parts) + "\n" + " " * indent + "]"
        assert _list_json(parts, indent) == old
        assert dumps_json(obj, indent) == old

    def test_nested_payload_peak_near_one_copy(self):
        # a report: a dict holding a long list of small dicts and a matrix.
        # Every value, item and row is appended as it is rendered, so the
        # peak is the text plus one rendered piece and the writer's arrays.
        rng = np.random.default_rng(7)
        payload = {"points": [{"k": i, "eta": float(x), "notes": ["a", "b"]}
                              for i, x in enumerate(rng.normal(size=10000))],
                   "vectors": rng.normal(size=(200, 200))}
        dumps_json(payload)
        tracemalloc.start()
        try:
            text = dumps_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * len(text)


class TestFloatArrays:
    """The float-array path writes the bytes of the item-by-item writer."""

    @pytest.mark.parametrize("value", SPECIALS)
    def test_special_values(self, value):
        for arr in (np.array([value]), np.array([1.5, value, 2.5]),
                    np.array([[value, 1.0], [2.0, value]])):
            assert dumps_json(arr) == reference_dumps_json(arr)

    @pytest.mark.parametrize("length", [1, 23, 399, 400, 401, 1000])
    def test_inline_limit(self, length):
        arr = np.linspace(-1.0, 1.0, length)
        assert dumps_json(arr) == reference_dumps_json(arr)
        assert dumps_json(arr).startswith("[\n") == (length > 400)
        long_item = arr.copy()
        long_item[length // 2] = LONG
        assert dumps_json(long_item) == reference_dumps_json(long_item)
        assert dumps_json(long_item).startswith("[\n")

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3), (3, 1), (1, 401),
                                       (2, 3, 4), (0, 8), (2, 7), (2, 8), (401, 2)])
    def test_shapes(self, shape):
        arr = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7.0
        assert dumps_json(arr) == reference_dumps_json(arr)

    def test_layouts_and_dtypes(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-300, 300, size=(5, 6))
        with np.errstate(over="ignore"):       # out-of-range entries become inf
            narrow = [arr.astype(np.float32), arr.astype(np.float16)]
        for view in [arr, arr.T, np.asfortranarray(arr), arr[::2, 1::3]] + narrow:
            assert dumps_json(view) == reference_dumps_json(view)

    def test_nested_payload(self):
        payload = {"etas": np.array([-0.0, 1e-300, math.nan]),
                   "nested": {"vectors": np.array([[1.0, -math.inf], [LONG, 2.0]]),
                              "ints": np.arange(3), "empty": np.zeros((2, 0))},
                   "list": [np.array([0.5]), {"x": np.array([])}]}
        assert dumps_json(payload) == reference_dumps_json(payload)
        assert dumps_json(payload, indent=4) == reference_dumps_json(payload, indent=4)

    def test_zero_dimensional_as_scalar(self):
        assert dumps_json(np.array(2.5)) == dumps_json(2.5) == "2.5"
        assert dumps_json(np.array(math.nan)) == "null"
        assert dumps_json({"n": np.array(3)}) == dumps_json({"n": 3})

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                   max_side=6),
                      elements=st.floats(width=64)))
    def test_matches_reference(self, arr):
        assert dumps_json({"a": arr}) == reference_dumps_json({"a": arr})

    def test_short_rows_inline(self):
        assert dumps_json(np.array([[0.5]])) == "[[0.5]]"
        assert dumps_json(np.array([[1.0, -2.0], [3.0, 4.0]])) == "[[1, -2], [3, 4]]"

    @pytest.mark.parametrize("indent", [0, 2, 4])
    @pytest.mark.parametrize("value", [LONG, math.nan, math.inf, -math.inf])
    def test_some_rows_exact(self, indent, value):
        arr = np.linspace(-3.0, 3.0, 60).reshape(6, 10) / 7.0
        arr[1, 4] = value
        arr[4, 9] = value
        for view in (arr, arr[:, :3], arr[:, :1], arr[1], arr[2]):
            assert dumps_json(view, indent) == reference_dumps_json(view, indent)

    @pytest.mark.parametrize("indent", [0, 2, 4])
    @pytest.mark.parametrize("columns", [400, 401])
    def test_inline_limit_with_exact_rows(self, indent, columns):
        arr = np.linspace(-1.0, 1.0, 5 * columns).reshape(5, columns)
        arr[1, 0] = LONG
        arr[3, columns - 1] = math.nan
        payload = {"m": arr, "row": arr[1], "list": [arr[2], arr[3]]}
        assert dumps_json(payload, indent) == reference_dumps_json(payload, indent)
        assert dumps_json(arr, indent) == reference_dumps_json(arr, indent)

    @pytest.mark.parametrize("indent", [0, 2, 4])
    @pytest.mark.parametrize("value", BOUNDARY)
    def test_24_character_boundary(self, indent, value):
        row = np.linspace(-2.0, 2.0, 8) / 3.0
        row[3] = value
        arr = np.stack([row, row[::-1], np.full(8, value), np.linspace(1.0, 2.0, 8)])
        for view in (np.array([value]), row, row[:2], arr, arr[:, :2], arr[:, :1]):
            assert dumps_json(view, indent) == reference_dumps_json(view, indent)

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(9, 12))
        arr[2, 5] = BOUNDARY[3]
        arr[6, 1] = math.nan
        for view in (np.asfortranarray(arr).T, arr.T, arr[::-2, 1::2], arr[:, ::-1],
                     np.asfortranarray(arr)[3], arr[:, 5]):
            assert dumps_json(view) == reference_dumps_json(view)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                   max_side=8),
                      elements=st.one_of(st.sampled_from(BOUNDARY + SPECIALS),
                                         st.floats(width=64))),
           st.sampled_from([0, 2, 4]))
    def test_boundary_mix_matches_reference(self, arr, indent):
        assert dumps_json(arr, indent) == reference_dumps_json(arr, indent)

    def test_peak_memory_below_two_copies(self):
        """Writing a 400 x 400 matrix holds less than twice the text it returns."""
        arr = np.random.default_rng(5).normal(size=(400, 400))
        dumps_json(arr)
        tracemalloc.start()
        try:
            text = dumps_json(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)


def _split_array(rows, columns, seed=0):
    """A (rows, columns) array of normal doubles at decimal scales."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-5, 5, size=(rows, columns))


# an array at the threshold splits only where the predicate holds
splits = pytest.mark.skipif(not forking.may_fork(),
                            reason="this host does not split work with a forked child")


class TestFlaggedRows:
    """Rows with 24-character values format each value with %.17g."""

    @pytest.mark.parametrize("values", [
        [-1.5e-200, -3e-300, -2.2250738585072014e-308, -5e-324],
        [-1e100, -1e100, -1e100],
        [-1.5e-200, -1e100, 0.5, -7.25, 1e-300, -1e-100, float(np.nextafter(-1e100, 0.0))],
    ], ids=["tiny-negatives", "minus-1e100", "mixed"])
    @pytest.mark.parametrize("columns", [3, 401, 1000])
    def test_matches_reference(self, values, columns):
        row = np.resize(np.array(values), columns)
        arr = np.stack([np.linspace(-1.0, 1.0, columns), row, row[::-1]])
        for indent in (0, 2):
            assert dumps_json(arr, indent) == reference_dumps_json(arr, indent)
            assert dumps_json({"m": arr}, indent) == reference_dumps_json({"m": arr}, indent)


class TestTwoProcessRows:
    """Arrays of at least _SPLIT_VALUES values: even rows here, odd rows in a child."""

    @staticmethod
    def _paths(monkeypatch, obj):
        """(split, one process, reference) bytes of obj; the split forks once."""
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        with monkeypatch.context() as patch:
            patch.setattr(forking.os, "fork", counted_fork)
            split = dumps_json(obj)
        assert len(forks) == 1
        with monkeypatch.context() as patch:
            patch.setattr(forking, "may_fork", lambda: False)
            patch.setattr(forking.os, "fork", None)
            one = dumps_json(obj)
        return split, one, reference_dumps_json(obj)

    @staticmethod
    def _cases():
        rng = np.random.default_rng(17)
        special = _split_array(201, 201, 1)
        for i, value in enumerate([math.nan, math.inf, -math.inf]):
            special[i, i] = value            # rows 0 and 2 here, row 1 in the child
            special[150 + i, 7] = value
        long_values = _split_array(200, 200, 2)
        long_values[3, 0] = LONG             # the child's rows, then this process's
        long_values[4, 5:9] = BOUNDARY[:4]
        long_values[199, 199] = -1e100
        vectors = np.asfortranarray(rng.normal(size=(190, 190)))
        return {"odd-rows": _split_array(183, 183, 3), "even-rows": _split_array(182, 182, 4),
                "one-row": _split_array(1, 1 << 15, 5), "wide": _split_array(81, 405, 6),
                "special": special, "long-values": long_values, "vectors.T": vectors.T,
                "payload": {"etas": np.arange(3.0), "vectors": vectors.T, "tail": [1, "x"]}}

    @splits
    @pytest.mark.parametrize("name", ["odd-rows", "even-rows", "one-row", "wide", "special",
                                      "long-values", "vectors.T", "payload"])
    def test_bytes_match_one_process_and_reference(self, monkeypatch, name):
        split, one, reference = self._paths(monkeypatch, self._cases()[name])
        assert split == one == reference

    def test_below_the_threshold_never_forks(self, monkeypatch):
        monkeypatch.setattr(forking.os, "fork", None)
        for shape in [(1, serialize._SPLIT_VALUES - 1), (183, 179)]:
            arr = _split_array(*shape)
            assert dumps_json(arr) == reference_dumps_json(arr)

    @staticmethod
    def _failing_in(monkeypatch, where):
        """Make format_number raise in this process ("parent") or in the child."""
        parent = os.getpid()

        def format_here(x):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError(f"raised in the {where}")
            return format_number(x)

        monkeypatch.setattr(serialize, "format_number", format_here)
        arr = _split_array(200, 200)
        arr[0, 3] = arr[1, 3] = math.nan    # each process's first row takes format_number
        return arr

    @splits
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="the platform does not list a process's descriptors")
    @pytest.mark.parametrize("where, error, message", [
        ("child", RuntimeError, "ended without its"),
        ("parent", ValueError, "raised in the parent")])
    def test_a_raise_leaves_no_child_and_no_descriptor(self, monkeypatch, where, error,
                                                       message):
        arr = self._failing_in(monkeypatch, where)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(error, match=message):
                dumps_json({"vectors": arr})
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == before

    @splits
    def test_an_abandoned_writer_leaves_no_child(self):
        arr = _split_array(400, 400)
        before = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        rows = serialize._float_rows(arr, 0)
        next(rows)
        next(rows)                          # the child's first row: it has run
        rows.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        pieces = serialize._pieces({"vectors": arr}, 0)
        for _ in range(3):
            next(pieces)
        del pieces                          # collected without a close
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if before is not None:
            assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("n, loaded", [(20, False), (100, True)])
    def test_small_spectrum_does_not_load_the_fork_module(self, n, loaded):
        # dirac n = 20 writes 40 x 40 vectors, n = 100 200 x 200: past the
        # threshold, where the predicate is asked
        src = str(Path(serialize.__file__).resolve().parents[1])
        script = ("import sys\n"
                  "from incevolkov.cli import main\n"
                  f"code = main(['spectrum', '--family', 'dirac', '--n', '{n}', '--a', '14'])\n"
                  "print(code, 'incevolkov.forking' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr.split()[-1] == str(loaded)
        assert json.loads(proc.stdout)["vectors"]


class TestCsv:
    def test_comments_and_blanks(self):
        text = render_csv(["a", "b"], [(1.0, None), ("x", 2.5)],
                          header_comments=["units: none"])
        lines = text.splitlines()
        assert lines[0] == "# units: none"
        assert lines[1] == "a,b"
        assert lines[2] == "1,"
        assert lines[3] == "x,2.5"
        assert text.endswith("\n")
