"""Deterministic serialization: 17-digit round trips, JSON validity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from incevolkov.serialize import _escape, dumps_json, format_number, render_csv


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
                                       (2, 3, 4)])
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
