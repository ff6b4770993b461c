"""Artifact serialization: deterministic JSON, CSV, and opinion files."""

import json
import re
import sys

import numpy as np
import pytest

import majlab
import majlab.artifacts as artifacts
from majlab.artifacts import (
    _decimal,
    dumps_json,
    envelope,
    format_float,
    load_opinions,
    mc_csv_text,
    save_opinions,
    utc_timestamp,
)
from majlab.dynamics import OpinionVector
from majlab.errors import MajlabError, OpinionFormatError


def test_format_float_is_shortest_round_trip():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(15 / 16) == "0.9375"
    assert float(format_float(0.07456477142222867)) == 0.07456477142222867
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(MajlabError):
            format_float(bad)


@pytest.mark.parametrize(
    "obj",
    [
        [True, False, True],
        [1, True, 0, False],
        [-3, 0, 7, -(10**20)],
        [[1, -2], [], [[3]], [4, 5.5]],
        {"flips": list(range(-1, 50)), "empty": [], "one": [9]},
        [1, 2.5, -3, 0.25],
        (6, -6),
    ],
)
def test_dumps_json_lists_match_the_standard_writer(obj):
    # one join writes an all-int list; the bytes stay the item-by-item ones
    assert dumps_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_dumps_json_writes_ints_past_the_digit_limit():
    # exact probabilities on tall subjects have denominators of 2^m, m > 14,000
    values = [2**20000, 1 - 2**16383, 10**4299, 3**40000 + 1]
    texts = [dumps_json({"d": n}) for n in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [f'{{\n  "d": {n}\n}}\n' for n in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_dumps_json_golden():
    assert dumps_json({"a": [1, 2], "b": {}, "c": []}) == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": {},\n  "c": []\n}\n'
    )
    text = dumps_json(
        {"z": 0.1, "a": True, "m": None, "s": 'say "hi"', "nested": {"k": [-3]}}
    )
    assert text.endswith("\n")
    # insertion order is preserved, not sorted
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')
    assert json.loads(text) == {
        "z": 0.1,
        "a": True,
        "m": None,
        "s": 'say "hi"',
        "nested": {"k": [-3]},
    }


def test_dumps_json_rejects_unportable_values():
    with pytest.raises(MajlabError):
        dumps_json({1: "x"})
    with pytest.raises(MajlabError):
        dumps_json({"a": np.int64(3)})
    with pytest.raises(MajlabError):
        dumps_json({"a": float("nan")})
    with pytest.raises(MajlabError):
        dumps_json({"a": object()})


def test_dumps_json_writes_list_ints_past_the_digit_limit():
    # an all-int list, like an int dict value, is written through _decimal
    values = [10**5000, 1, -(2**20000), 3**40000 + 1]
    payloads = [{"a": values}, {"a": [values, [2**14000]]}, values, {"a": values[:1]}]
    texts = [dumps_json(obj) for obj in payloads]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [json.dumps(obj, indent=2) + "\n" for obj in payloads]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value",
    [
        np.int64(3), np.uint8(1), np.bool_(True), np.array(5), np.array([True, False]),
        np.array([1.5, 2.0]), np.zeros((2, 2), dtype=np.int64), np.array([1], dtype=object),
    ],
    ids=["int64", "uint8", "bool_", "0-d", "bool-array", "float-array", "2-d", "object-array"],
)
def test_dumps_json_refuses_numpy_scalars_and_non_integer_arrays(value):
    with pytest.raises(MajlabError):
        dumps_json({"a": value})
    with pytest.raises(MajlabError):
        dumps_json([value])


def test_dumps_json_refuses_a_non_string_key_of_an_int_dict():
    with pytest.raises(MajlabError, match="keys must be strings"):
        dumps_json({"a": 1, 2: 3})


# -- differential test against the item-by-item writer -------------------------


def _oracle_emit(obj, indent, out):
    """The writer as it was before integer arrays and the one-join dict:
    every value but an all-int list is emitted item by item."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(_decimal(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise MajlabError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _oracle_emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(type(value) is int for value in obj):
            out.append(f"[\n{inner}" + f",\n{inner}".join(map(str, obj)) + f"\n{pad}]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _oracle_emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise MajlabError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _as_lists(obj):
    """The payload with every array replaced by its list of Python ints."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(value) for value in obj]
    return obj


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _random_int_array(rng):
    dtype = np.dtype(INT_DTYPES[rng.integers(len(INT_DTYPES))])
    info = np.iinfo(dtype)
    size = int(rng.choice([0, 1, 2, 5, 40, 300]))
    shape = rng.integers(4)
    if shape == 0:  # anywhere in the dtype's range: the span exceeds the length
        arr = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
    elif shape == 1:  # a few values near a random centre: one text per value
        centre = int(rng.integers(info.min, info.max, dtype=dtype, endpoint=True))
        low, high = max(info.min, centre - 3), min(info.max, centre + 3)
        arr = rng.integers(low, high, size, dtype=dtype, endpoint=True)
    elif shape == 2:  # both ends of the dtype, the span equal to, or below, the length
        ends = np.array([info.min, info.max, 0, 1], dtype=dtype)
        arr = ends[rng.integers(4, size=size)]
        if dtype.itemsize == 1 and size:
            arr = np.concatenate([np.arange(info.min, info.max + 1, dtype=dtype), arr])
    else:  # a strided view in the other byte order
        arr = rng.integers(info.min, info.max, 2 * size, dtype=dtype, endpoint=True)
        arr = arr.astype(dtype.newbyteorder())[::2]
    return arr


def _random_payload(rng, depth=0):
    kinds = ["array", "int-list", "int", "bool", "float", "int-dict", "str"]
    if depth < 2:
        kinds += ["list", "dict"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "array":
        return _random_int_array(rng)
    if kind == "int-list":
        return [int(v) for v in rng.integers(-(10**12), 10**12, int(rng.integers(6)))]
    if kind == "int":
        return int(rng.integers(-(2**62), 2**62)) * int(rng.choice([1, 2**70]))
    if kind == "bool":
        return bool(rng.integers(2))
    if kind == "float":
        return float(rng.normal()) * 10.0 ** int(rng.integers(-5, 6))
    if kind == "int-dict":
        return {str(v): int(v) * int(rng.choice([-1, 1, 10**30])) for v in rng.integers(0, 99, int(rng.integers(5)))}
    if kind == "str":
        return "s" + "\u00e9" * int(rng.integers(3)) + '"'
    count = int(rng.integers(5))
    if kind == "list":
        return [_random_payload(rng, depth + 1) for _ in range(count)]
    return {f"k{i}": _random_payload(rng, depth + 1) for i in range(count)}


def test_dumps_json_matches_the_item_by_item_writer():
    rng = np.random.default_rng(27)
    for _ in range(3000):
        obj = _random_payload(rng)
        want = []
        _oracle_emit(_as_lists(obj), 0, want)
        assert dumps_json(obj) == "".join(want) + "\n"


def test_int_arrays_format_each_distinct_value_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return decimal(n)

    decimal = artifacts._decimal
    monkeypatch.setattr(artifacts, "_decimal", counted)
    flips = np.arange(50_000) % 7 - 1
    text = dumps_json({"first_flip": flips})
    assert sorted(calls) == [-1, 0, 1, 1, 2, 3, 4, 5]  # -1 writes "-" + _decimal(1)
    assert text == json.dumps({"first_flip": flips.tolist()}, indent=2) + "\n"
    del calls[:]
    spread = np.arange(0, 20, 3, dtype=np.uint64) + np.uint64(2**63)
    assert dumps_json(spread) == json.dumps(spread.tolist(), indent=2) + "\n"
    assert calls == spread.tolist()


def test_envelope_shape():
    env = envelope("simulate", {"command": "simulate", "tree": "t.txt"}, 5, {"tau": 1})
    assert list(env) == ["tool", "command", "config", "seed", "generated_at", "result"]
    assert env["tool"] == {"name": "majlab", "version": majlab.__version__}
    assert env["command"] == "simulate"
    assert env["seed"] == 5
    assert env["result"] == {"tau": 1}
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", env["generated_at"])
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", utc_timestamp())


def test_mc_csv_golden():
    assert mc_csv_text(["x 1"], [(0, 5, 3), (1, 6, 2)]) == (
        "# x 1\ntrial,seed,tau\n0,5,3\n1,6,2\n"
    )


def test_opinions_round_trip(tmp_path):
    path = tmp_path / "xi.txt"
    xi = OpinionVector.from_string("+-+-++")
    save_opinions(path, xi)
    assert load_opinions(path) == xi

    (tmp_path / "two.txt").write_text("+-+\n-+-\n", encoding="utf-8")
    with pytest.raises(OpinionFormatError):
        load_opinions(tmp_path / "two.txt")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    with pytest.raises(OpinionFormatError):
        load_opinions(tmp_path / "empty.txt")
    (tmp_path / "bad.txt").write_text("+0-\n", encoding="utf-8")
    with pytest.raises(MajlabError):
        load_opinions(tmp_path / "bad.txt")
