"""Artifact serialization: deterministic JSON, CSV, and opinion files."""

import json
import re
import sys

import numpy as np
import pytest

import majlab
from majlab.artifacts import (
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
