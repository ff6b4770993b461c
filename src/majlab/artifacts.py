"""Serialisation of run artifacts: JSON, opinion files, trial CSVs.

Artifacts must be reproducible byte-for-byte from their embedded
configuration, so JSON is emitted by a small deterministic writer (stable
key order, fixed indentation, floats at 17 significant digits) instead of
relying on ``repr`` shortest-float behaviour.  The one intentionally
non-reproducible value, the generation timestamp, is confined to a single
``generated_at`` field (JSON) or ``# generated_at`` comment line (CSV) so
consumers can strip it before comparing payloads.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import OpinionVector
from .errors import MajlabError, OpinionFormatError

TOOL_NAME = "majlab"


def format_float(x: float) -> str:
    """17-significant-digit decimal form; enough to round-trip any double."""
    if not math.isfinite(x):
        raise MajlabError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _decimal(n: int) -> str:
    """``str(n)`` at any size.  Exact probabilities count over 2^m
    patterns, and at m past about 14,000 the denominator exceeds the
    interpreter's default limit of 4,300 digits for ``str``."""
    if n < 0:
        return "-" + _decimal(-n)
    digits = n.bit_length() * 3 // 10  # at most the digits of n
    if digits < 4000:
        return str(n)
    half = digits // 2
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _int_texts(arr: np.ndarray):
    """``_decimal`` of each value of a 1-D integer array.  When the values
    span fewer integers than there are values, each distinct value's text
    is made once and looked up by ``value - min``."""
    lo, hi = int(arr.min()), int(arr.max())
    if hi - lo >= arr.size:
        return map(_decimal, arr.tolist())
    table = np.array([_decimal(v) for v in range(lo, hi + 1)], dtype=object)
    # int64 and uint64 hold every signed and unsigned value exactly
    wide = arr.astype(np.uint64 if arr.dtype.kind == "u" else np.int64, copy=False)
    return table[wide - wide.dtype.type(lo)].tolist()


def _int_lines(texts, pad: str, inner: str) -> str:
    """A non-empty JSON array of integer texts, one per line."""
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}]"


def _emit(obj, indent: int, out: list[str]) -> None:
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
        if set(map(type, obj)) == {str} and set(map(type, obj.values())) == {int}:
            items = (f"{inner}{json.dumps(k)}: {_decimal(v)}" for k, v in obj.items())
            out.append("{\n" + ",\n".join(items) + f"\n{pad}}}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise MajlabError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {int}:  # bool is not int: it emits below
            out.append(_int_lines(map(_decimal, obj), pad, inner))
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif type(obj) is np.ndarray and obj.ndim == 1 and obj.dtype.kind in "iu":
        out.append(_int_lines(_int_texts(obj), pad, inner) if obj.size else "[]")
    else:
        raise MajlabError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def dumps_json(obj) -> str:
    """Deterministic JSON text (insertion-ordered keys, trailing newline)."""
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out) + "\n"


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def envelope(command: str, config: dict, seed: int | None, result) -> dict:
    """Standard artifact wrapper: tool identity, run config, seed, payload."""
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "config": config,
        "seed": seed,
        "generated_at": utc_timestamp(),
        "result": result,
    }


def load_opinions(path) -> OpinionVector:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OpinionFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise OpinionFormatError(
            f"{path}: opinion file must hold exactly one non-empty line, got {len(lines)}"
        )
    return OpinionVector.from_string(lines[0])


def save_opinions(path, xi: OpinionVector) -> None:
    Path(path).write_text(xi.to_string() + "\n", encoding="utf-8")


def mc_csv_text(comments: list[str], rows: list[tuple[int, int, int]]) -> str:
    """trial,seed,tau rows under ``#`` comment headers."""
    lines = [f"# {c}" for c in comments]
    lines.append("trial,seed,tau")
    lines.extend(f"{trial},{seed},{tau}" for trial, seed, tau in rows)
    return "\n".join(lines) + "\n"
