"""Span tracer that times majlab's layers from outside the package.

``Tracer.install`` wraps every public function and public method of each
layer module (``majlab.<layer>``) and rebinds the wrapper on every majlab
module that imported the name, because the package imports by name
(``from .dynamics import stabilise``): patching only the defining module
would miss the calls made through the other bindings.  Each wrapper records
a span -- name, start, end, parent -- in flat in-memory lists; nothing is
written until the process saves the spans when its command has ended.

``merge`` joins the spans of a pass's commands, and ``layer_metrics`` turns
the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the time its child spans cover;
children of one span run one after another, so that cover is the sum of
their durations.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "trees",
    "treegen",
    "dynamics",
    "bitsliced",
    "worstcase",
    "stability",
    "probe",
    "claims",
    "artifacts",
)

# Accessors that the sweeps call once per vertex or per bit.  A span costs
# about a microsecond, more than these calls themselves, so they stay
# unwrapped and their time counts as self time of the caller.
UNWRAPPED = frozenset(
    {
        "trees.RootedTree.neighbours",
        "trees.RootedTree.children",
        "trees.RootedTree.is_leaf",
        "trees.GraphView.neighbours",
        "dynamics.OpinionVector.sign",
        "dynamics.Trajectory.state",
        "dynamics.StabilisationResult.is_vertex_t_stable",
        "dynamics.StabilisationResult.last_flip_by_parity",
        "bitsliced.BatchRun.flip_col",
        "bitsliced.bit_majority",
        "bitsliced.lowest_bit_index",
        "bitsliced.tt_column",
        "claims.ClaimReport.summary_line",
        "worstcase.CandidatePath.n",
    }
)

class Tracer:
    """Records spans of wrapped majlab calls; one instance per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _wrap(self, fn, name: str, hook=None):
        sid = self._name_id(name)
        span_name, start, end, parent, stack = (
            self.span_name,
            self.start,
            self.end,
            self.parent,
            self._stack,
        )
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them everywhere."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"majlab.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        replaced[id(obj)] = self._wrap(obj, name, HOOKS.get(name))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "majlab" or modname.startswith("majlab.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        # The suites are private functions in a registry dict; each gets a
        # span named ``claims.suite.<name>``.
        registry = importlib.import_module("majlab.claims").ALL_SUITES
        for suite, fn in list(registry.items()):
            registry[suite] = self._wrap(fn, f"claims.suite.{suite}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if name in UNWRAPPED:
                continue
            hook = HOOKS.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, name, hook)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name, hook))

    # -- export -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }


# -- counters ---------------------------------------------------------------
#
# Hooks read counts off arguments and results at the same boundaries the
# spans mark, so each count repeats exactly for a given input.


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _stabilise_hook(counters, args, kwargs, result) -> None:
    host = args[0] if args else kwargs["host"]
    _add(counters, "dynamics.steps", result.steps_executed)
    _add(counters, "dynamics.vertex_steps", result.steps_executed * host.n)


def _batch_step_hook(counters, args, kwargs, result) -> None:
    adj = args[0] if args else kwargs["adj"]
    mask = args[2] if len(args) > 2 else kwargs["mask"]
    _add(counters, "bitsliced.bit_updates", len(adj) * mask.bit_length())


def _json_hook(counters, args, kwargs, result) -> None:
    _add(counters, "artifacts.json_bytes", len(result.encode("utf-8")))


def _verdict_hook(counters, args, kwargs, result) -> None:
    _add(counters, "stability.checked", result.checked)


HOOKS = {
    "dynamics.stabilise": _stabilise_hook,
    "bitsliced.batch_step": _batch_step_hook,
    "artifacts.dumps_json": _json_hook,
    "stability.is_weakly_t_stable": _verdict_hook,
    "stability.is_strongly_t_stable": _verdict_hook,
    "stability.is_le_t_stable": _verdict_hook,
    "stability.is_one_close_to_stability": _verdict_hook,
}


# -- analysis ---------------------------------------------------------------


def merge(parts: list[tuple[list[str], dict[str, np.ndarray]]], names: list[str]) -> dict[str, np.ndarray]:
    """Spans of one pass from the spans of its commands.

    Each command runs in its own process with its own name table; ``names``
    is the table shared by the whole run and grows as new names appear.
    Parent indices are shifted past the spans of the earlier commands.
    """
    ids = {name: i for i, name in enumerate(names)}
    merged = {key: [] for key in ("name", "start", "end", "parent")}
    offset = 0
    for part_names, spans in parts:
        for name in part_names:
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
        remap = np.array([ids[name] for name in part_names] or [0], dtype=np.int32)
        merged["name"].append(remap[spans["name"]])
        merged["start"].append(spans["start"])
        merged["end"].append(spans["end"])
        merged["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1))
        offset += spans["name"].size
    return {key: np.concatenate(arrays) for key, arrays in merged.items()}


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the time covered by its child spans."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def nesting_problems(spans: dict[str, np.ndarray]) -> list[str]:
    """Spans that leave their parent's interval or overlap a sibling."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems = []
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans end before they start")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    outside = (start[child] < start[p]) | (end[child] > end[p])
    if np.any(outside):
        problems.append(f"{int(outside.sum())} spans leave their parent's interval")
    if np.any(parent >= np.arange(parent.size)):
        problems.append("a span's parent was recorded after it")
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    overlap = same & (start[order][1:] < end[order][:-1])
    if np.any(overlap):
        problems.append(f"{int(overlap.sum())} sibling spans overlap")
    return problems


def _covered_by(spans, ids: set[int]) -> float:
    """Time inside spans named in ``ids``, counting nested ones once."""
    name, parent = spans["name"], spans["parent"]
    selected = np.isin(name, list(ids))
    if not selected.any():
        return 0.0
    dur = spans["end"] - spans["start"]
    total = 0.0
    for i in np.flatnonzero(selected):
        p = int(parent[i])
        while p >= 0 and int(name[p]) not in ids:
            p = int(parent[p])
        if p < 0:
            total += float(dur[i])
    return total


def layer_metrics(
    spans: dict[str, np.ndarray],
    names: list[str],
    counters: dict[str, float],
    suites: list[str],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    own = self_times(spans)
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    per_layer = np.bincount(layer_of[spans["name"]], weights=own, minlength=len(LAYERS))
    out = {f"{layer}.self_s": float(per_layer[i]) for i, layer in enumerate(LAYERS)}

    def inclusive(*wanted: str) -> float:
        ids = {names.index(w) for w in wanted if w in names}
        return _covered_by(spans, ids) if ids else 0.0

    out["trees.load_tree_s"] = inclusive("trees.load_tree")
    out["trees.tree_to_text_s"] = inclusive("trees.tree_to_text")
    out["trees.reroot_s"] = inclusive("trees.reroot")
    out["trees.build_perfect_tree_s"] = inclusive("trees.build_perfect_tree")
    out["dynamics.opinion_text_s"] = inclusive(
        "dynamics.OpinionVector.to_string", "dynamics.OpinionVector.from_string"
    )
    out["dynamics.opinion_random_s"] = inclusive("dynamics.OpinionVector.random")
    stabilise_s = inclusive("dynamics.stabilise")
    out["dynamics.stabilise_s"] = stabilise_s
    out["dynamics.steps"] = int(counters.get("dynamics.steps", 0))
    vertex_steps = counters.get("dynamics.vertex_steps", 0)
    out["dynamics.ns_per_vertex_step"] = stabilise_s * 1e9 / vertex_steps if vertex_steps else 0.0
    batch_step = names.index("bitsliced.batch_step") if "bitsliced.batch_step" in names else -1
    out["bitsliced.steps"] = int(np.sum(spans["name"] == batch_step))
    out["bitsliced.bit_updates"] = int(counters.get("bitsliced.bit_updates", 0))
    out["worstcase.worst_case_tau_s"] = inclusive("worstcase.worst_case_tau")
    out["worstcase.brute_force_tau_s"] = inclusive("worstcase.brute_force_tau")
    out["stability.calls"] = _outermost_count(spans, names, "stability.")
    out["stability.checked"] = int(counters.get("stability.checked", 0))
    out["probe.estimate_probability_s"] = inclusive("probe.estimate_probability")
    out["probe.mc_tau_s"] = inclusive("probe.mc_tau")
    for suite in suites:
        out[f"claims.suite_s.{suite}"] = inclusive(f"claims.suite.{suite}")
    out["artifacts.json_bytes"] = int(counters.get("artifacts.json_bytes", 0))
    return out


def _outermost_count(spans, names: list[str], prefix: str) -> int:
    """Spans of a layer whose parent span belongs to another layer."""
    in_layer = np.array([n.startswith(prefix) for n in names], dtype=bool)
    if not in_layer.any() or spans["name"].size == 0:
        return 0
    mine = in_layer[spans["name"]]
    parent = spans["parent"]
    parent_mine = np.zeros_like(mine)
    has_parent = parent >= 0
    parent_mine[has_parent] = mine[parent[has_parent]]
    return int(np.sum(mine & ~parent_mine))
