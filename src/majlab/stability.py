"""Local stability of a vertex under adversarial opinions outside its subtree.

All predicates here quantify over *extensions* of an initial opinion
vector: assignments that agree with it on the subtree of the vertex
under test but are arbitrary elsewhere.  A vertex is

* weakly t-stable when at least one extension keeps its time-t opinion
  fixed at every later time of the same parity,
* strongly t-stable when every extension does,
* (<= t)-stable when under every extension the opinion at times of t's
  parity is already constant up to t, and
* 1-close to stability when under every extension the first flip, if
  any, lands it in a weakly stable position at the time of the flip.

Weak stability is decided without enumeration: it suffices to run the
canonical extension that pads everything outside the subtree with the
vertex's own time-t opinion.  The universal predicates lean on
monotonicity of the dynamics: the all-negative and all-positive
extensions bound every other one pointwise at every time, which decides
(<= t)-stability outright and strong t-stability in all but one case —
extremes that are both t-stable but settle the vertex at opposite
parity-t opinions pin nothing in between, and only then does the
decision fall back to enumerating all extensions, the lanes of one
bit-sliced run laid out once per subject (``bitsliced._Extensions``),
subject to a budget.

Each predicate has one implementation: the private layer below decides
it for a batch of patterns on ``BatchRun``, one bit per pattern, for the
enumerating deciders here and for the estimates in ``probe``; a scalar
query is a batch of width one.  Its extreme and canonical runs fill the
whole outside with one constant per trajectory, which then never
changes, so they step only the subtree and the vertex's pinned parent
(``_PinnedSubtree``); the (<= t) runs step only the subtree's top t
levels, the rest pinned, since nothing deeper reaches the vertex by
time t.  Weak t-stability steps its time-t state on the light cone
alone: the subtree and the outside within t - 1 of the vertex's parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsliced import (
    EXTENSION_BUDGET,
    BatchRun,
    _Extensions,
    lowest_bit_index,
    pack_bit_rows,
)
from .dynamics import OpinionVector, _check_length, step_budget
from .errors import BadHostError, BadTimeError, BadVertexError
from .trees import RootedTree, _walk


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability query.

    ``certificate`` is an extension vector: a witness when an existential
    query succeeds, a counterexample when a universal one fails, and
    ``None`` otherwise.  ``checked`` counts the extensions examined.  The
    fields are the ``stability`` artifact's ``result`` keys, then ``init``.
    """

    kind: str
    vertex: int
    t: int | None
    verdict: bool
    method: str
    certificate: OpinionVector | None
    checked: int


def _check_query(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int | None,
    *, leaf: bool, binary: bool, least: int | None,
) -> None:
    """Every decider's input checks, in one order: the vertex (never the
    root, a leaf only if ``leaf``), the host (a binary tree whose root has
    three children, if ``binary``), t (at least ``least``, unless that is
    None) and the length of ``xi0``."""
    if not 0 <= v < tree.n:
        raise BadVertexError(f"vertex {v} out of range for {tree.n} vertices")
    if v == tree.root:
        raise BadVertexError("stability of the root is not defined")
    if not leaf and tree.is_leaf(v):
        raise BadVertexError(f"vertex {v} is a leaf")
    if binary:
        kids = tree.degree - (tree.parent >= 0)
        # 3 & ~2 is the one nonzero entry when every other vertex has 0 or 2
        if kids[tree.root] != 3 or np.count_nonzero(kids & ~2) != 1:
            raise BadHostError("host must be a binary tree whose root has three children")
    if least is not None and t < least:
        raise BadTimeError(f"t must be >= {least}, got {t}")
    _check_length(tree, xi0)


def _columns(signs: np.ndarray) -> list[int]:
    """One width-one column per vertex: 1 for +1, 0 for -1."""
    return (signs > 0).view(np.uint8).tolist()


def is_weakly_t_stable(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int
) -> StabilityVerdict:
    """Decide weak t-stability of ``v`` via the canonical extension.

    Padding the outside of the subtree with the vertex's own time-t
    opinion is the most favourable extension, so running just that one
    trajectory decides the existential question exactly.
    """
    _check_query(tree, xi0, v, t, leaf=True, binary=True, least=0)
    sub = _PinnedSubtree(tree, v, reach=max(t - 1, 0))
    state = xi0.to_signs()
    cols = _columns(state)
    _step_subtree(sub, cols, 1, t)
    state[sub.ids] = [2 * cols[u] - 1 for u in sub.ids]  # the subtree at time t
    return StabilityVerdict(
        kind="weak",
        vertex=v,
        t=t,
        verdict=_weak_ok_bits(sub, cols, 1) == 1,
        method="canonical",
        certificate=sub.extension(state, state[v]),
        checked=1,
    )


# -- the batched predicate layer: bit j of every column is one trajectory ----


def _late_flips(run: BatchRun, v: int, t: int) -> int:
    """Trajectories in which ``v`` flips at some time >= t + 2 of t's parity.

    Runs the batch to its end: every trajectory is 2-periodic from then
    on (Goles & Olivos, 1980), so no later flip exists.
    """
    parity = t & 1
    flips = 0
    while run.changing:
        run.advance()
        if run.t >= t + 2 and (run.t & 1) == parity:
            flips |= run.flip_col(v)
    return flips


def _changed_by(run: BatchRun, v: int, t: int) -> int:
    """Trajectories in which ``v`` holds two opinions at times of t's
    parity up to t.  Stops early once every trajectory is 2-periodic."""
    if t & 1:
        run.advance()
    first, changed = run.cols[v], 0
    while run.t < t and run.changing:
        run.advance()
        if not (run.t ^ t) & 1:
            changed |= run.cols[v] ^ first
    return changed


def _verdict(
    ext: _Extensions, kind: str, t: int | None, violations: int, pattern: int, checked: int
) -> StabilityVerdict:
    """Verdict of a universal query over every extension of ``pattern``,
    lane i of ``violations`` standing for extension i: it holds when no
    lane is set, and the lowest set lane is the counterexample."""
    cert = ext.vector(pattern, lowest_bit_index(violations)) if violations else None
    return StabilityVerdict(kind, ext.ids[0], t, not violations, "brute-force", cert, checked)


def _one_close_violations(run: BatchRun, sub: _PinnedSubtree) -> int:
    """Lanes of a host-wide ``run`` whose first even-time flip of the
    subject of ``sub`` leaves it not weakly stable."""
    v, mask = sub.ids[0], run.mask
    flipped = violations = 0
    while run.changing:
        run.advance()
        if run.t & 1:
            continue
        newly = run.flip_col(v) & ~flipped & mask
        flipped |= newly
        if newly:
            violations |= newly & ~_weak_ok_bits(sub, run.cols, mask)
    return violations


class _PinnedSubtree:
    """The subtree of ``v`` (``ids``, in BFS order; v is vertex 0 of the
    runs) plus the vertices outside it within ``reach`` of v's parent p
    (``outside``, p first; none for a root subject): two ``trees._walk``
    calls, from v away from p and from p away from v, joined by the v-p
    edge.  Every vertex with neighbours beyond these is pinned: its
    neighbour list is itself, so it holds its start where the host would
    move it, and the difference travels one edge a step.

    A run whose outside starts at one constant per trajectory (the
    extreme and canonical extensions) is exact at every time: every
    outside vertex other than p has only outside neighbours, and a p of
    degree d >= 3 has d - 1 >= (d + 1) / 2 of them, so the whole outside
    keeps its fill.  A p of degree 1 has v as its only neighbour and
    copies it.  ``depth`` cuts the subtree that far below v, and such a
    run stays exact at v up to time ``depth``: the light cone of
    (<= t)-stability at t = depth.

    A run from the host's own start everywhere is exact on the subtree up
    to time ``reach`` + 1: the light cone of the time-t state that weak
    t-stability reads, at t = reach + 1.  Runs keep the whole host's
    abort bound.
    """

    def __init__(
        self, tree: RootedTree, v: int, depth: int | None = None, reach: int = 0
    ):
        p = int(tree.parent[v])
        ids, adj = _walk(tree, v, p, depth)
        outside = []
        if p >= 0:
            adj[0].append(len(ids))
            outside, ball = _walk(tree, p, v, reach, first=len(ids), back=0)
            adj += ball
        self.tree, self.ids, self.outside, self.adj = tree, ids, outside, adj
        self.steps = step_budget(tree)

    def run(self, cols: list[int], mask: int, fill: int | None = None) -> BatchRun:
        """``cols`` (one per host vertex) on the subtree, and outside it
        ``fill``, or their own entries when no fill is given."""
        start = [cols[u] for u in self.ids]
        if fill is None:
            start += [cols[u] for u in self.outside]
        else:
            start += [fill] * len(self.outside)
        return BatchRun(self.adj, start, mask, self.steps)

    def extension(self, signs: np.ndarray, fill: int) -> OpinionVector:
        """``signs`` on the subtree, ``fill`` outside: the extension that a
        width-one run with that fill steps."""
        ext = np.full(signs.size, fill, dtype=np.int8)
        ext[self.ids] = signs[self.ids]
        return OpinionVector(ext)


def _step_subtree(sub: _PinnedSubtree, cols: list[int], mask: int, t: int) -> None:
    """Set the subtree entries of ``cols`` to their time-t state, stepped
    on the light cone ``sub`` of reach t - 1."""
    run = sub.run(cols, mask)
    while run.t < t and run.changing:
        run.advance()
    if (run.t ^ t) & 1:
        run.advance()
    for u, col in zip(sub.ids, run.cols):
        cols[u] = col


def _weak_ok_bits(sub: _PinnedSubtree, cols: list[int], mask: int) -> int:
    """Bits whose state ``cols`` leaves the subject of ``sub`` weakly
    0-stable.

    Runs the canonical extension of every trajectory at once: inside the
    subtree the state is kept, outside it is replaced by the subject's
    opinion.
    """
    side = sub.run(cols, mask, cols[sub.ids[0]])
    return mask & ~_late_flips(side, 0, 0)


def _extremes(
    sub: _PinnedSubtree, cols: list[int], mask: int, t: int
) -> tuple[int, int, int]:
    """(late flips under the all-minus extension, the same under the
    all-plus one, pending bits) for strong t-stability of each pattern.

    A flip in either extreme is a counterexample.  When both extremes
    hold the subject t-stable and settle it at the same parity-t opinion,
    every other extension is sandwiched between two equal constants from
    time t on and the pattern is stable.  Opposite settled opinions pin
    nothing: those patterns are pending.
    """
    flips, settled = [], []
    for fill in (0, mask):
        run = sub.run(cols, mask, fill)
        flips.append(_late_flips(run, 0, t))
        if (run.t ^ t) & 1:
            run.advance()
        settled.append(run.cols[0])
    low, high = flips
    return low, high, mask & ~(low | high) & (settled[0] ^ settled[1])


def _strong_ok_bits(
    sub: _PinnedSubtree,
    cols: list[int],
    mask: int,
    t: int,
    budget: int,
    verdicts: dict[int, bool] | None = None,
) -> tuple[int, int]:
    """(stable bits, pending bits) for strong t-stability of each pattern
    at the subject of ``sub``, the subtree with its pinned parent.

    Only the subtree entries of ``cols`` are read.  The extreme extensions
    decide almost every pattern (see ``_extremes``).  Pending bits are
    split by their subtree pattern, one subtree column at a time, and
    each pattern is re-decided once by enumerating its extensions, as
    ``is_strongly_t_stable`` does; they stay pending when 2^(outside)
    exceeds the budget.  ``verdicts`` maps each pattern enumerated so far
    to its verdict, so calls that share it enumerate each pattern once.
    """
    low, high, pending = _extremes(sub, cols, mask, t)
    ok = mask & ~(low | high) & ~pending
    ids = sub.ids
    if not pending or 1 << (sub.tree.n - len(ids)) > budget:
        return ok, pending
    ext = None
    verdicts = {} if verdicts is None else verdicts
    # depth first, so only one group per subtree column is held at a time
    stack = [(pending, 0, 0)]  # (bits, their pattern on ids[:j], j)
    while stack:
        bits, key, j = stack.pop()
        if j == len(ids):
            if key not in verdicts:
                if ext is None:
                    ext = _Extensions(sub.tree, ids, budget)
                verdicts[key] = not _late_flips(ext.run(key), ids[0], t)
            if verdicts[key]:
                ok |= bits
            continue
        on = bits & cols[ids[j]]
        for part, k in ((bits ^ on, key), (on, key | 1 << j)):
            if part:
                stack.append((part, k, j + 1))
    return ok, 0


def _le_t_ok_bits(sub: _PinnedSubtree, cols: list[int], mask: int, t: int) -> int:
    """Bits whose pattern is (<= t)-stable at the subject of ``sub``, for
    even t; ``sub`` may be cut at depth t, its light cone.

    Only the ``sub.ids`` entries of ``cols`` are read.  The time-0 opinion
    of the subject is shared by all extensions, so constancy under both
    extreme extensions pins every other one.
    """
    verdict = mask
    for fill in (0, mask):
        verdict &= ~_changed_by(sub.run(cols, mask, fill), 0, t)
    return verdict


def is_strongly_t_stable(
    tree: RootedTree,
    xi0: OpinionVector,
    v: int,
    t: int,
    budget: int = EXTENSION_BUDGET,
) -> StabilityVerdict:
    """Decide strong t-stability of ``v``: every extension keeps it t-stable.

    The two extreme extensions decide almost every instance (see
    ``_extremes``); only when they settle ``v`` at opposite parity-t
    opinions are all extensions enumerated.  The budget applies to the
    enumeration alone, so conclusive fast-path verdicts work on hosts far
    beyond enumerable size.
    """
    _check_query(tree, xi0, v, t, leaf=False, binary=True, least=0)
    base = xi0.to_signs()
    sub = _PinnedSubtree(tree, v)
    low, high, pending = _extremes(sub, _columns(base), 1, t)
    if not pending:
        bad = low | high
        return StabilityVerdict(
            kind="strong",
            vertex=v,
            t=t,
            verdict=not bad,
            method="extremes",
            certificate=sub.extension(base, -1 if low else 1) if bad else None,
            checked=2,
        )
    ext = _Extensions(tree, sub.ids, budget)
    pattern = pack_bit_rows([base[sub.ids] > 0])[0]
    flips = _late_flips(ext.run(pattern), v, t)
    return _verdict(ext, "strong", t, flips, pattern, 2 + ext.width)


def is_le_t_stable(
    tree: RootedTree,
    xi0: OpinionVector,
    v: int,
    t: int,
    budget: int = EXTENSION_BUDGET,
) -> StabilityVerdict:
    """Decide (<= t)-stability: every extension keeps the opinion of ``v``
    constant over times of t's parity up to and including t."""
    _check_query(tree, xi0, v, t, leaf=True, binary=False, least=2)
    ids = _walk(tree, v, int(tree.parent[v]))[0]
    ext = _Extensions(tree, ids, budget)
    pattern = pack_bit_rows([xi0.to_signs()[ids] > 0])[0]
    changed = _changed_by(ext.run(pattern), v, t)
    return _verdict(ext, "le_t", t, changed, pattern, ext.width)


def is_one_close_to_stability(
    tree: RootedTree,
    xi0: OpinionVector,
    v: int,
    budget: int = EXTENSION_BUDGET,
) -> StabilityVerdict:
    """Decide whether ``v`` is 1-close to stability.

    Under every extension, if the even-time opinion of ``v`` ever flips,
    the first flip (at time s, say) must leave the vertex weakly s-stable
    with respect to the extension's trajectory.  Extensions that never
    flip satisfy the condition vacuously.
    """
    _check_query(tree, xi0, v, None, leaf=False, binary=True, least=None)
    sub = _PinnedSubtree(tree, v)
    ext = _Extensions(tree, sub.ids, budget)
    pattern = pack_bit_rows([xi0.to_signs()[sub.ids] > 0])[0]
    violations = _one_close_violations(ext.run(pattern), sub)
    return _verdict(ext, "one_close", None, violations, pattern, ext.width)


def strong_t_stable_extreme_runs(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int
) -> bool | None:
    """Strong t-stability from the two extreme extensions alone.

    Returns False when an extreme flips ``v`` after ``t`` at t's parity
    (the extreme is itself a counterexample), True when both extremes hold
    ``v`` t-stable and settle it at the same parity-t opinion (every other
    extension is pinned in between), and None when the extremes settle at
    opposite opinions, which they alone cannot decide.
    """
    _check_query(tree, xi0, v, t, leaf=False, binary=True, least=0)
    sub = _PinnedSubtree(tree, v)
    low, high, pending = _extremes(sub, _columns(xi0.to_signs()), 1, t)
    return None if pending else not (low | high)


def le_t_stable_extreme_runs(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int
) -> bool:
    """(<= t)-stability decided from the two extreme extensions (even t).

    For even t the time-0 opinion of ``v`` is shared by all extensions,
    so constancy of both extreme trajectories pins every other one.
    """
    _check_query(tree, xi0, v, t, leaf=True, binary=False, least=2)
    if t & 1:
        raise BadTimeError(f"extreme-run (<=t)-stability needs an even t, got {t}")
    sub = _PinnedSubtree(tree, v, depth=t)
    return _le_t_ok_bits(sub, _columns(xi0.to_signs()), 1, t) == 1
