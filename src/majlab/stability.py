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
decision fall back to enumerating all extensions with the bit-sliced
engine, subject to a budget.

Single-trajectory fast paths run on the int8 engine of ``dynamics``,
which stays fast on large hosts.  Batches run on ``BatchRun``: the
private layer below decides each predicate for a batch of patterns, for
the enumerating deciders here and for the estimates in ``probe``.  Its
extreme and canonical runs fill the whole outside with one constant per
trajectory, which then never changes, so they step only the subtree and
the vertex's pinned parent (``_PinnedSubtree``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitsliced import BatchRun, lowest_bit_index, tt_column
from .dynamics import (
    OpinionVector,
    _check_length,
    _step_signs,
    stabilise,
    step_budget,
)
from .errors import BadHostError, BadTimeError, BadVertexError, BudgetExceededError
from .trees import RootedTree

__all__ = [
    "StabilityVerdict",
    "EXTENSION_BUDGET",
    "is_weakly_t_stable",
    "is_strongly_t_stable",
    "is_le_t_stable",
    "is_one_close_to_stability",
    "strong_t_stable_extreme_runs",
    "le_t_stable_extreme_runs",
]

EXTENSION_BUDGET = 1 << 20


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability query.

    ``certificate`` is an extension vector: a witness when an existential
    query succeeds, a counterexample when a universal one fails, and
    ``None`` otherwise.  ``checked`` counts the extensions examined.
    """

    kind: str
    vertex: int
    t: int | None
    verdict: bool
    method: str
    certificate: OpinionVector | None
    checked: int


def _check_vertex(tree: RootedTree, v: int, *, forbid_leaf: bool) -> None:
    if not 0 <= v < tree.n:
        raise BadVertexError(f"vertex {v} out of range for {tree.n} vertices")
    if v == tree.root:
        raise BadVertexError("stability of the root is not defined")
    if forbid_leaf and tree.is_leaf(v):
        raise BadVertexError(f"vertex {v} is a leaf")


def _check_binary_host(tree: RootedTree) -> None:
    for v in range(tree.n):
        k = len(tree.children(v))
        want = 3 if v == tree.root else (0, 2)
        ok = k == want if v == tree.root else k in want
        if not ok:
            raise BadHostError(
                "host must be a binary tree whose root has three children"
            )


def _state_at(tree: RootedTree, xi0: OpinionVector, t: int) -> np.ndarray:
    signs = xi0.to_signs()
    for _ in range(t):
        signs = _step_signs(tree, signs)
    return signs


def _canonical_extension(tree: RootedTree, state: np.ndarray, v: int) -> np.ndarray:
    inside = tree.subtree_mask(v)
    return np.where(inside, state, state[v]).astype(np.int8)


def is_weakly_t_stable(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int
) -> StabilityVerdict:
    """Decide weak t-stability of ``v`` via the canonical extension.

    Padding the outside of the subtree with the vertex's own time-t
    opinion is the most favourable extension, so running just that one
    trajectory decides the existential question exactly.
    """
    _check_vertex(tree, v, forbid_leaf=False)
    _check_binary_host(tree)
    if t < 0:
        raise BadTimeError(f"t must be non-negative, got {t}")
    _check_length(tree, xi0)
    canonical = _canonical_extension(tree, _state_at(tree, xi0, t), v)
    result = stabilise(tree, OpinionVector.from_signs(canonical))
    ok = bool(result.last_flip_even[v] <= 0)
    return StabilityVerdict(
        kind="weak",
        vertex=v,
        t=t,
        verdict=ok,
        method="canonical",
        certificate=OpinionVector.from_signs(canonical),
        checked=1,
    )


def _extension_batch(
    tree: RootedTree, base: np.ndarray, v: int, budget: int
) -> tuple[np.ndarray, int, int, list[int]]:
    inside = tree.subtree_mask(v)
    free = np.flatnonzero(~inside)
    m = int(free.size)
    if 1 << m > budget:
        raise BudgetExceededError(
            f"2^{m} extensions exceed the enumeration budget {budget}"
        )
    width = 1 << m
    mask = (1 << width) - 1
    cols = [0] * tree.n
    for u in np.flatnonzero(inside):
        cols[int(u)] = mask if base[u] > 0 else 0
    for i, u in enumerate(free):
        cols[int(u)] = tt_column(i, m)
    return free, width, mask, cols


def _extension_vector(
    base: np.ndarray, free: np.ndarray | list[int], index: int
) -> OpinionVector:
    """``base`` with ``free[i]`` set from bit i of ``index``: one extension,
    or one subtree pattern when ``free`` is the subtree."""
    signs = base.copy()
    for i, u in enumerate(free):
        signs[u] = 1 if (index >> i) & 1 else -1
    return OpinionVector.from_signs(signs)


# -- the batched predicate layer: bit j of every column is one trajectory ----


def _late_flips(run: BatchRun, v: int, t: int) -> int:
    """Trajectories in which ``v`` flips at some time >= t + 2 of t's parity.

    Runs the batch to its end: every trajectory is 2-periodic from then
    on (Goles & Olivos, 1980), so no later flip exists.
    """
    parity = t & 1
    flips = 0
    while run.undecided:
        run.advance()
        if run.t >= t + 2 and (run.t & 1) == parity:
            flips |= run.flip_col(v)
    return flips


def _enumerated_flips(
    tree: RootedTree, base: np.ndarray, v: int, t: int, budget: int
) -> tuple[int, np.ndarray, int]:
    """Late flips of ``v`` over every extension of ``base``: (flip bits,
    free vertices, number of extensions)."""
    free, width, mask, cols = _extension_batch(tree, base, v, budget)
    return _late_flips(BatchRun(tree, cols, mask), v, t), free, width


class _PinnedSubtree:
    """The subtree of ``v`` plus v's parent p, for runs whose outside
    starts at one constant per trajectory (the extreme and canonical
    extensions).

    Every outside vertex other than p has only outside neighbours, and a
    p of degree d >= 3 has d - 1 >= (d + 1) / 2 of them, so the whole
    outside keeps its fill at every time: the run is exactly the subtree
    plus a pinned p, whose neighbour list is p itself.  A p of degree 1
    has v as its only neighbour and copies it; a root subject has no p.
    Runs keep the whole host's abort bound.  Built once per predicate
    call from the child CSR; v is vertex 0 of the runs.
    """

    def __init__(self, tree: RootedTree, v: int):
        ids, adj = [v], [[]]
        for i, u in enumerate(ids):  # BFS from v; the list grows while read
            for c in tree.children(u).tolist():
                adj[i].append(len(ids))
                adj.append([i])
                ids.append(c)
        p = int(tree.parent[v])
        self.pinned = p >= 0
        if self.pinned:
            adj[0].append(len(ids))
            adj.append([len(ids)] if tree.degree[p] > 1 else [0])
        self.ids, self.adj = ids, adj
        self.limit = step_budget(tree) + 2

    def run(self, cols: list[int], mask: int, fill: int) -> BatchRun:
        """``cols`` (one per host vertex) on the subtree, ``fill`` outside."""
        sub = [cols[u] for u in self.ids]
        if self.pinned:
            sub.append(fill)
        return BatchRun.over(self.adj, sub, mask, self.limit)


def _weak_ok_bits(tree: RootedTree, cols: list[int], mask: int, v: int) -> int:
    """Bits whose state ``cols`` leaves ``v`` weakly 0-stable.

    Runs the canonical extension of every trajectory at once: inside the
    subtree the state is kept, outside it is replaced by the opinion of
    ``v``.
    """
    side = _PinnedSubtree(tree, v).run(cols, mask, cols[v])
    return mask & ~_late_flips(side, 0, 0)


def _strong_ok_bits(
    tree: RootedTree, cols: list[int], mask: int, v: int, t: int, budget: int
) -> tuple[int, int]:
    """(stable bits, pending bits) for strong t-stability of each pattern.

    Only the subtree entries of ``cols`` are read.  The extreme extensions
    decide almost every pattern (see ``_extreme_strong``).  Patterns whose
    extremes settle ``v`` at opposite opinions are re-decided by
    enumerating their extensions, as ``is_strongly_t_stable`` does, or
    left pending when 2^(outside) exceeds the budget.
    """
    sub = _PinnedSubtree(tree, v)
    bad = 0
    settled = []
    for fill in (0, mask):
        run = sub.run(cols, mask, fill)
        bad |= _late_flips(run, 0, t)
        if (run.t ^ t) & 1:
            run.advance()
        settled.append(run.cols[0])
    pending = mask & ~bad & (settled[0] ^ settled[1])
    ok = mask & ~bad & ~pending
    ids = sub.ids
    if not pending or 1 << (tree.n - len(ids)) > budget:
        return ok, pending
    ones = np.ones(tree.n, dtype=np.int8)
    verdicts: dict[int, bool] = {}
    while pending:
        bit = lowest_bit_index(pending)
        pending &= pending - 1
        key = sum(((cols[u] >> bit) & 1) << j for j, u in enumerate(ids))
        if key not in verdicts:
            base = _extension_vector(ones, ids, key).to_signs()
            verdicts[key] = not _enumerated_flips(tree, base, v, t, budget)[0]
        if verdicts[key]:
            ok |= 1 << bit
    return ok, 0


def _le_t_ok_bits(
    tree: RootedTree, cols: list[int], mask: int, v: int, t: int
) -> int:
    """Bits whose pattern is (<= t)-stable at ``v``, for even t.

    Only the subtree entries of ``cols`` are read.  The time-0 opinion of
    ``v`` is shared by all extensions, so constancy under both extreme
    extensions pins every other one.
    """
    sub = _PinnedSubtree(tree, v)
    verdict = mask
    for fill in (0, mask):
        run = sub.run(cols, mask, fill)
        start = run.cols[0]
        diff = 0
        while run.t < t and run.undecided:
            run.advance()
            if (run.t & 1) == 0:
                diff |= run.cols[0] ^ start
        verdict &= mask & ~diff
    return verdict


def _extreme_strong(
    tree: RootedTree, base: np.ndarray, v: int, t: int
) -> tuple[bool | None, OpinionVector | None]:
    """Verdict from the two extreme extensions, or None when inconclusive.

    A flip in either extreme is a counterexample.  When both extremes hold
    ``v`` t-stable and settle it at the same parity-t opinion, every other
    extension is sandwiched between two equal constants from time t on and
    the verdict is true.  Opposite settled opinions pin nothing.
    """
    inside = tree.subtree_mask(v)
    parity = t & 1
    settled = []
    for fill in (-1, 1):
        xi = OpinionVector.from_signs(np.where(inside, base, fill).astype(np.int8))
        res = stabilise(tree, xi)
        if not res.is_vertex_t_stable(v, t):
            return False, xi
        tail = res.stable_odd if parity else res.stable_even
        settled.append(tail.sign(v))
    if settled[0] == settled[1]:
        return True, None
    return None, None


def is_strongly_t_stable(
    tree: RootedTree,
    xi0: OpinionVector,
    v: int,
    t: int,
    budget: int = EXTENSION_BUDGET,
) -> StabilityVerdict:
    """Decide strong t-stability of ``v``: every extension keeps it t-stable.

    The two extreme extensions decide almost every instance (see
    ``_extreme_strong``); only when they settle ``v`` at opposite parity-t
    opinions are all extensions enumerated.  The budget applies to the
    enumeration alone, so conclusive fast-path verdicts work on hosts far
    beyond enumerable size.
    """
    _check_vertex(tree, v, forbid_leaf=True)
    _check_binary_host(tree)
    if t < 0:
        raise BadTimeError(f"t must be non-negative, got {t}")
    _check_length(tree, xi0)
    base = xi0.to_signs()
    fast, extreme_cert = _extreme_strong(tree, base, v, t)
    if fast is not None:
        return StabilityVerdict(
            kind="strong",
            vertex=v,
            t=t,
            verdict=fast,
            method="extremes",
            certificate=extreme_cert,
            checked=2,
        )
    flips, free, width = _enumerated_flips(tree, base, v, t, budget)
    bad = lowest_bit_index(flips) if flips else -1
    return StabilityVerdict(
        kind="strong",
        vertex=v,
        t=t,
        verdict=flips == 0,
        method="brute-force",
        certificate=None if bad < 0 else _extension_vector(base, free, bad),
        checked=2 + width,
    )


def is_le_t_stable(
    tree: RootedTree,
    xi0: OpinionVector,
    v: int,
    t: int,
    budget: int = EXTENSION_BUDGET,
) -> StabilityVerdict:
    """Decide (<= t)-stability: every extension keeps the opinion of ``v``
    constant over times of t's parity up to and including t."""
    _check_vertex(tree, v, forbid_leaf=False)
    if t < 2:
        raise BadTimeError(f"(<=t)-stability needs t >= 2, got {t}")
    _check_length(tree, xi0)
    base = xi0.to_signs()
    free, width, mask, cols = _extension_batch(tree, base, v, budget)
    run = BatchRun(tree, cols, mask)
    parity = t & 1
    captured = [run.cols[v]] if parity == 0 else []
    while run.t < t and run.undecided:
        run.advance()
        if (run.t & 1) == parity:
            captured.append(run.cols[v])
    reference = captured[-1]
    violations = 0
    for col in captured[:-1]:
        violations |= col ^ reference
    bad = lowest_bit_index(violations) if violations else -1
    return StabilityVerdict(
        kind="le_t",
        vertex=v,
        t=t,
        verdict=violations == 0,
        method="brute-force",
        certificate=None if bad < 0 else _extension_vector(base, free, bad),
        checked=width,
    )


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
    _check_vertex(tree, v, forbid_leaf=True)
    _check_binary_host(tree)
    _check_length(tree, xi0)
    base = xi0.to_signs()
    free, width, mask, cols = _extension_batch(tree, base, v, budget)
    run = BatchRun(tree, cols, mask)
    flipped = 0
    violations = 0
    while run.undecided:
        run.advance()
        if run.t & 1:
            continue
        newly = run.flip_col(v) & ~flipped & mask
        flipped |= newly
        if newly:
            violations |= newly & ~_weak_ok_bits(tree, run.cols, mask, v)
    bad = lowest_bit_index(violations) if violations else -1
    return StabilityVerdict(
        kind="one_close",
        vertex=v,
        t=None,
        verdict=violations == 0,
        method="brute-force",
        certificate=None if bad < 0 else _extension_vector(base, free, bad),
        checked=width,
    )


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
    _check_vertex(tree, v, forbid_leaf=True)
    _check_binary_host(tree)
    if t < 0:
        raise BadTimeError(f"t must be non-negative, got {t}")
    _check_length(tree, xi0)
    verdict, _ = _extreme_strong(tree, xi0.to_signs(), v, t)
    return verdict


def le_t_stable_extreme_runs(
    tree: RootedTree, xi0: OpinionVector, v: int, t: int
) -> bool:
    """(<= t)-stability decided from the two extreme extensions (even t).

    For even t the time-0 opinion of ``v`` is shared by all extensions,
    so constancy of both extreme trajectories pins every other one.
    """
    _check_vertex(tree, v, forbid_leaf=False)
    if t < 2 or t & 1:
        raise BadTimeError(f"extreme-run (<=t)-stability needs even t >= 2, got {t}")
    _check_length(tree, xi0)
    base = xi0.to_signs()
    inside = tree.subtree_mask(v)
    for fill in (-1, 1):
        signs = np.where(inside, base, fill).astype(np.int8)
        start = signs[v]
        for _ in range(t // 2):
            nxt = _step_signs(tree, _step_signs(tree, signs))
            if nxt[v] != start:
                return False
            if np.array_equal(nxt, signs):
                break
            signs = nxt
    return True
