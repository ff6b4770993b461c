"""Exact worst-case stabilisation time on odd-degree trees.

The stabilisation time of a tree is governed by a family of candidate
paths: simple paths whose vertices are all activity-prone except possibly
the final one.  A vertex qualifies as an interior path vertex when fewer
than half of its remaining neighbours are pendant ("active"), and as a
path endpoint when at most half are ("active" or "balky").  A candidate
path of length n scores n + 1 steps when its endpoint touches a pendant
vertex and n otherwise, and the worst case over all initial opinions is
exactly the maximum score.

``worst_case_tau`` evaluates that maximum with two linear-time passes
over the parent pointers (down scores from the leaves, then up scores
from the root, which also finish each vertex's best path) and
reconstructs the lexicographically smallest maximising path.  The passes
visit only the active region: the active vertices and their children.
A path continues only through active vertices, so any other vertex
scores its one-vertex path, and on a perfect host, whose active vertices
sit on the top levels, the leaves are never visited.  The same sweep,
scoring 1 per active vertex and visiting the active vertices alone,
gives ``active_path_bounds``.  One call turns each of the tree's arrays
into a Python list at most once, shared by the sweeps and the witness.
``worst_case_witness`` builds an initial opinion vector that attains the
score of a given candidate path, and ``brute_force_tau`` provides the
independent exhaustive check used to validate both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OpinionVector
from .errors import (
    BadPathError,
    BudgetExceededError,
    InvariantViolationError,
    TooSmallError,
)
from .trees import (
    RootedTree,
    VertexClass,
    _classes,
    classify_all,
    pendant_neighbour_counts,
)


_NEG = -(1 << 30)  # effectively -inf for the integer DP

# numpy scalars of the arrays' own dtypes: numpy combines an array with one
# about twice as fast as with a Python int, and an int about five times as
# fast as an IntEnum member.  Class codes are int8, pendant counts int64.
_ACTIVE, _PASSIVE = np.int8(VertexClass.ACTIVE), np.int8(VertexClass.PASSIVE)
_ONE = np.int64(1)

BRUTE_FORCE_BUDGET = 1 << 24

# brute_force_tau runs the 2^(n-1) vectors in blocks of 2^16: a column is
# then an 8 KiB integer, so its memory does not grow with n or depend on
# the tree's shape.
_BRUTE_FORCE_BLOCK_BITS = 16


@dataclass(frozen=True)
class CandidatePath:
    """A maximising candidate path together with its score t(Q)."""

    vertices: tuple[int, ...]
    t_value: int
    end_adjacent_to_leaf: bool

    @property
    def n(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class WorstCaseReport:
    tau: int
    argmax: CandidatePath
    witness: OpinionVector
    per_vertex_bound: dict[int, int]


def _terminal_scores(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Score of the single-vertex path ending at v, or -inf if v cannot end
    one, given the class codes and the pendant neighbour counts."""
    scores = np.minimum(counts, _ONE)
    scores += _ONE
    scores[codes == _PASSIVE] = _NEG
    return scores


def _active_region(tree: RootedTree, active: np.ndarray) -> list[int]:
    """The active region: the active vertices and their children, in BFS order."""
    near = active[tree.parent]  # the root reads vertex -1: cleared below
    near[tree.root] = False
    near |= active
    return tree.order[near[tree.order]].tolist()


def _path_scores(
    tree: RootedTree,
    active: np.ndarray,
    base: np.ndarray,
    order: list[int] | None = None,
    par: list[int] | None = None,
    act: list[bool] | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Best path scores by direction, over paths whose vertices are all
    active except possibly the last.

    ``base[v]`` scores the one-vertex path at v (``_NEG`` where no path
    may end), and each further vertex adds 1; active vertices need
    ``base >= 1``, so ``1 + _NEG`` never wins.  Two passes over ``order``
    give, per vertex, leaves up ``down``: the best path from v into its
    own subtree; root down ``up`` (indexed by child c, ``_NEG`` at the
    root): the best path from parent(c) that avoids c's subtree; and with
    it ``full``: the best path from v in any direction.

    ``order`` lists the swept vertices in BFS order, by default the active
    region (``_active_region``).  A vertex left out keeps ``base`` as its
    ``down`` and ``full`` and ``base[parent]`` as its ``up``, which is
    what a sweep of every vertex gives it when neither it nor its parent
    is active: on a perfect (4, 8) host that skips the 81,920 leaves.
    ``par`` and ``act`` are ``tree.parent`` and ``active`` as lists, for a
    caller that already holds them.
    """
    if order is None:
        order = _active_region(tree, active)
    par = tree.parent.tolist() if par is None else par
    active = active.tolist() if act is None else act
    up = base[tree.parent]  # the root reads vertex -1: set below
    up[tree.root] = _NEG
    up, base = up.tolist(), base.tolist()
    down = base[:]
    # each vertex's top two child scores give its best child but one in
    # O(1); a top tie gives best2 == best1.  Slot n takes the root's fold,
    # whose parent is -1.
    # The maxima below are spelled as comparisons: a call to max() costs
    # more than the rest of a vertex's step.
    best1, best2 = [_NEG] * (tree.n + 1), [_NEG] * (tree.n + 1)
    for v in reversed(order):
        d = down[v]
        if active[v] and best1[v] >= d:  # down = max(base, 1 + best1)
            d = down[v] = 1 + best1[v]
        p = par[v]
        if d > best1[p]:
            best1[p], best2[p] = d, best1[p]
        elif d > best2[p]:
            best2[p] = d
    full = down[:]
    for u in order:
        p = par[u]
        if p < 0:
            continue
        if active[p]:  # up = max(base[p], 1 + max(up[p], best child of p but u))
            s = best2[p] if down[u] == best1[p] else best1[p]
            if up[p] > s:
                s = up[p]
            up[u] = s + 1 if s >= base[p] else base[p]
        if active[u] and up[u] >= down[u]:  # full = max(down, 1 + up)
            full[u] = 1 + up[u]
    return down, up, full


def _reconstruct_path(
    tree: RootedTree,
    active: np.ndarray,
    base: np.ndarray,
    down: list[int],
    up: list[int],
    full: list[int],
    target: int,
    par: list[int],
) -> list[int]:
    """Lexicographically smallest vertex sequence attaining ``target``.

    Prefix order: stopping beats extending, and among continuations the
    smallest vertex id wins.  ``down``/``up`` give the residual score of
    continuing into a neighbour, so the greedy choice is safe.
    """
    cur = full.index(target)  # the smallest vertex attaining it
    came = -1
    path = [cur]
    remaining = target
    while base[cur] != remaining:
        if not active[cur]:
            raise InvariantViolationError(f"path continues through inactive {cur}")
        nxt = -1
        for x in tree.neighbours(cur).tolist():
            if x == came:
                continue
            residual = down[x] if par[x] == cur else up[cur]
            if residual == remaining - 1:
                nxt = x
                break
        if nxt < 0:
            raise InvariantViolationError(f"no neighbour of {cur} continues the path")
        path.append(nxt)
        came, cur = cur, nxt
        remaining -= 1
    return path


def active_path_bounds(tree: RootedTree) -> dict[int, int]:
    """Per-vertex flip deadlines: an active vertex v cannot flip after L(v) + 1.

    L(v) is the maximum number of vertices of a simple path of active
    vertices starting at v.  Non-active vertices are not listed (they
    settle within two steps regardless).
    """
    return _active_bounds(tree, classify_all(tree) == _ACTIVE)


def _active_bounds(
    tree: RootedTree,
    active: np.ndarray,
    par: list[int] | None = None,
    act: list[bool] | None = None,
) -> dict[int, int]:
    """``active_path_bounds`` given the tree's active mask (and, as for
    ``_path_scores``, optionally the parent and active lists).

    A non-active vertex scores 0, below an active vertex's floor of 1, so
    L(v) depends on the active subforest alone, and only it is swept.
    """
    order = tree.order[active[tree.order]].tolist()
    full = _path_scores(tree, active, active.astype(np.int64), order, par, act)[2]
    return {v: full[v] for v in active.nonzero()[0].tolist()}


def worst_case_tau(tree: RootedTree) -> WorstCaseReport:
    """Exact worst-case stabilisation time, maximising path, and witness."""
    if tree.n < 5:
        raise TooSmallError(
            f"worst-case analysis needs at least 5 vertices, got {tree.n}"
        )
    # one pendant count serves the classes, the scores and the end's touch,
    # and one classification the scores and the witness's path check
    counts = pendant_neighbour_counts(tree)
    codes = _classes(tree, counts)
    active = codes == _ACTIVE
    base = _terminal_scores(codes, counts)
    # each array becomes a list once, shared by both sweeps and the witness
    par, act = tree.parent.tolist(), active.tolist()
    down, up, full = _path_scores(tree, active, base, None, par, act)
    tau = max(full)
    if tau < 1:
        raise InvariantViolationError(f"worst-case score {tau} is below 1")
    vertices = _reconstruct_path(tree, active, base, down, up, full, tau, par)
    del down, up, full  # n-long lists: free them before the next sweep
    touches = bool(counts[vertices[-1]])
    if tau != len(vertices) + (1 if touches else 0):
        raise InvariantViolationError(
            f"path of {len(vertices)} vertices does not score {tau}"
        )
    argmax = CandidatePath(tuple(vertices), tau, touches)
    witness = _witness(tree, vertices, par, codes)
    return WorstCaseReport(tau, argmax, witness, _active_bounds(tree, active, par, act))


def _validate_candidate_path(
    tree: RootedTree, path: list[int], par: list[int], codes: np.ndarray
) -> None:
    if len(path) == 0:
        raise BadPathError("candidate path is empty")
    if len(set(path)) != len(path):
        raise BadPathError("candidate path repeats a vertex")
    for v in path:
        if not 0 <= v < tree.n:
            raise BadPathError(f"vertex {v} out of range")
    for a, b in zip(path, path[1:]):
        if par[a] != b and par[b] != a:  # a tree's edges join children to parents
            raise BadPathError(f"vertices {a} and {b} are not adjacent")
    for v in path[:-1]:
        if codes[v] != _ACTIVE:
            raise BadPathError(f"interior path vertex {v} is not active")
    if codes[path[-1]] == _PASSIVE:
        raise BadPathError(f"end vertex {path[-1]} is passive")


def worst_case_witness(tree: RootedTree, path: list[int]) -> OpinionVector:
    """Initial opinions forcing the end of ``path`` to keep flipping.

    With the tree rooted at the far end of the path, each path vertex
    starts positive but is outvoted one step after its predecessor: the
    recipe hands exactly half of its non-path subtrees a negative block,
    so the lone positive parent edge decides, one step too late.
    """
    return _witness(tree, path, tree.parent.tolist(), classify_all(tree))


def _witness(
    tree: RootedTree, path: list[int], par: list[int], codes: np.ndarray
) -> OpinionVector:
    """``worst_case_witness`` given ``tree.parent`` as a list, which it
    leaves unchanged, and the ``classify_all`` codes."""
    _validate_candidate_path(tree, path, par, codes)
    # rooted at the path's end: only the end-to-root chain changes parents
    parent = par[:]
    chain = [path[-1]]
    while parent[chain[-1]] >= 0:
        chain.append(parent[chain[-1]])
    for below, v in zip([-1, *chain], chain):
        parent[v] = below

    def children(v: int) -> list[int]:
        return [u for u in tree.neighbours(v).tolist() if u != parent[v]]

    degree = tree.degree.tolist()
    # 0 marks a vertex that takes the opinion its parent hands down
    signs = [0] * tree.n
    for v in path:
        signs[v] = 1
    first = path[0]
    # below the path head: children agree with it, deeper vertices do not
    for c in children(first):
        signs[c] = 1
    for i in range(1, len(path)):
        v = path[i]
        need = (degree[v] - 1) // 2
        negatives = 0
        for c in children(v):
            if signs[c]:  # the path's previous vertex
                continue
            if degree[c] == 1:  # pendant
                signs[c] = 1
                continue
            # children are id-sorted, so the first `need` non-pendant ones
            signs[c] = -1 if negatives < need else 1
            negatives += signs[c] == -1
        if negatives != need and degree[v] != 1:
            raise InvariantViolationError(
                f"path vertex {v} got {negatives} negative subtrees, needs {need}"
            )
    for v in chain + tree.order.tolist():  # every parent before its children
        if not signs[v]:
            p = parent[v]
            signs[v] = -1 if parent[p] == first else signs[p]
    return OpinionVector(np.array(signs, dtype=np.int8))  # all +1 or -1 by now


def brute_force_tau(
    tree: RootedTree, budget: int = BRUTE_FORCE_BUDGET
) -> tuple[int, OpinionVector]:
    """Maximum stabilisation time over all initial opinions, by enumeration.

    Negating every opinion negates the whole trajectory, so only vectors
    with a positive first vertex are enumerated; the result is unchanged.
    Returns the maximum together with the smallest-index maximiser among
    the enumerated half.
    """
    if 1 << tree.n > budget:
        raise BudgetExceededError(
            f"2^{tree.n} assignments exceed the enumeration budget {budget}"
        )
    from .bitsliced import _Extensions, batch_max_tau  # worst_case_tau runs without it

    low = min(tree.n - 1, _BRUTE_FORCE_BLOCK_BITS)
    # The lanes are vertices 1 to low, and an odd pattern sets vertex 0 to
    # +1 and the rest from its bits 1 up: lane j of pattern 2b + 1 is the
    # vector whose vertex v >= 1 is +1 where bit v - 1 of b * 2^low + j is.
    ext = _Extensions(tree, [0, *range(low + 1, tree.n)], budget)
    tau, pattern, lane = -1, 0, 0
    for p in range(1, 1 << (tree.n - low), 2):
        block_tau, j = batch_max_tau(ext.run(p))
        if block_tau > tau:
            tau, pattern, lane = block_tau, p, j
    return tau, ext.vector(pattern, lane)
