"""Randomized property suites for the structural facts behind the package.

Each sampled suite is a check of one random instance (host, initial
opinions, parameters): it reports whether the instance meets the suite's
hypotheses, whether the conclusion holds on it exactly, and a short
reproduction string, built only for violations.  One loop takes the
instances a fixed-size chunk at a time: it draws the whole chunk first,
in the order a per-instance loop would, then runs every trajectory of
the chunk as one int8 ``stabilise`` call on the disjoint union of the
hosts, hands each instance views of its slice of that run, and decides
the chunk's weak-stability verdicts in one batch per (host, vertex).
The checks then judge their instances in order and the outcomes are
tallied into a ``ClaimReport``: the satisfied count, so a healthy run is
visibly non-vacuous, and the strings of the first few violations.
Exhaustive or analytic suites ignore the sampling budget and feed the
same tally from a fixed sequence of outcomes.  Each suite draws from a
substream of its own, so the suites are ``probe._fork_map`` jobs and
report the same for any process count.

``STRUCTURAL_SUITES`` hold conditional facts about the dynamics itself:
the switch rule for balky vertices, flip deadlines for active ones, and
maintenance/inheritance rules for weak stability on binary hosts (root of
degree 3, every other non-leaf of degree 3).  ``ENGINE_SUITES`` cross-check
implementations against independent routes: exhaustive enumeration,
replayed counterexample certificates, and a full sweep of the three
equivalent characterisations of weak stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .bitsliced import BatchRun, _Extensions, pack_bit_rows
from .dynamics import OpinionVector, _step_signs, stabilise, step_budget
from .errors import MajlabError
from .probe import _fork_map, _pattern_cols, _recursion_map, fixed_point_q
from .stability import (
    EXTENSION_BUDGET,
    _PinnedSubtree,
    _strong_ok_bits,
    _weak_ok_bits,
    is_le_t_stable,
    is_one_close_to_stability,
    is_strongly_t_stable,
)
from .treegen import random_even_size, random_odd_tree
from .trees import RootedTree, VertexClass, build_perfect_tree, classify_all
from .worstcase import active_path_bounds, brute_force_tau, worst_case_tau


@dataclass
class ClaimReport:
    """Tallied outcome of one property suite.

    ``instances`` counts every draw; ``satisfied`` those whose hypotheses
    held (only these are judged); ``violations`` the satisfied instances
    whose conclusion failed.
    """

    name: str
    instances: int
    satisfied: int
    violations: int
    examples: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def summary_line(self) -> str:
        word = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {word} "
            f"({self.satisfied}/{self.instances} satisfied, "
            f"{self.violations} violations)"
        )


# (satisfied, ok, example): ok and example count only when satisfied
_Outcome = tuple[bool, bool, str]
Suite = Callable[[int, np.random.Generator], ClaimReport]

_MAX_EXAMPLES = 5
_UNSATISFIED: _Outcome = (False, True, "")


def _tally(name: str, outcomes: Iterable[_Outcome]) -> ClaimReport:
    """Report over one outcome per instance, keeping the examples of the
    first few violations."""
    report = ClaimReport(name, 0, 0, 0)
    for satisfied, ok, example in outcomes:
        report.instances += 1
        if satisfied:
            report.satisfied += 1
            if not ok:
                report.violations += 1
                if len(report.examples) < _MAX_EXAMPLES:
                    report.examples.append(example)
    return report


# instances drawn, run as one forest and judged together: enough to amortise
# the forest's steps, few enough to add under 1 MB to the process's peak RSS
_CHUNK = 1 << 7


def _sampled(**checks: Callable) -> dict[str, Suite]:
    """One suite per named check.

    A check is a generator: it draws one instance, yields (host, initial
    states), is sent one ``_Run`` per state and returns its outcome; it
    returns before yielding only when the draw leaves it unsatisfied.
    Each chunk of ``instances`` is drawn in order, runs as one forest,
    then is judged in order.
    """

    def outcomes(check, instances, rng) -> Iterable[_Outcome]:
        for start in range(instances)[::_CHUNK]:
            gens = [check(rng) for _ in range(min(_CHUNK, instances - start))]
            asks = [next(gen, None) for gen in gens]  # the chunk's draws, in order
            pairs = [(host, x) for host, xs in filter(None, asks) for x in xs]
            runs = iter(_runs(pairs))
            for gen, ask in zip(gens, asks):
                try:
                    yield gen.send(list(islice(runs, len(ask[1])))) if ask else _UNSATISFIED
                except StopIteration as done:
                    yield done.value

    def suite(name, check) -> Suite:
        return lambda instances, rng: _tally(name, outcomes(check, instances, rng))

    return {name: suite(name, check) for name, check in checks.items()}


# -- shared sampling helpers ------------------------------------------------

# a class code as a plain int: numpy compares an int8 array with an int
# about five times faster than with an IntEnum member
_BALKY = int(VertexClass.BALKY)


class _BinaryHost(NamedTuple):
    """The binary host of one height, with what its checks read of it but
    never change: the non-root inner vertices (``inner``), the non-root
    vertices of height at least 2 (``tall``), and each non-root vertex's
    ``_PinnedSubtree`` (``pinned[v]``, None at the root), which decides
    its weak verdicts."""

    tree: RootedTree
    inner: list[int]
    tall: list[int]
    pinned: list[_PinnedSubtree | None]


_BINARY_HOSTS: dict[int, _BinaryHost] = {}


def _binary(h: int) -> _BinaryHost:
    """The binary host of height h, built once per process."""
    host = _BINARY_HOSTS.get(h)
    if host is None:
        tree = build_perfect_tree(2, h)
        height = tree.height[1:]
        host = _BINARY_HOSTS.setdefault(h, _BinaryHost(
            tree,
            (np.flatnonzero(height) + 1).tolist(),
            (np.flatnonzero(height >= 2) + 1).tolist(),
            [None] + [_PinnedSubtree(tree, v) for v in range(1, tree.n)],
        ))
    return host


def _random_host(rng: np.random.Generator, low: int = 6, high: int = 18) -> RootedTree:
    return random_odd_tree(random_even_size(low, high, rng), rng)


class _Run(NamedTuple):
    """One instance's views of its chunk's forest run: tau, the states at
    times 0 .. tau + 2, the last flip times (-1 for "never"), overall and
    by parity, and, on binary hosts, the weak verdicts
    (``weak_rows[s, v]``: v is weakly 0-stable in history row s)."""

    tau: int
    hist: np.ndarray
    last_flip: np.ndarray
    last_flip_by_parity: tuple[np.ndarray, np.ndarray]
    weak_rows: np.ndarray | None = None

    def _index(self, s: int) -> int:
        # beyond the recorded window the tail is 2-periodic
        return s if s < len(self.hist) else self.tau + ((s - self.tau) & 1)

    def row(self, s: int) -> np.ndarray:
        """State at time s."""
        return self.hist[self._index(s)]

    def weak(self, v: int, t: int) -> bool:
        """Whether v is weakly t-stable."""
        return bool(self.weak_rows[self._index(t)][v])

    def t_stable(self, v: int, t: int) -> bool:
        """No flip of v at a time of t's parity after t."""
        return int(self.last_flip_by_parity[t & 1][v]) <= t


def _stabilise_each(hosts: list[RootedTree], xi0s: list[OpinionVector]) -> list[_Run]:
    """The run of every (host, xi0) pair, as views of one ``stabilise``
    on their disjoint union.

    Components of a disjoint union evolve independently, each 2-periodic
    from its own first repeat on (Goles & Olivos, 1980): its tau is its
    last flip less one (0 without one), its history the union's first
    tau + 3 rows, and its flip times its slice."""
    if not hosts:
        return []
    sizes = [host.n for host in hosts]
    starts = np.cumsum(sizes) - sizes
    degree = np.concatenate([host.degree for host in hosts])
    flat = np.concatenate([host.adj_flat for host in hosts])
    forest = SimpleNamespace(
        n=degree.size,
        adj_flat=flat + np.repeat(np.repeat(starts, sizes), degree),
        adj_offsets=np.append(0, np.cumsum(degree)),
    )
    xi0 = OpinionVector(np.concatenate([x.to_signs() for x in xi0s]))
    res = stabilise(forest, xi0, keep_history=True)
    taus = np.maximum(np.maximum.reduceat(res.last_flip, starts) - 1, 0).tolist()
    rows = np.stack(res.history)
    last, even, odd = res.last_flip, res.last_flip_even, res.last_flip_odd
    return [
        _Run(tau, rows[: tau + 3, lo:hi], last[lo:hi], (even[lo:hi], odd[lo:hi]))
        for lo, hi, tau in zip(starts.tolist(), (starts + sizes).tolist(), taus)
    ]


def _runs(asks: list[tuple[RootedTree, OpinionVector]]) -> list[_Run]:
    """Every (host, xi0) run, with weak verdicts on the binary hosts, the
    only ones where weak stability is defined."""
    trees = [tree for tree, _ in asks]
    runs = _stabilise_each(trees, [xi0 for _, xi0 in asks])
    for host in _BINARY_HOSTS.values():
        members = [i for i, tree in enumerate(trees) if tree is host.tree]
        if not members:
            continue
        table = _weak_table(host, np.concatenate([runs[i].hist for i in members]))
        ends = np.cumsum([len(runs[i].hist) for i in members])[:-1]
        for i, part in zip(members, np.split(table, ends)):
            runs[i] = runs[i]._replace(weak_rows=part)
    return runs


def _weak_table(host: _BinaryHost, rows: np.ndarray) -> np.ndarray:
    """``table[s, v]``: whether v (not the root) is weakly 0-stable in the
    state ``rows[s]``.  The verdict depends on the state alone, so one
    canonical-extension batch per vertex decides every row at once."""
    cols, mask = pack_bit_rows((rows > 0).T), (1 << len(rows)) - 1
    bits = [_weak_ok_bits(sub, cols, mask) if sub else 0 for sub in host.pinned]
    size = (len(rows) + 7) // 8
    packed = np.frombuffer(b"".join(b.to_bytes(size, "little") for b in bits), np.uint8)
    lanes = np.unpackbits(packed.reshape(len(bits), size), axis=1, count=len(rows), bitorder="little")
    return lanes.T


def _tree_path(tree: RootedTree, a: int, b: int) -> list[int]:
    """Vertices of the unique a-b path, endpoints included."""
    par, depth = tree.parent, tree.depth
    up_a, up_b = [int(a)], [int(b)]
    x, y = int(a), int(b)
    while depth[x] > depth[y]:
        x = int(par[x])
        up_a.append(x)
    while depth[y] > depth[x]:
        y = int(par[y])
        up_b.append(y)
    while x != y:
        x = int(par[x])
        up_a.append(x)
        y = int(par[y])
        up_b.append(y)
    return up_a + up_b[-2::-1]


def _non_monotone(path: list[int], tree: RootedTree) -> bool:
    """True iff neither endpoint is an ancestor of the other."""
    top = min(path, key=lambda w: int(tree.depth[w]))
    return top != path[0] and top != path[-1]


# -- structural suites: dynamics on odd trees -------------------------------


def _balky_switch(rng: np.random.Generator):
    """A balky vertex keeps its opinion two steps after any moment at which
    some non-pendant neighbour previews it: xi_s(v) = xi_{s+1}(u) forces
    xi_{s+2}(v) = xi_s(v)."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    (run,) = yield tree, [xi0]
    hist = run.hist
    top = hist.shape[0] - 3
    # every (balky v, non-pendant u) edge in adjacency order, one column each
    vs = np.repeat(np.arange(tree.n), tree.degree)
    keep = (classify_all(tree) == _BALKY)[vs] & ~tree.pendant[tree.adj_flat]
    vs, us = vs[keep], tree.adj_flat[keep]
    now = hist[: top + 1, vs]
    hyp = now == hist[1 : top + 2, us]
    viol = hyp & (hist[2 : top + 3, vs] != now)
    if viol.any():
        j = int(viol.any(axis=0).argmax())
        v, u, s = int(vs[j]), int(us[j]), int(viol[:, j].argmax())
        return True, False, f"n={tree.n} v={v} u={u} s={s} xi0={xi0.to_string()}"
    return bool(hyp.any()), True, ""


def _active_deadline(rng: np.random.Generator):
    """An active vertex never flips after L(v) + 1, where L(v) is the number
    of vertices on the longest path of active vertices starting at v."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    (run,) = yield tree, [xi0]
    last = run.last_flip
    bounds = active_path_bounds(tree)
    for v, limit in bounds.items():
        if int(last[v]) > limit + 1:
            return True, False, (
                f"n={tree.n} v={v} L={limit} "
                f"last_flip={int(last[v])} xi0={xi0.to_string()}"
            )
    return bool(bounds), True, ""


# -- structural suites: weak stability on binary hosts ----------------------


def _weak_instance(rng: np.random.Generator):
    """(host, opinions, non-root vertex, t1, t2 > t1 of t1's parity) of
    the weak maintenance suites, on a binary host of height 2 or 3."""
    tree = _binary(int(rng.integers(2, 4))).tree
    xi0 = OpinionVector.random(tree.n, rng)
    v = int(rng.integers(1, tree.n))
    t1 = int(rng.integers(0, 4))
    return tree, xi0, v, t1, t1 + 2 * int(rng.integers(1, 4))


def _weak_value(rng: np.random.Generator):
    """If v is weakly t1-stable and its parent holds xi_{t1}(v) at every odd
    time strictly between t1 and t2 (same parity), then xi_{t2}(v) = xi_{t1}(v)."""
    tree, xi0, v, t1, t2 = _weak_instance(rng)
    u = int(tree.parent[v])
    (run,) = yield tree, [xi0]
    val = int(run.row(t1)[v])
    pinned = all(int(run.row(j)[u]) == val for j in range(t1 + 1, t2, 2))
    sat = pinned and run.weak(v, t1)
    ok = not sat or int(run.row(t2)[v]) == val
    return sat, ok, "" if ok else f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}"


def _weak_stability(rng: np.random.Generator):
    """If v is weakly t1-stable and keeps one opinion at every time of the
    same parity through t2, then v is weakly t2-stable."""
    tree, xi0, v, t1, t2 = _weak_instance(rng)
    (run,) = yield tree, [xi0]
    val = int(run.row(t1)[v])
    constant = all(int(run.row(s)[v]) == val for s in range(t1 + 2, t2 + 1, 2))
    sat = constant and run.weak(v, t1)
    ok = not sat or run.weak(v, t2)
    return sat, ok, "" if ok else f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}"


def _weak_from_grandchild(rng: np.random.Generator):
    """A vertex sharing its time-t opinion with a weakly t-stable grandchild
    is itself weakly t-stable."""
    host = _binary(int(rng.integers(3, 5)))
    tree = host.tree
    xi0 = OpinionVector.random(tree.n, rng)
    v = host.tall[int(rng.integers(len(host.tall)))]
    grandkids = [
        int(g) for c in tree.children(v) for g in tree.children(int(c))
    ]
    u = grandkids[int(rng.integers(len(grandkids)))]
    t = int(rng.integers(0, 5))
    (run,) = yield tree, [xi0]
    row = run.row(t)
    sat = int(row[v]) == int(row[u]) and run.weak(u, t)
    ok = not sat or run.weak(v, t)
    return sat, ok, "" if ok else f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}"


def _weak_from_child(rng: np.random.Generator):
    """A vertex whose time-(t+1) opinion matches the time-t opinion of a
    weakly t-stable child is weakly (t+1)-stable."""
    host = _binary(int(rng.integers(2, 4)))
    tree, inner = host.tree, host.inner
    xi0 = OpinionVector.random(tree.n, rng)
    v = inner[int(rng.integers(len(inner)))]
    kids = tree.children(v)
    u = int(kids[int(rng.integers(kids.size))])
    t = int(rng.integers(0, 5))
    (run,) = yield tree, [xi0]
    rising = int(run.row(t + 1)[v]) == int(run.row(t)[u])
    sat = rising and run.weak(u, t)
    ok = not sat or run.weak(v, t + 1)
    return sat, ok, "" if ok else f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}"


def _aligned_path(rng: np.random.Generator):
    """On a non-monotone even-length path whose even-position vertices share
    one time-t opinion and whose endpoints are weakly t-stable, every
    even-position vertex is t-stable."""
    tree = _binary(int(rng.integers(2, 4))).tree
    xi0 = OpinionVector.random(tree.n, rng)
    pick = rng.choice(tree.n - 1, size=2, replace=False) + 1
    a, b = int(pick[0]), int(pick[1])
    path = _tree_path(tree, a, b)
    d = len(path) - 1
    if d < 2 or d % 2 or not _non_monotone(path, tree):
        return _UNSATISFIED
    t = int(rng.integers(0, 4))
    (run,) = yield tree, [xi0]
    row = run.row(t)
    evens = path[0::2]
    aligned = all(int(row[w]) == int(row[evens[0]]) for w in evens)
    if not (aligned and run.weak(a, t) and run.weak(b, t)):
        return _UNSATISFIED
    for w in evens:
        if not run.t_stable(w, t):
            return True, False, f"n={tree.n} path={path} t={t} w={w} xi0={xi0.to_string()}"
    return True, True, ""


_ONE_CLOSE_MEMO: dict[tuple[int, int, bytes], bool] = {}


def _one_close_memo(host: _BinaryHost, xi0: OpinionVector, v: int) -> bool:
    # the verdict depends only on the restriction to the subtree of v
    key = (host.tree.n, v, xi0.to_signs()[host.pinned[v].ids].tobytes())
    hit = _ONE_CLOSE_MEMO.get(key)
    if hit is None:
        hit = is_one_close_to_stability(host.tree, xi0, v).verdict
        _ONE_CLOSE_MEMO[key] = hit
    return hit


def _opposed_path(rng: np.random.Generator):
    """Opposite-opinion endpoints that are weakly 0-stable and 1-close to
    stability confine the path between them: at every even time from t on,
    each even interior vertex agrees with an even neighbour two steps away,
    and the far endpoint is weakly stable or stable."""
    host = _binary(int(rng.integers(2, 4)))
    tree, inner = host.tree, host.inner
    xi0 = OpinionVector.random(tree.n, rng)
    pick = rng.choice(len(inner), size=2, replace=False)
    a, b = inner[int(pick[0])], inner[int(pick[1])]
    path = _tree_path(tree, a, b)
    d = len(path) - 1
    if d < 2 or d % 2 or not _non_monotone(path, tree):
        return _UNSATISFIED
    t = 2 * int(rng.integers(0, 2))
    ell = 2 * int(rng.integers(1, d // 2 + 1))
    (run,) = yield tree, [xi0]
    hist = run.hist
    row_t = run.row(t)
    head = all(int(row_t[path[i]]) == int(row_t[a]) for i in range(2, ell - 1, 2))
    tail = all(int(row_t[path[i]]) == int(row_t[b]) for i in range(ell, d - 1, 2))
    opposed = int(hist[0][a]) != int(hist[0][b]) and all(
        int(hist[s][a]) == int(hist[0][a]) and int(hist[s][b]) == int(hist[0][b])
        for s in range(2, t + 1, 2)
    )
    if not (
        head
        and tail
        and opposed
        and run.weak(a, 0)
        and run.weak(b, 0)
        and _one_close_memo(host, xi0, a)
        and _one_close_memo(host, xi0, b)
    ):
        return _UNSATISFIED
    # beyond tau + 2 every quantity below repeats with period 2
    for tp in range(t, run.tau + 3, 2):
        row = run.row(tp)
        boxed = all(
            int(row[path[i]]) == int(row[path[i - 2]])
            or int(row[path[i]]) == int(row[path[i + 2]])
            for i in range(2, d - 1, 2)
        )
        far = run.t_stable(b, tp) or run.weak(b, tp)
        if not (boxed and far):
            return True, False, (
                f"n={tree.n} path={path} t={t} ell={ell} tp={tp} "
                f"xi0={xi0.to_string()}"
            )
    return True, True, ""


# -- engine suites: cross-checks of module implementations ------------------


def _tau_within_budget(rng: np.random.Generator):
    """Every trajectory reaches its 2-periodic tail within floor(|E| - |V|/2)
    steps, and stepping the settled pair swaps its two states."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    (run,) = yield tree, [xi0]
    settled, after = run.hist[-3], run.hist[-2]
    ok = (
        run.tau <= step_budget(tree)
        and np.array_equal(_step_signs(tree, settled), after)
        and np.array_equal(_step_signs(tree, after), settled)
    )
    return True, ok, "" if ok else f"n={tree.n} tau={run.tau} xi0={xi0.to_string()}"


def _flip_has_cause(rng: np.random.Generator):
    """Every flip xi_{t+2}(v) != xi_t(v) with t >= 1 is witnessed by a
    neighbour that itself just flipped onto the new opinion."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    (run,) = yield tree, [xi0]
    hist = run.hist
    seen = False
    for t in range(1, hist.shape[0] - 2):
        for v in np.flatnonzero(hist[t + 2] != hist[t]).tolist():
            seen = True
            want = int(hist[t + 2][v])
            if not any(
                int(hist[t + 1][u]) == want != int(hist[t - 1][u])
                for u in tree.neighbours(v)
            ):
                return True, False, f"n={tree.n} v={v} t={t} xi0={xi0.to_string()}"
    return seen, True, ""


def _negation_symmetry(rng: np.random.Generator):
    """Negating the initial opinions negates the whole trajectory and keeps
    the stabilisation time."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    run, neg = yield tree, [xi0, xi0.negated()]
    ok = neg.tau == run.tau and np.array_equal(neg.hist, -run.hist)
    return True, ok, "" if ok else f"n={tree.n} xi0={xi0.to_string()}"


def _formula_matches_enumeration(rng: np.random.Generator):
    """The closed-form worst case equals full enumeration over initial
    vectors on small random trees."""
    tree = _random_host(rng, low=6, high=14)
    yield tree, []  # nothing to run: the chunk's trees are drawn first
    formula = worst_case_tau(tree).tau
    brute, _ = brute_force_tau(tree)
    return True, formula == brute, f"n={tree.n} formula={formula} brute={brute}"


def _witness_attains_tau(rng: np.random.Generator):
    """The synthesized witness vector achieves the reported worst case."""
    tree = _random_host(rng)
    report = worst_case_tau(tree)
    (run,) = yield tree, [report.witness]
    achieved = run.tau
    return (
        True,
        achieved == report.tau,
        f"n={tree.n} tau={report.tau} achieved={achieved}",
    )


def _weak_definition_verdicts(
    run: BatchRun, v: int, parent: int, k_max: int = 9
) -> tuple[bool, bool, bool]:
    """Verdicts of the three weak-stability characterisations for one
    subtree pattern chi, from the ``run`` of all its extensions (lanes as
    ``bitsliced._Extensions`` lays them out) before its first step.

    Returns (existential, canonical, parent-pinned): whether some
    extension keeps v 0-stable, whether the constant extension does, and
    whether every extension whose parent holds chi(v) at all odd times up
    to k returns v to chi(v) at time k + 1, for every odd k <= k_max.
    """
    mask = run.mask
    target = prev_even = run.cols[v]
    steps = max(run.limit, k_max + 1)
    even_flip = 0
    pinned = mask
    pinned_ok = True
    for s in range(1, steps + 1):
        run.advance()
        cur = run.cols
        if s & 1:
            if s <= k_max:
                pinned &= ~(cur[parent] ^ target) & mask
        else:
            even_flip |= cur[v] ^ prev_even
            prev_even = cur[v]
            if s - 1 <= k_max:
                pinned_ok = pinned_ok and not (pinned & (cur[v] ^ target))
    survivors = ~even_flip & mask
    # the constant extension: the last lane (all outside +1) or lane 0
    canonical_index = mask.bit_length() - 1 if target else 0
    existential = survivors != 0
    canonical = bool((survivors >> canonical_index) & 1)
    return existential, canonical, pinned_ok


def weak_definition_sweep(max_height: int = 3, k_max: int = 9) -> ClaimReport:
    """Exhaustively cross-check the three weak-stability characterisations.

    Sweeps every subtree pattern at every non-root vertex of the binary
    hosts up to ``max_height``.  The three verdicts are functions of the
    pattern alone, so agreement over the sweep settles every (initial
    vector, time) instance on those hosts at once.
    """

    def outcomes():
        for h in range(1, max_height + 1):
            host = _binary(h)
            tree = host.tree
            for v in range(1, tree.n):
                ids = host.pinned[v].ids
                # every extension, whatever the count: the sweep is exhaustive by design
                ext = _Extensions(tree, ids, 1 << tree.n)
                for bits in range(1 << len(ids)):
                    run = ext.run(bits)
                    verdicts = _weak_definition_verdicts(run, v, int(tree.parent[v]), k_max)
                    yield (
                        True,
                        len(set(verdicts)) == 1,
                        f"h={h} v={v} pattern={bits:0{len(ids)}b} verdicts={verdicts}",
                    )

    return _tally("weak_definitions_agree", outcomes())


def _suite_weak_definitions(instances: int, rng: np.random.Generator) -> ClaimReport:
    # exhaustive at reduced height; the full-height sweep is a test target
    del instances, rng
    return weak_definition_sweep(max_height=2)


def _counterexample_replay(rng: np.random.Generator):
    """Every negative strong / (<=t) / 1-close verdict returns a certificate
    extension that, replayed through the plain simulator, exhibits the
    claimed failure.

    Only (<= t) verdicts come out negative on this host: exhaustive runs
    find strong negative in 0 of its 4,096 cases at vertex 1 (t = 0..3),
    and 1-close negative at no inner vertex here or on ``_binary(3)``.
    Strong fails at the height-2 vertices of ``_binary(3)``: 131 of 333
    random draws."""
    host = _binary(2)
    tree, inner = host.tree, host.inner
    xi0 = OpinionVector.random(tree.n, rng)
    kind = int(rng.integers(3))
    if kind == 0:
        v = inner[int(rng.integers(len(inner)))]
        t = int(rng.integers(0, 4))
        verdict = is_strongly_t_stable(tree, xi0, v, t)
    elif kind == 1:
        v = int(rng.integers(1, tree.n))
        t = 2 * int(rng.integers(1, 3))
        verdict = is_le_t_stable(tree, xi0, v, t)
    else:
        v = inner[int(rng.integers(len(inner)))]
        verdict = is_one_close_to_stability(tree, xi0, v)
    if verdict.verdict:
        return _UNSATISFIED
    (run,) = yield tree, [verdict.certificate]
    hist = run.hist
    if kind == 0:
        ok = not run.t_stable(v, t)
    elif kind == 1:
        values = {int(run.row(s)[v]) for s in range(t % 2, t + 1, 2)}
        ok = len(values) > 1
    else:  # the first even-time flip must land v weakly stable
        start = int(hist[0][v])
        flips = (s for s in range(2, hist.shape[0], 2) if int(hist[s][v]) != start)
        first = next(flips, None)
        ok = first is not None and not run.weak(v, first)
    return True, ok, "" if ok else f"kind={kind} v={v} xi0={xi0.to_string()}"


def _suite_fixed_point_bracket(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """The recursion map fixes a point inside (1/16, 3/40), maps 0 to 1/16,
    and pulls 3/40 strictly down."""
    del instances, rng
    res = fixed_point_q()
    checks = [
        1 / 16 < res.q < 3 / 40,
        abs(res.residual) <= res.tolerance,
        _recursion_map(0.0) == 1 / 16,
        _recursion_map(3 / 40) < 3 / 40,
    ]
    example = f"q={res.q} residual={res.residual}"
    return _tally("fixed_point_bracket", [(True, all(checks), example)])


def _suite_strong_value_symmetry(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """Global negation preserves strong stability and negates every
    opinion, so over all full initial vectors the strong ones split evenly
    by the subject's opinion at time t.

    Strong stability reads only the subject's subtree, so one batch of
    the subtree's patterns gives each pattern's verdict at every t, and
    one run of its extensions counts their opinions at the subject."""
    del instances, rng
    host, v = _binary(3), 1
    tree, sub = host.tree, host.pinned[v]
    draws, width = _pattern_cols(len(sub.ids), range(len(sub.ids)), 0, None)
    cols = [0] * tree.n
    for u, col in zip(sub.ids, draws):
        cols[u] = col
    mask = (1 << width) - 1
    strong = [_strong_ok_bits(sub, cols, mask, t, EXTENSION_BUDGET)[0] for t in range(4)]
    ext = _Extensions(tree, sub.ids, EXTENSION_BUDGET)
    plus = [0] * 4
    for pattern in range(width):
        run = ext.run(pattern)
        for t in range(4):
            if t:
                run.advance()
            if strong[t] >> pattern & 1:
                plus[t] += run.cols[v].bit_count()
    outcomes = []
    for t in range(4):
        minus = (strong[t].bit_count() << len(ext.free)) - plus[t]
        outcomes.append((True, plus[t] == minus, f"t={t} +1:{plus[t]} -1:{minus}"))
    return _tally("strong_value_symmetry", outcomes)


# -- registry ----------------------------------------------------------------

STRUCTURAL_SUITES: dict[str, Suite] = _sampled(
    balky_switch_rule=_balky_switch,
    active_deadline=_active_deadline,
    weak_value_maintenance=_weak_value,
    weak_stability_maintenance=_weak_stability,
    weak_from_grandchild=_weak_from_grandchild,
    weak_from_child=_weak_from_child,
    aligned_path_stabilisation=_aligned_path,
    opposed_path_stabilisation=_opposed_path,
)

ENGINE_SUITES: dict[str, Suite] = {
    **_sampled(
        tau_within_budget=_tau_within_budget,
        flip_has_cause=_flip_has_cause,
        negation_symmetry=_negation_symmetry,
        formula_matches_enumeration=_formula_matches_enumeration,
        witness_attains_tau=_witness_attains_tau,
    ),
    "weak_definitions_agree": _suite_weak_definitions,
    **_sampled(counterexample_replay=_counterexample_replay),
    "fixed_point_bracket": _suite_fixed_point_bracket,
    "strong_value_symmetry": _suite_strong_value_symmetry,
}

ALL_SUITES: dict[str, Suite] = {**STRUCTURAL_SUITES, **ENGINE_SUITES}


def _run_suite(job: tuple[str, int, int]) -> ClaimReport:
    """The report of a ``(name, instances, seed)`` job, drawn from the
    substream keyed by the suite's registry position."""
    name, instances, seed = job
    key = (list(ALL_SUITES).index(name),)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    return ALL_SUITES[name](instances, rng)


def run_claim_suites(
    names: list[str] | None = None,
    instances: int = 1000,
    seed: int = 0,
) -> list[ClaimReport]:
    """Run the selected suites with per-suite deterministic substreams.

    Substreams are keyed by the suite's registry position, so a suite's
    draws do not depend on which other suites run alongside it, nor on
    which process runs it: each suite is one ``probe._fork_map`` job.
    """
    if instances < 1:
        raise MajlabError(f"instances must be positive, got {instances}")
    selected = list(ALL_SUITES) if names is None else list(names)
    unknown = sorted(set(selected) - set(ALL_SUITES))
    if unknown:
        raise MajlabError(
            f"unknown suites: {', '.join(unknown)}; known suites: {', '.join(ALL_SUITES)}"
        )
    return _fork_map(_run_suite, [(name, instances, seed) for name in selected])
