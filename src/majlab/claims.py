"""Randomized property suites for the structural facts behind the package.

Each suite draws random instances (host, initial opinions, parameters),
counts the instances meeting its hypotheses, and checks its conclusion
exactly on every satisfied instance.  Reports carry the satisfied count so
a healthy run is visibly non-vacuous, plus short reproduction strings for
the first few violations.

``STRUCTURAL_SUITES`` hold conditional facts about the dynamics itself:
the switch rule for balky vertices, flip deadlines for active ones, and
maintenance/inheritance rules for weak stability on binary hosts (root of
degree 3, every other non-leaf of degree 3).  ``ENGINE_SUITES`` cross-check
implementations against independent routes: exhaustive enumeration,
replayed counterexample certificates, and a full sweep of the three
equivalent characterisations of weak stability.  Exhaustive or analytic
suites ignore the sampling budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bitsliced import BatchRun, tt_column
from .dynamics import (
    OpinionVector,
    StabilisationResult,
    stabilise,
    step,
    step_budget,
)
from .errors import MajlabError
from .probe import _recursion_map, fixed_point_q
from .stability import (
    _extension_batch,
    _extension_vector,
    is_le_t_stable,
    is_one_close_to_stability,
    is_strongly_t_stable,
    is_weakly_t_stable,
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


class _Tally:
    """Accumulator behind a :class:`ClaimReport`."""

    MAX_EXAMPLES = 5

    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.satisfied = 0
        self.violations = 0
        self.examples: list[str] = []

    def add(self, satisfied: bool, ok: bool = True, example: str = "") -> None:
        self.instances += 1
        if not satisfied:
            return
        self.satisfied += 1
        if not ok:
            self.violations += 1
            if len(self.examples) < self.MAX_EXAMPLES:
                self.examples.append(example)

    def report(self) -> ClaimReport:
        return ClaimReport(
            name=self.name,
            instances=self.instances,
            satisfied=self.satisfied,
            violations=self.violations,
            examples=self.examples,
        )


# -- shared sampling helpers ------------------------------------------------

_BINARY_HOSTS: dict[int, RootedTree] = {}


def _binary_host(h: int) -> RootedTree:
    tree = _BINARY_HOSTS.get(h)
    if tree is None:
        tree = _BINARY_HOSTS.setdefault(h, build_perfect_tree(2, h))
    return tree


def _random_host(rng: np.random.Generator, low: int = 6, high: int = 18) -> RootedTree:
    return random_odd_tree(random_even_size(low, high, rng), rng)


def _run_history(
    tree: RootedTree, rng: np.random.Generator
) -> tuple[OpinionVector, StabilisationResult, np.ndarray]:
    xi0 = OpinionVector.random(tree.n, rng)
    res = stabilise(tree, xi0, keep_history=True)
    return xi0, res, np.stack(res.history)


def _state_row(hist: np.ndarray, tau: int, s: int) -> np.ndarray:
    """State at time s; beyond the recorded window the tail is 2-periodic."""
    if s < hist.shape[0]:
        return hist[s]
    return hist[tau + ((s - tau) & 1)]


def _weak(tree: RootedTree, xi0: OpinionVector, v: int, t: int) -> bool:
    return is_weakly_t_stable(tree, xi0, v, t).verdict


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


def _suite_balky_switch(instances: int, rng: np.random.Generator) -> ClaimReport:
    """A balky vertex keeps its opinion two steps after any moment at which
    some non-pendant neighbour previews it: xi_s(v) = xi_{s+1}(u) forces
    xi_{s+2}(v) = xi_s(v)."""
    tally = _Tally("balky_switch_rule")
    for _ in range(instances):
        tree = _random_host(rng)
        xi0, res, hist = _run_history(tree, rng)
        balky = np.flatnonzero(classify_all(tree) == VertexClass.BALKY)
        pend = tree.pendant
        top = hist.shape[0] - 3
        seen = False
        bad = ""
        for v in balky:
            v = int(v)
            for u in tree.neighbours(v):
                u = int(u)
                if pend[u]:
                    continue
                now = hist[: top + 1, v]
                preview = hist[1 : top + 2, u]
                later = hist[2 : top + 3, v]
                hyp = now == preview
                seen = seen or bool(hyp.any())
                viol = hyp & (later != now)
                if viol.any() and not bad:
                    s = int(np.flatnonzero(viol)[0])
                    bad = f"n={tree.n} v={v} u={u} s={s} xi0={xi0.to_string()}"
        tally.add(seen, ok=not bad, example=bad)
    return tally.report()


def _suite_active_deadline(instances: int, rng: np.random.Generator) -> ClaimReport:
    """An active vertex never flips after L(v) + 1, where L(v) is the number
    of vertices on the longest path of active vertices starting at v."""
    tally = _Tally("active_deadline")
    for _ in range(instances):
        tree = _random_host(rng)
        xi0 = OpinionVector.random(tree.n, rng)
        res = stabilise(tree, xi0)
        bounds = active_path_bounds(tree)
        bad = ""
        for v, limit in bounds.items():
            if int(res.last_flip[v]) > limit + 1:
                bad = (
                    f"n={tree.n} v={v} L={limit} "
                    f"last_flip={int(res.last_flip[v])} xi0={xi0.to_string()}"
                )
                break
        tally.add(bool(bounds), ok=not bad, example=bad)
    return tally.report()


# -- structural suites: weak stability on binary hosts ----------------------


def _suite_weak_value(instances: int, rng: np.random.Generator) -> ClaimReport:
    """If v is weakly t1-stable and its parent holds xi_{t1}(v) at every odd
    time strictly between t1 and t2 (same parity), then xi_{t2}(v) = xi_{t1}(v)."""
    tally = _Tally("weak_value_maintenance")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(2, 4)))
        xi0, res, hist = _run_history(tree, rng)
        v = int(rng.integers(1, tree.n))
        u = int(tree.parent[v])
        t1 = int(rng.integers(0, 4))
        t2 = t1 + 2 * int(rng.integers(1, 4))
        val = int(_state_row(hist, res.tau, t1)[v])
        pinned = all(
            int(_state_row(hist, res.tau, j)[u]) == val
            for j in range(t1 + 1, t2, 2)
        )
        sat = pinned and _weak(tree, xi0, v, t1)
        ok = not sat or int(_state_row(hist, res.tau, t2)[v]) == val
        tally.add(
            sat,
            ok=ok,
            example="" if ok else f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_weak_stability(instances: int, rng: np.random.Generator) -> ClaimReport:
    """If v is weakly t1-stable and keeps one opinion at every time of the
    same parity through t2, then v is weakly t2-stable."""
    tally = _Tally("weak_stability_maintenance")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(2, 4)))
        xi0, res, hist = _run_history(tree, rng)
        v = int(rng.integers(1, tree.n))
        t1 = int(rng.integers(0, 4))
        t2 = t1 + 2 * int(rng.integers(1, 4))
        val = int(_state_row(hist, res.tau, t1)[v])
        constant = all(
            int(_state_row(hist, res.tau, s)[v]) == val
            for s in range(t1 + 2, t2 + 1, 2)
        )
        sat = constant and _weak(tree, xi0, v, t1)
        ok = not sat or _weak(tree, xi0, v, t2)
        tally.add(
            sat,
            ok=ok,
            example="" if ok else f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_weak_from_grandchild(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """A vertex sharing its time-t opinion with a weakly t-stable grandchild
    is itself weakly t-stable."""
    tally = _Tally("weak_from_grandchild")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(3, 5)))
        xi0, res, hist = _run_history(tree, rng)
        hosts = [w for w in range(1, tree.n) if tree.height[w] >= 2]
        v = hosts[int(rng.integers(len(hosts)))]
        grandkids = [
            int(g) for c in tree.children(v) for g in tree.children(int(c))
        ]
        u = grandkids[int(rng.integers(len(grandkids)))]
        t = int(rng.integers(0, 5))
        row = _state_row(hist, res.tau, t)
        sat = int(row[v]) == int(row[u]) and _weak(tree, xi0, u, t)
        ok = not sat or _weak(tree, xi0, v, t)
        tally.add(
            sat,
            ok=ok,
            example="" if ok else f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_weak_from_child(instances: int, rng: np.random.Generator) -> ClaimReport:
    """A vertex whose time-(t+1) opinion matches the time-t opinion of a
    weakly t-stable child is weakly (t+1)-stable."""
    tally = _Tally("weak_from_child")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(2, 4)))
        xi0, res, hist = _run_history(tree, rng)
        inner = [w for w in range(1, tree.n) if not tree.is_leaf(w)]
        v = inner[int(rng.integers(len(inner)))]
        kids = tree.children(v)
        u = int(kids[int(rng.integers(kids.size))])
        t = int(rng.integers(0, 5))
        rising = int(_state_row(hist, res.tau, t + 1)[v]) == int(
            _state_row(hist, res.tau, t)[u]
        )
        sat = rising and _weak(tree, xi0, u, t)
        ok = not sat or _weak(tree, xi0, v, t + 1)
        tally.add(
            sat,
            ok=ok,
            example="" if ok else f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_aligned_path(instances: int, rng: np.random.Generator) -> ClaimReport:
    """On a non-monotone even-length path whose even-position vertices share
    one time-t opinion and whose endpoints are weakly t-stable, every
    even-position vertex is t-stable."""
    tally = _Tally("aligned_path_stabilisation")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(2, 4)))
        xi0, res, hist = _run_history(tree, rng)
        pick = rng.choice(tree.n - 1, size=2, replace=False) + 1
        a, b = int(pick[0]), int(pick[1])
        path = _tree_path(tree, a, b)
        d = len(path) - 1
        sat = False
        ok = True
        bad = ""
        if d >= 2 and d % 2 == 0 and _non_monotone(path, tree):
            t = int(rng.integers(0, 4))
            row = _state_row(hist, res.tau, t)
            evens = path[0::2]
            aligned = all(int(row[w]) == int(row[evens[0]]) for w in evens)
            if aligned and _weak(tree, xi0, a, t) and _weak(tree, xi0, b, t):
                sat = True
                for w in evens:
                    if not res.is_vertex_t_stable(w, t):
                        ok = False
                        bad = (
                            f"n={tree.n} path={path} t={t} w={w} "
                            f"xi0={xi0.to_string()}"
                        )
                        break
        tally.add(sat, ok=ok, example=bad)
    return tally.report()


_ONE_CLOSE_MEMO: dict[tuple[int, int, bytes], bool] = {}


def _one_close_memo(tree: RootedTree, xi0: OpinionVector, v: int) -> bool:
    # the verdict depends only on the restriction to the subtree of v
    inside = np.flatnonzero(tree.subtree_mask(v))
    key = (tree.n, v, xi0.to_signs()[inside].tobytes())
    hit = _ONE_CLOSE_MEMO.get(key)
    if hit is None:
        hit = is_one_close_to_stability(tree, xi0, v).verdict
        _ONE_CLOSE_MEMO[key] = hit
    return hit


def _suite_opposed_path(instances: int, rng: np.random.Generator) -> ClaimReport:
    """Opposite-opinion endpoints that are weakly 0-stable and 1-close to
    stability confine the path between them: at every even time from t on,
    each even interior vertex agrees with an even neighbour two steps away,
    and the far endpoint is weakly stable or stable."""
    tally = _Tally("opposed_path_stabilisation")
    for _ in range(instances):
        tree = _binary_host(int(rng.integers(2, 4)))
        xi0, res, hist = _run_history(tree, rng)
        inner = [w for w in range(1, tree.n) if not tree.is_leaf(w)]
        pick = rng.choice(len(inner), size=2, replace=False)
        a, b = inner[int(pick[0])], inner[int(pick[1])]
        path = _tree_path(tree, a, b)
        d = len(path) - 1
        sat = False
        ok = True
        bad = ""
        if d >= 2 and d % 2 == 0 and _non_monotone(path, tree):
            t = 2 * int(rng.integers(0, 2))
            ell = 2 * int(rng.integers(1, d // 2 + 1))
            row_t = _state_row(hist, res.tau, t)
            head = all(
                int(row_t[path[i]]) == int(row_t[a]) for i in range(2, ell - 1, 2)
            )
            tail = all(
                int(row_t[path[i]]) == int(row_t[b]) for i in range(ell, d - 1, 2)
            )
            opposed = int(hist[0][a]) != int(hist[0][b]) and all(
                int(hist[s][a]) == int(hist[0][a])
                and int(hist[s][b]) == int(hist[0][b])
                for s in range(2, t + 1, 2)
            )
            if (
                head
                and tail
                and opposed
                and _weak(tree, xi0, a, 0)
                and _weak(tree, xi0, b, 0)
                and _one_close_memo(tree, xi0, a)
                and _one_close_memo(tree, xi0, b)
            ):
                sat = True
                # beyond tau + 2 every quantity below repeats with period 2
                for tp in range(t, res.tau + 3, 2):
                    row = _state_row(hist, res.tau, tp)
                    boxed = all(
                        int(row[path[i]]) == int(row[path[i - 2]])
                        or int(row[path[i]]) == int(row[path[i + 2]])
                        for i in range(2, d - 1, 2)
                    )
                    far = res.is_vertex_t_stable(b, tp) or _weak(tree, xi0, b, tp)
                    if not (boxed and far):
                        ok = False
                        bad = (
                            f"n={tree.n} path={path} t={t} ell={ell} tp={tp} "
                            f"xi0={xi0.to_string()}"
                        )
                        break
        tally.add(sat, ok=ok, example=bad)
    return tally.report()


# -- engine suites: cross-checks of module implementations ------------------


def _suite_tau_within_budget(instances: int, rng: np.random.Generator) -> ClaimReport:
    """Every trajectory reaches its 2-periodic tail within floor(|E| - |V|/2)
    steps, and stepping the settled pair swaps its two states."""
    tally = _Tally("tau_within_budget")
    for _ in range(instances):
        tree = _random_host(rng)
        xi0 = OpinionVector.random(tree.n, rng)
        res = stabilise(tree, xi0)
        ok = (
            res.tau <= step_budget(tree)
            and step(tree, res.stable_even) == res.stable_odd
            and step(tree, res.stable_odd) == res.stable_even
        )
        tally.add(
            True,
            ok=ok,
            example="" if ok else f"n={tree.n} tau={res.tau} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_flip_has_cause(instances: int, rng: np.random.Generator) -> ClaimReport:
    """Every flip xi_{t+2}(v) != xi_t(v) with t >= 1 is witnessed by a
    neighbour that itself just flipped onto the new opinion."""
    tally = _Tally("flip_has_cause")
    for _ in range(instances):
        tree = _random_host(rng)
        xi0, res, hist = _run_history(tree, rng)
        seen = False
        bad = ""
        for t in range(1, hist.shape[0] - 2):
            for v in np.flatnonzero(hist[t + 2] != hist[t]):
                v = int(v)
                seen = True
                want = int(hist[t + 2][v])
                caused = any(
                    int(hist[t + 1][u]) == want != int(hist[t - 1][u])
                    for u in tree.neighbours(v)
                )
                if not caused and not bad:
                    bad = f"n={tree.n} v={v} t={t} xi0={xi0.to_string()}"
        tally.add(seen, ok=not bad, example=bad)
    return tally.report()


def _suite_negation_symmetry(instances: int, rng: np.random.Generator) -> ClaimReport:
    """Negating the initial opinions negates the whole trajectory and keeps
    the stabilisation time."""
    tally = _Tally("negation_symmetry")
    for _ in range(instances):
        tree = _random_host(rng)
        xi0 = OpinionVector.random(tree.n, rng)
        res = stabilise(tree, xi0)
        neg = stabilise(tree, xi0.negated())
        ok = (
            neg.tau == res.tau
            and neg.stable_even == res.stable_even.negated()
            and neg.stable_odd == res.stable_odd.negated()
        )
        tally.add(
            True,
            ok=ok,
            example="" if ok else f"n={tree.n} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_formula_matches_enumeration(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """The closed-form worst case equals full enumeration over initial
    vectors on small random trees."""
    tally = _Tally("formula_matches_enumeration")
    for _ in range(instances):
        tree = _random_host(rng, low=6, high=14)
        formula = worst_case_tau(tree).tau
        brute, _ = brute_force_tau(tree)
        ok = formula == brute
        tally.add(
            True,
            ok=ok,
            example="" if ok else f"n={tree.n} formula={formula} brute={brute}",
        )
    return tally.report()


def _suite_witness_attains_tau(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """The synthesized witness vector achieves the reported worst case."""
    tally = _Tally("witness_attains_tau")
    for _ in range(instances):
        tree = _random_host(rng)
        report = worst_case_tau(tree)
        achieved = stabilise(tree, report.witness).tau
        ok = achieved == report.tau
        tally.add(
            True,
            ok=ok,
            example="" if ok else f"n={tree.n} tau={report.tau} achieved={achieved}",
        )
    return tally.report()


def _weak_definition_verdicts(
    tree: RootedTree, v: int, chi: np.ndarray, k_max: int = 9
) -> tuple[bool, bool, bool]:
    """Verdicts of the three weak-stability characterisations for one
    subtree pattern.

    ``chi`` holds the signs over the subtree of ``v`` in ascending vertex
    order.  Returns (existential, canonical, parent-pinned): whether some
    extension keeps v 0-stable, whether the constant extension does, and
    whether every extension whose parent holds chi(v) at all odd times
    up to k returns v to chi(v) at time k + 1, for every odd k <= k_max.
    """
    inside = np.flatnonzero(tree.subtree_mask(v))
    base = np.ones(tree.n, dtype=np.int8)
    base[inside] = chi
    # every extension, whatever the count: the sweep is exhaustive by design
    _, width, mask, cols = _extension_batch(tree, base, v, 1 << tree.n)
    target = cols[v]
    parent = int(tree.parent[v])
    run = BatchRun(tree, cols, mask)
    steps = max(step_budget(tree) + 2, k_max + 1)
    even_flip = 0
    prev_even = cols[v]
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
    canonical_index = width - 1 if base[v] > 0 else 0
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
    tally = _Tally("weak_definitions_agree")
    for h in range(1, max_height + 1):
        tree = _binary_host(h)
        for v in range(1, tree.n):
            size = int(tree.subtree_mask(v).sum())
            for bits in range(1 << size):
                chi = np.array(
                    [1 if (bits >> i) & 1 else -1 for i in range(size)],
                    dtype=np.int8,
                )
                d1, d2, d3 = _weak_definition_verdicts(tree, v, chi, k_max)
                ok = d1 == d2 == d3
                tally.add(
                    True,
                    ok=ok,
                    example=""
                    if ok
                    else f"h={h} v={v} pattern={bits:0{size}b} verdicts={(d1, d2, d3)}",
                )
    return tally.report()


def _suite_weak_definitions(instances: int, rng: np.random.Generator) -> ClaimReport:
    # exhaustive at reduced height; the full-height sweep is a test target
    del instances, rng
    return weak_definition_sweep(max_height=2)


def _replay_strong(tree, xi0, v, t) -> tuple[bool, bool]:
    verdict = is_strongly_t_stable(tree, xi0, v, t)
    if verdict.verdict:
        return False, True
    sim = stabilise(tree, verdict.certificate)
    return True, not sim.is_vertex_t_stable(v, t)


def _replay_le_t(tree, xi0, v, t) -> tuple[bool, bool]:
    verdict = is_le_t_stable(tree, xi0, v, t)
    if verdict.verdict:
        return False, True
    sim = stabilise(tree, verdict.certificate, keep_history=True)
    hist = np.stack(sim.history)
    values = {int(_state_row(hist, sim.tau, s)[v]) for s in range(t % 2, t + 1, 2)}
    return True, len(values) > 1


def _replay_one_close(tree, xi0, v) -> tuple[bool, bool]:
    verdict = is_one_close_to_stability(tree, xi0, v)
    if verdict.verdict:
        return False, True
    sim = stabilise(tree, verdict.certificate, keep_history=True)
    hist = np.stack(sim.history)
    start = int(hist[0][v])
    first = next(
        (s for s in range(2, hist.shape[0], 2) if int(hist[s][v]) != start), None
    )
    if first is None:
        return True, False
    return True, not _weak(tree, verdict.certificate, v, first)


def _suite_counterexample_replay(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """Every negative strong / (<=t) / 1-close verdict returns a certificate
    extension that, replayed through the plain simulator, exhibits the
    claimed failure."""
    tally = _Tally("counterexample_replay")
    tree = _binary_host(2)
    inner = [w for w in range(1, tree.n) if not tree.is_leaf(w)]
    for _ in range(instances):
        xi0 = OpinionVector.random(tree.n, rng)
        kind = int(rng.integers(3))
        if kind == 0:
            v = inner[int(rng.integers(len(inner)))]
            sat, ok = _replay_strong(tree, xi0, v, int(rng.integers(0, 4)))
        elif kind == 1:
            v = int(rng.integers(1, tree.n))
            sat, ok = _replay_le_t(tree, xi0, v, 2 * int(rng.integers(1, 3)))
        else:
            v = inner[int(rng.integers(len(inner)))]
            sat, ok = _replay_one_close(tree, xi0, v)
        tally.add(
            sat,
            ok=ok,
            example="" if ok else f"kind={kind} v={v} xi0={xi0.to_string()}",
        )
    return tally.report()


def _suite_fixed_point_bracket(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """The recursion map fixes a point inside (1/16, 3/40), maps 0 to 1/16,
    and pulls 3/40 strictly down."""
    del instances, rng
    tally = _Tally("fixed_point_bracket")
    res = fixed_point_q()
    checks = [
        1 / 16 < res.q < 3 / 40,
        abs(res.residual) <= res.tolerance,
        _recursion_map(0.0) == 1 / 16,
        _recursion_map(3 / 40) < 3 / 40,
    ]
    tally.add(True, ok=all(checks), example=f"q={res.q} residual={res.residual}")
    return tally.report()


def _suite_strong_value_symmetry(
    instances: int, rng: np.random.Generator
) -> ClaimReport:
    """Global negation preserves strong stability and negates every
    opinion, so over all full initial vectors the strong ones split evenly
    by the subject's opinion at time t."""
    del instances, rng
    tally = _Tally("strong_value_symmetry")
    tree = _binary_host(3)
    v = 1
    ids = [int(u) for u in np.flatnonzero(tree.subtree_mask(v))]
    ones = np.ones(tree.n, dtype=np.int8)
    n = tree.n
    mask = (1 << (1 << n)) - 1
    cols0 = [tt_column(u, n) for u in range(n)]
    run = BatchRun(tree, cols0, mask)
    value_at = {0: run.cols[v]}
    for t in (1, 2, 3):
        run.advance()
        value_at[t] = run.cols[v]
    for t in range(4):
        strong_col = 0
        for bits in range(1 << len(ids)):
            xi0 = _extension_vector(ones, ids, bits)
            if not is_strongly_t_stable(tree, xi0, v, t).verdict:
                continue
            col = mask
            for i, u in enumerate(ids):
                col &= cols0[u] if (bits >> i) & 1 else mask ^ cols0[u]
            strong_col |= col
        plus = (strong_col & value_at[t]).bit_count()
        minus = (strong_col & (mask ^ value_at[t])).bit_count()
        tally.add(True, ok=plus == minus, example=f"t={t} +1:{plus} -1:{minus}")
    return tally.report()


# -- registry ----------------------------------------------------------------

Suite = Callable[[int, np.random.Generator], ClaimReport]

STRUCTURAL_SUITES: dict[str, Suite] = {
    "balky_switch_rule": _suite_balky_switch,
    "active_deadline": _suite_active_deadline,
    "weak_value_maintenance": _suite_weak_value,
    "weak_stability_maintenance": _suite_weak_stability,
    "weak_from_grandchild": _suite_weak_from_grandchild,
    "weak_from_child": _suite_weak_from_child,
    "aligned_path_stabilisation": _suite_aligned_path,
    "opposed_path_stabilisation": _suite_opposed_path,
}

ENGINE_SUITES: dict[str, Suite] = {
    "tau_within_budget": _suite_tau_within_budget,
    "flip_has_cause": _suite_flip_has_cause,
    "negation_symmetry": _suite_negation_symmetry,
    "formula_matches_enumeration": _suite_formula_matches_enumeration,
    "witness_attains_tau": _suite_witness_attains_tau,
    "weak_definitions_agree": _suite_weak_definitions,
    "counterexample_replay": _suite_counterexample_replay,
    "fixed_point_bracket": _suite_fixed_point_bracket,
    "strong_value_symmetry": _suite_strong_value_symmetry,
}

ALL_SUITES: dict[str, Suite] = {**STRUCTURAL_SUITES, **ENGINE_SUITES}


def run_claim_suites(
    names: list[str] | None = None,
    instances: int = 1000,
    seed: int = 0,
) -> list[ClaimReport]:
    """Run the selected suites with per-suite deterministic substreams.

    Substreams are keyed by the suite's registry position, so a suite's
    draws do not depend on which other suites run alongside it.
    """
    selected = list(ALL_SUITES) if names is None else list(names)
    unknown = sorted(set(selected) - set(ALL_SUITES))
    if unknown:
        raise MajlabError(f"unknown suites: {', '.join(unknown)}")
    position = {name: i for i, name in enumerate(ALL_SUITES)}
    reports = []
    for name in selected:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(position[name],))
        )
        reports.append(ALL_SUITES[name](instances, rng))
    return reports
