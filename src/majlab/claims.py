"""Randomized property suites for the structural facts behind the package.

Each sampled suite is a check of one random instance (host, initial
opinions, parameters): it reports whether the instance meets the suite's
hypotheses, whether the conclusion holds on it exactly, and a short
reproduction string.  One loop runs a check on every drawn instance and
tallies the outcomes into a ``ClaimReport``: the satisfied count, so a
healthy run is visibly non-vacuous, and the strings of the first few
violations.  Exhaustive or analytic suites ignore the sampling budget and
feed the same tally from a fixed sequence of outcomes.

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
from typing import Callable, Iterable

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
    EXTENSION_BUDGET,
    _extension_batch,
    _extension_vector,
    _strong_ok_bits,
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


def _sampled(**checks: Callable[[np.random.Generator], _Outcome]) -> dict[str, Suite]:
    """One suite per named check, running it on each of ``instances``
    draws from the suite's generator."""

    def suite(name, check) -> Suite:
        return lambda instances, rng: _tally(
            name, (check(rng) for _ in range(instances))
        )

    return {name: suite(name, check) for name, check in checks.items()}


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


def _inner(tree: RootedTree) -> list[int]:
    """Non-root, non-leaf vertices."""
    return [w for w in range(1, tree.n) if not tree.is_leaf(w)]


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


def _balky_switch(rng: np.random.Generator) -> _Outcome:
    """A balky vertex keeps its opinion two steps after any moment at which
    some non-pendant neighbour previews it: xi_s(v) = xi_{s+1}(u) forces
    xi_{s+2}(v) = xi_s(v)."""
    tree = _random_host(rng)
    xi0, res, hist = _run_history(tree, rng)
    pend = tree.pendant
    top = hist.shape[0] - 3
    seen = False
    for v in np.flatnonzero(classify_all(tree) == VertexClass.BALKY).tolist():
        now = hist[: top + 1, v]
        later = hist[2 : top + 3, v]
        for u in tree.neighbours(v).tolist():
            if pend[u]:
                continue
            hyp = now == hist[1 : top + 2, u]
            viol = np.flatnonzero(hyp & (later != now))
            if viol.size:
                s = int(viol[0])
                return True, False, f"n={tree.n} v={v} u={u} s={s} xi0={xi0.to_string()}"
            seen = seen or bool(hyp.any())
    return seen, True, ""


def _active_deadline(rng: np.random.Generator) -> _Outcome:
    """An active vertex never flips after L(v) + 1, where L(v) is the number
    of vertices on the longest path of active vertices starting at v."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    last = stabilise(tree, xi0).last_flip
    bounds = active_path_bounds(tree)
    for v, limit in bounds.items():
        if int(last[v]) > limit + 1:
            return True, False, (
                f"n={tree.n} v={v} L={limit} "
                f"last_flip={int(last[v])} xi0={xi0.to_string()}"
            )
    return bool(bounds), True, ""


# -- structural suites: weak stability on binary hosts ----------------------


def _weak_value(rng: np.random.Generator) -> _Outcome:
    """If v is weakly t1-stable and its parent holds xi_{t1}(v) at every odd
    time strictly between t1 and t2 (same parity), then xi_{t2}(v) = xi_{t1}(v)."""
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
    return sat, ok, f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}"


def _weak_stability(rng: np.random.Generator) -> _Outcome:
    """If v is weakly t1-stable and keeps one opinion at every time of the
    same parity through t2, then v is weakly t2-stable."""
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
    return sat, ok, f"n={tree.n} v={v} t1={t1} t2={t2} xi0={xi0.to_string()}"


def _weak_from_grandchild(rng: np.random.Generator) -> _Outcome:
    """A vertex sharing its time-t opinion with a weakly t-stable grandchild
    is itself weakly t-stable."""
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
    return sat, ok, f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}"


def _weak_from_child(rng: np.random.Generator) -> _Outcome:
    """A vertex whose time-(t+1) opinion matches the time-t opinion of a
    weakly t-stable child is weakly (t+1)-stable."""
    tree = _binary_host(int(rng.integers(2, 4)))
    xi0, res, hist = _run_history(tree, rng)
    inner = _inner(tree)
    v = inner[int(rng.integers(len(inner)))]
    kids = tree.children(v)
    u = int(kids[int(rng.integers(kids.size))])
    t = int(rng.integers(0, 5))
    rising = int(_state_row(hist, res.tau, t + 1)[v]) == int(
        _state_row(hist, res.tau, t)[u]
    )
    sat = rising and _weak(tree, xi0, u, t)
    ok = not sat or _weak(tree, xi0, v, t + 1)
    return sat, ok, f"n={tree.n} v={v} u={u} t={t} xi0={xi0.to_string()}"


def _aligned_path(rng: np.random.Generator) -> _Outcome:
    """On a non-monotone even-length path whose even-position vertices share
    one time-t opinion and whose endpoints are weakly t-stable, every
    even-position vertex is t-stable."""
    tree = _binary_host(int(rng.integers(2, 4)))
    xi0, res, hist = _run_history(tree, rng)
    pick = rng.choice(tree.n - 1, size=2, replace=False) + 1
    a, b = int(pick[0]), int(pick[1])
    path = _tree_path(tree, a, b)
    d = len(path) - 1
    if d < 2 or d % 2 or not _non_monotone(path, tree):
        return _UNSATISFIED
    t = int(rng.integers(0, 4))
    row = _state_row(hist, res.tau, t)
    evens = path[0::2]
    aligned = all(int(row[w]) == int(row[evens[0]]) for w in evens)
    if not (aligned and _weak(tree, xi0, a, t) and _weak(tree, xi0, b, t)):
        return _UNSATISFIED
    for w in evens:
        if not res.is_vertex_t_stable(w, t):
            return True, False, f"n={tree.n} path={path} t={t} w={w} xi0={xi0.to_string()}"
    return True, True, ""


_ONE_CLOSE_MEMO: dict[tuple[int, int, bytes], bool] = {}


def _one_close_memo(tree: RootedTree, xi0: OpinionVector, v: int) -> bool:
    # the verdict depends only on the restriction to the subtree of v
    key = (tree.n, v, xi0.to_signs()[tree.subtree_mask(v)].tobytes())
    hit = _ONE_CLOSE_MEMO.get(key)
    if hit is None:
        hit = is_one_close_to_stability(tree, xi0, v).verdict
        _ONE_CLOSE_MEMO[key] = hit
    return hit


def _opposed_path(rng: np.random.Generator) -> _Outcome:
    """Opposite-opinion endpoints that are weakly 0-stable and 1-close to
    stability confine the path between them: at every even time from t on,
    each even interior vertex agrees with an even neighbour two steps away,
    and the far endpoint is weakly stable or stable."""
    tree = _binary_host(int(rng.integers(2, 4)))
    xi0, res, hist = _run_history(tree, rng)
    inner = _inner(tree)
    pick = rng.choice(len(inner), size=2, replace=False)
    a, b = inner[int(pick[0])], inner[int(pick[1])]
    path = _tree_path(tree, a, b)
    d = len(path) - 1
    if d < 2 or d % 2 or not _non_monotone(path, tree):
        return _UNSATISFIED
    t = 2 * int(rng.integers(0, 2))
    ell = 2 * int(rng.integers(1, d // 2 + 1))
    row_t = _state_row(hist, res.tau, t)
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
        and _weak(tree, xi0, a, 0)
        and _weak(tree, xi0, b, 0)
        and _one_close_memo(tree, xi0, a)
        and _one_close_memo(tree, xi0, b)
    ):
        return _UNSATISFIED
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
            return True, False, (
                f"n={tree.n} path={path} t={t} ell={ell} tp={tp} "
                f"xi0={xi0.to_string()}"
            )
    return True, True, ""


# -- engine suites: cross-checks of module implementations ------------------


def _tau_within_budget(rng: np.random.Generator) -> _Outcome:
    """Every trajectory reaches its 2-periodic tail within floor(|E| - |V|/2)
    steps, and stepping the settled pair swaps its two states."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    res = stabilise(tree, xi0)
    ok = (
        res.tau <= step_budget(tree)
        and step(tree, res.stable_even) == res.stable_odd
        and step(tree, res.stable_odd) == res.stable_even
    )
    return True, ok, f"n={tree.n} tau={res.tau} xi0={xi0.to_string()}"


def _flip_has_cause(rng: np.random.Generator) -> _Outcome:
    """Every flip xi_{t+2}(v) != xi_t(v) with t >= 1 is witnessed by a
    neighbour that itself just flipped onto the new opinion."""
    tree = _random_host(rng)
    xi0, res, hist = _run_history(tree, rng)
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


def _negation_symmetry(rng: np.random.Generator) -> _Outcome:
    """Negating the initial opinions negates the whole trajectory and keeps
    the stabilisation time."""
    tree = _random_host(rng)
    xi0 = OpinionVector.random(tree.n, rng)
    res = stabilise(tree, xi0)
    neg = stabilise(tree, xi0.negated())
    ok = (
        neg.tau == res.tau
        and neg.stable_even == res.stable_even.negated()
        and neg.stable_odd == res.stable_odd.negated()
    )
    return True, ok, f"n={tree.n} xi0={xi0.to_string()}"


def _formula_matches_enumeration(rng: np.random.Generator) -> _Outcome:
    """The closed-form worst case equals full enumeration over initial
    vectors on small random trees."""
    tree = _random_host(rng, low=6, high=14)
    formula = worst_case_tau(tree).tau
    brute, _ = brute_force_tau(tree)
    return True, formula == brute, f"n={tree.n} formula={formula} brute={brute}"


def _witness_attains_tau(rng: np.random.Generator) -> _Outcome:
    """The synthesized witness vector achieves the reported worst case."""
    tree = _random_host(rng)
    report = worst_case_tau(tree)
    achieved = stabilise(tree, report.witness).tau
    return (
        True,
        achieved == report.tau,
        f"n={tree.n} tau={report.tau} achieved={achieved}",
    )


def _weak_definition_verdicts(
    tree: RootedTree, v: int, ids: np.ndarray, base: np.ndarray, k_max: int = 9
) -> tuple[bool, bool, bool]:
    """Verdicts of the three weak-stability characterisations for one
    subtree pattern.

    ``ids`` is the subtree of v and ``base`` holds the pattern chi on it.
    Returns (existential, canonical, parent-pinned): whether some
    extension keeps v 0-stable, whether the constant extension does, and
    whether every extension whose parent holds chi(v) at all odd times up
    to k returns v to chi(v) at time k + 1, for every odd k <= k_max.
    """
    # every extension, whatever the count: the sweep is exhaustive by design
    _, width, mask, cols = _extension_batch(tree, base, ids, 1 << tree.n)
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

    def outcomes():
        for h in range(1, max_height + 1):
            tree = _binary_host(h)
            ones = np.ones(tree.n, dtype=np.int8)
            for v in range(1, tree.n):
                ids = np.flatnonzero(tree.subtree_mask(v))
                for bits in range(1 << ids.size):
                    base = _extension_vector(ones, ids, bits).to_signs()
                    verdicts = _weak_definition_verdicts(tree, v, ids, base, k_max)
                    yield (
                        True,
                        len(set(verdicts)) == 1,
                        f"h={h} v={v} pattern={bits:0{ids.size}b} verdicts={verdicts}",
                    )

    return _tally("weak_definitions_agree", outcomes())


def _suite_weak_definitions(instances: int, rng: np.random.Generator) -> ClaimReport:
    # exhaustive at reduced height; the full-height sweep is a test target
    del instances, rng
    return weak_definition_sweep(max_height=2)


def _counterexample_replay(rng: np.random.Generator) -> _Outcome:
    """Every negative strong / (<=t) / 1-close verdict returns a certificate
    extension that, replayed through the plain simulator, exhibits the
    claimed failure."""
    tree = _binary_host(2)
    inner = _inner(tree)
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
    cert = verdict.certificate
    sim = stabilise(tree, cert, keep_history=True)
    hist = np.stack(sim.history)
    if kind == 0:
        ok = not sim.is_vertex_t_stable(v, t)
    elif kind == 1:
        values = {int(_state_row(hist, sim.tau, s)[v]) for s in range(t % 2, t + 1, 2)}
        ok = len(values) > 1
    else:  # the first even-time flip must land v weakly stable
        start = int(hist[0][v])
        flips = (s for s in range(2, hist.shape[0], 2) if int(hist[s][v]) != start)
        first = next(flips, None)
        ok = first is not None and not _weak(tree, cert, v, first)
    return True, ok, f"kind={kind} v={v} xi0={xi0.to_string()}"


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
    by the subject's opinion at time t."""
    del instances, rng
    tree, v = _binary_host(3), 1
    n = tree.n
    mask = (1 << (1 << n)) - 1
    cols0 = [tt_column(u, n) for u in range(n)]  # the whole truth table
    run = BatchRun(tree, cols0, mask)
    value_at = [run.cols[v]]
    for _ in range(3):
        run.advance()
        value_at.append(run.cols[v])
    del run  # 2^22-lane states: free them before the strong runs
    outcomes = []
    for t, value in enumerate(value_at):
        strong, _ = _strong_ok_bits(tree, cols0, mask, v, t, EXTENSION_BUDGET)
        plus = (strong & value).bit_count()
        minus = strong.bit_count() - plus
        outcomes.append((True, plus == minus, f"t={t} +1:{plus} -1:{minus}"))
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


def run_claim_suites(
    names: list[str] | None = None,
    instances: int = 1000,
    seed: int = 0,
) -> list[ClaimReport]:
    """Run the selected suites with per-suite deterministic substreams.

    Substreams are keyed by the suite's registry position, so a suite's
    draws do not depend on which other suites run alongside it.
    """
    if instances < 1:
        raise MajlabError(f"instances must be positive, got {instances}")
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
