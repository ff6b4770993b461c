"""Stability predicates against exhaustive extension enumeration.

Both hosts are small enough to quantify over every extension with the
scalar engine, so each decider is checked against a literal transcription
of its definition.
"""

import networkx as nx
import numpy as np
import pytest

from majlab.bitsliced import BatchRun, adjacency_lists
from majlab.dynamics import OpinionVector, _step_signs, stabilise, step_budget
from majlab.errors import (
    BadHostError,
    BadTimeError,
    BadVertexError,
    BudgetExceededError,
    LengthMismatchError,
)
from majlab.stability import (
    _PinnedSubtree,
    is_le_t_stable,
    is_one_close_to_stability,
    is_strongly_t_stable,
    is_weakly_t_stable,
)
from majlab.trees import RootedTree, build_perfect_tree, reroot

# binary host whose depth-1 vertex has height 2: strong verdicts go both ways
HOST = RootedTree.from_edges(
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7)]
)
# 4-ary host for the (<= t) decider, which has no binary restriction
KARY = RootedTree.from_edges(
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8), (1, 9)]
)
PERFECT2 = build_perfect_tree(2, 2)

# frozen instance where the two extreme runs settle v at opposite opinions
EXTREMES_OPEN = (HOST, 1, 2, 1)  # (host, v, pattern bits, t)


def subtree_ids(tree, v):
    return [int(u) for u in np.flatnonzero(tree.subtree_mask(v))]


def pattern_vector(tree, ids, bits, outside_fill=1):
    signs = np.full(tree.n, outside_fill, dtype=np.int8)
    for i, u in enumerate(ids):
        signs[u] = 1 if (bits >> i) & 1 else -1
    return OpinionVector.from_signs(signs)


def extensions(tree, v, signs):
    """Every full vector that agrees with ``signs`` on the subtree of v."""
    outside = [u for u in range(tree.n) if u not in set(subtree_ids(tree, v))]
    for fill in range(1 << len(outside)):
        full = np.asarray(signs, dtype=np.int8).copy()
        for j, u in enumerate(outside):
            full[u] = 1 if (fill >> j) & 1 else -1
        yield OpinionVector.from_signs(full)


def tail_state(hist, s):
    if s < len(hist):
        return hist[s]
    return hist[len(hist) - 2 + ((s - len(hist)) % 2)]


def strong_oracle(tree, xi0, v, t):
    return all(
        stabilise(tree, ext).is_vertex_t_stable(v, t)
        for ext in extensions(tree, v, xi0.to_signs())
    )


def weak_oracle(tree, xi0, v, t):
    hist = stabilise(tree, xi0, keep_history=True).history
    state = tail_state(hist, t)
    return any(
        stabilise(tree, ext).is_vertex_t_stable(v, 0)
        for ext in extensions(tree, v, state)
    )


def le_t_oracle(tree, xi0, v, t):
    for ext in extensions(tree, v, xi0.to_signs()):
        hist = stabilise(tree, ext, keep_history=True).history
        values = {int(tail_state(hist, s)[v]) for s in range(t % 2, t + 1, 2)}
        if len(values) > 1:
            return False
    return True


def one_close_oracle(tree, xi0, v):
    for ext in extensions(tree, v, xi0.to_signs()):
        hist = stabilise(tree, ext, keep_history=True).history
        flip = next(
            (s for s in range(2, len(hist), 2) if hist[s][v] != hist[s - 2][v]),
            None,
        )
        if flip is not None and not weak_oracle(tree, ext, v, flip):
            return False
    return True


def strong_extremes(tree, xi0, v, t):
    """The strong verdict of the two extremes alone, None where they leave
    it open: the decider with no budget for enumeration."""
    try:
        got = is_strongly_t_stable(tree, xi0, v, t, budget=0)
    except BudgetExceededError:
        return None
    assert got.method == "extremes"
    return got.verdict


def all_patterns(tree, v):
    ids = subtree_ids(tree, v)
    for bits in range(1 << len(ids)):
        yield pattern_vector(tree, ids, bits)


def test_strong_matches_enumeration_oracle():
    verdicts = set()
    for tree, v in ((HOST, 1), (HOST, 4), (PERFECT2, 1)):
        for t in range(5):
            for xi0 in all_patterns(tree, v):
                got = is_strongly_t_stable(tree, xi0, v, t)
                assert got.verdict == strong_oracle(tree, xi0, v, t)
                verdicts.add(got.verdict)
    assert verdicts == {True, False}


def test_strong_depends_only_on_the_subtree_restriction():
    ids = subtree_ids(HOST, 1)
    for bits in (0, 2, 5, 31):
        plus = pattern_vector(HOST, ids, bits, outside_fill=1)
        minus = pattern_vector(HOST, ids, bits, outside_fill=-1)
        for t in range(3):
            assert (
                is_strongly_t_stable(HOST, plus, 1, t).verdict
                == is_strongly_t_stable(HOST, minus, 1, t).verdict
            )


def test_strong_is_monotone_in_t():
    for xi0 in all_patterns(HOST, 1):
        for t in range(3):
            if is_strongly_t_stable(HOST, xi0, 1, t).verdict:
                assert is_strongly_t_stable(HOST, xi0, 1, t + 2).verdict


def test_strong_verdict_certificates():
    seen_false = 0
    for xi0 in all_patterns(HOST, 1):
        got = is_strongly_t_stable(HOST, xi0, 1, 0)
        assert got.kind == "strong" and got.vertex == 1 and got.t == 0
        assert got.checked >= 2
        if got.verdict:
            assert got.certificate is None
            assert got.method in ("extremes", "brute-force")
        else:
            seen_false += 1
            cert = got.certificate
            inside = subtree_ids(HOST, 1)
            assert all(cert.sign(u) == xi0.sign(u) for u in inside)
            assert not stabilise(HOST, cert).is_vertex_t_stable(1, 0)
    assert seen_false > 0


def test_strong_extreme_runs_are_three_valued():
    outcomes = set()
    for tree, v in ((HOST, 1), (PERFECT2, 1)):
        for t in range(4):
            for xi0 in all_patterns(tree, v):
                fast = strong_extremes(tree, xi0, v, t)
                full = is_strongly_t_stable(tree, xi0, v, t)
                outcomes.add(fast)
                if fast is None:
                    assert full.method == "brute-force"
                else:
                    assert fast == full.verdict
    assert outcomes == {True, False, None}


def test_strong_budget_applies_to_enumeration_only():
    tree, v, bits, t = EXTREMES_OPEN
    xi0 = pattern_vector(tree, subtree_ids(tree, v), bits)
    assert strong_extremes(tree, xi0, v, t) is None
    got = is_strongly_t_stable(tree, xi0, v, t)
    assert got.verdict is True and got.method == "brute-force"
    assert got.checked == 2 + 8  # two extremes plus 2^3 outside fills
    with pytest.raises(BudgetExceededError):
        is_strongly_t_stable(tree, xi0, v, t, budget=2)
    # decisive extremes need no enumeration, so the budget never triggers
    for bits in range(32):
        cand = pattern_vector(tree, subtree_ids(tree, v), bits)
        fast = strong_extremes(tree, cand, v, 0)
        if fast is not None:
            got = is_strongly_t_stable(tree, cand, v, 0, budget=2)
            assert got.verdict == fast and got.method == "extremes"
            break
    else:
        pytest.fail("no extremes-decisive pattern found")


def test_weak_matches_enumeration_oracle():
    rng = np.random.default_rng(12)
    for tree, v in ((HOST, 1), (HOST, 4), (PERFECT2, 1)):
        for _ in range(8):
            xi0 = OpinionVector.random(tree.n, rng)
            for t in range(4):
                got = is_weakly_t_stable(tree, xi0, v, t)
                assert got.verdict == weak_oracle(tree, xi0, v, t)


def test_weak_negative_exists_and_is_confirmed_by_enumeration():
    tree = build_perfect_tree(2, 3)
    ids = subtree_ids(tree, 1)
    verdicts = [
        is_weakly_t_stable(tree, pattern_vector(tree, ids, bits), 1, 0).verdict
        for bits in range(1 << len(ids))
    ]
    assert sum(verdicts) == 120  # 15/16 of the 128 subtree patterns
    bad = verdicts.index(False)
    assert not weak_oracle(tree, pattern_vector(tree, ids, bad), 1, 0)
    good = verdicts.index(True)
    assert weak_oracle(tree, pattern_vector(tree, ids, good), 1, 0)


def test_weak_certificate_is_a_replayable_extension():
    rng = np.random.default_rng(13)
    for _ in range(10):
        xi0 = OpinionVector.random(HOST.n, rng)
        got = is_weakly_t_stable(HOST, xi0, 1, 2)
        assert got.method == "canonical"
        replay = stabilise(HOST, got.certificate)
        assert replay.is_vertex_t_stable(1, 0) == got.verdict


def test_le_t_matches_enumeration_oracle():
    verdicts = set()
    for tree, v, ts in ((HOST, 1, (2, 3, 4)), (KARY, 1, (2, 3))):
        for t in ts:
            for xi0 in all_patterns(tree, v):
                got = is_le_t_stable(tree, xi0, v, t)
                assert got.verdict == le_t_oracle(tree, xi0, v, t)
                verdicts.add(got.verdict)
                if not got.verdict:
                    # certificate exhibits a flip at or before t, at t's parity
                    hist = stabilise(tree, got.certificate, keep_history=True).history
                    vals = {int(tail_state(hist, s)[v]) for s in range(t % 2, t + 1, 2)}
                    assert len(vals) > 1
    assert verdicts == {True, False}


def test_le_t_extreme_runs_decide_even_t(exhaustive_suite, random_suite):
    # with no budget for enumeration the extremes decide even t, on the
    # depth-t cone, and a counterexample is the subtree's opinions with
    # one changing extreme's constant outside
    cases = [
        (tree, v, xi0)
        for tree, v in ((HOST, 1), (KARY, 1), (PERFECT2, 1))
        for xi0 in all_patterns(tree, v)
    ]
    rng = np.random.default_rng(20261022)
    # four draws on every odd-degree tree of at most 12 vertices, and one
    # on each random tree, whose subtrees reach below the depth-t cone
    draws = [(tree, 4) for tree in exhaustive_suite] + [(tree, 1) for tree in random_suite]
    for tree, count in draws:
        for xi0 in (OpinionVector.random(tree.n, rng) for _ in range(count)):
            cases += [(tree, v, xi0) for v in range(tree.n) if v != tree.root]
    negative = 0
    for tree, v, xi0 in cases:
        inside = tree.subtree_mask(v)
        for t in (2, 4):
            got = is_le_t_stable(tree, xi0, v, t, budget=0)
            want = is_le_t_stable(tree, xi0, v, t)
            assert want.method == "brute-force"
            assert (got.kind, got.vertex, got.t, got.verdict) == ("le_t", v, t, want.verdict)
            assert (got.method, got.checked) == ("extremes", 2)
            if got.verdict:
                assert got.certificate is None
                continue
            negative += 1
            cert = got.certificate.to_signs()
            assert np.array_equal(cert[inside], xi0.to_signs()[inside])
            assert len(set(cert[~inside].tolist())) == 1
            hist = stabilise(tree, got.certificate, keep_history=True).history
            assert len({int(tail_state(hist, s)[v]) for s in range(0, t + 1, 2)}) > 1
    assert 0 < negative < 2 * len(cases)


def test_le_t_allows_leaves_and_kary_hosts():
    xi0 = OpinionVector.filled(KARY.n, 1)
    # neither the leaf subject nor the 4-ary host is rejected
    assert is_le_t_stable(KARY, xi0, 6, 2).verdict == le_t_oracle(KARY, xi0, 6, 2)
    assert is_le_t_stable(KARY, xi0, 1, 3).verdict == le_t_oracle(KARY, xi0, 1, 3)


def test_one_close_matches_enumeration_oracle():
    for xi0 in all_patterns(HOST, 1):
        got = is_one_close_to_stability(HOST, xi0, 1)
        assert got.verdict == one_close_oracle(HOST, xi0, 1)
    for xi0 in all_patterns(PERFECT2, 1):
        got = is_one_close_to_stability(PERFECT2, xi0, 1)
        assert got.verdict == one_close_oracle(PERFECT2, xi0, 1)


def test_vertex_and_time_preconditions():
    xi0 = OpinionVector.filled(HOST.n, 1)
    with pytest.raises(BadVertexError):
        is_strongly_t_stable(HOST, xi0, HOST.root, 0)
    with pytest.raises(BadVertexError):
        is_weakly_t_stable(HOST, xi0, HOST.n, 0)
    with pytest.raises(BadVertexError):
        is_strongly_t_stable(HOST, xi0, 7, 0)  # leaf
    with pytest.raises(BadVertexError):
        is_one_close_to_stability(HOST, xi0, 7)
    with pytest.raises(BadTimeError):
        is_weakly_t_stable(HOST, xi0, 1, -1)
    with pytest.raises(BadTimeError):
        is_le_t_stable(HOST, xi0, 1, 1)
    # past the budget only even t is decided, by the extremes
    with pytest.raises(BudgetExceededError):
        is_le_t_stable(HOST, xi0, 1, 3, budget=0)


@pytest.mark.parametrize(
    "decide,least,binary",
    [
        (is_weakly_t_stable, 0, True),
        (is_strongly_t_stable, 0, True),
        (is_one_close_to_stability, None, True),
        (is_le_t_stable, 2, False),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_each_decider_checks_vertex_host_time_then_length(decide, least, binary):
    # one check per query, in one order: each input below breaks every
    # later check too, and only the first broken one is reported
    short = OpinionVector.filled(HOST.n - 1, 1)
    time = () if least is None else (least - 1,)
    wide = reroot(HOST, 7) if binary else HOST  # a root of one child
    with pytest.raises(BadVertexError, match="root"):
        decide(wide, short, wide.root, *time)
    if binary:
        with pytest.raises(BadHostError):
            decide(wide, short, 1, *time)
    if least is not None:
        with pytest.raises(BadTimeError, match=f"^t must be >= {least}, got {least - 1}$"):
            decide(HOST, short, 1, least - 1)
        with pytest.raises(BadTimeError, match=f"^t must be >= {least}, got None$"):
            decide(HOST, short, 1, None)
    with pytest.raises(LengthMismatchError):
        decide(HOST, short, 1, *(() if least is None else (least,)))


def test_binary_host_restriction():
    # a root of five children; a root of one child; a root of three
    # children above a vertex of four
    wide_below = RootedTree.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (1, 7)]
    )
    for tree in (KARY, reroot(HOST, 7), wide_below):
        xi0 = OpinionVector.filled(tree.n, 1)
        with pytest.raises(BadHostError, match="root has three children"):
            is_weakly_t_stable(tree, xi0, 1, 0)
        with pytest.raises(BadHostError):
            is_strongly_t_stable(tree, xi0, 1, 0)
        with pytest.raises(BadHostError):
            is_one_close_to_stability(tree, xi0, 1)


def assert_pinned_runs_match_the_host(tree, v, cols, mask, fill):
    """The compact run of ``_PinnedSubtree`` against the whole host with
    every outside vertex set to ``fill``, step by step to the end."""
    inside = tree.subtree_mask(v)
    start = [c if inside[u] else fill for u, c in enumerate(cols)]
    full = BatchRun(adjacency_lists(tree), start, mask, step_budget(tree))
    sub = _PinnedSubtree(tree, v)
    run = sub.run(cols, mask, fill)
    assert sub.ids[0] == v and sorted(sub.ids) == np.flatnonzero(inside).tolist()
    assert run.limit == full.limit
    watched = sub.ids + ([int(tree.parent[v])] if tree.parent[v] >= 0 else [])
    assert len(watched) == run.n
    while True:
        assert run.cols == [full.cols[u] for u in watched], (v, run.t)
        assert run.undecided == full.undecided
        if not full.undecided:
            break
        full.advance()
        run.advance()
    assert run.t == full.t


def test_pinned_subtree_runs_match_full_host_runs(exhaustive_suite, random_suite):
    rng = np.random.default_rng(20261018)
    width = 24
    mask = (1 << width) - 1
    hosts = [*exhaustive_suite, *random_suite, build_perfect_tree(2, 3), build_perfect_tree(4, 2)]
    # rooted at a pendant vertex, the root's child has a parent of degree 1
    hosts += [reroot(tree, int(np.flatnonzero(tree.pendant)[0])) for tree in hosts]
    pendant_parents = 0
    for tree in hosts:
        for v in range(tree.n):
            cols = [int(x) for x in rng.integers(0, 1 << width, size=tree.n)]
            lane_fill = int(rng.integers(0, 1 << width))
            for fill in (0, mask, lane_fill):
                assert_pinned_runs_match_the_host(tree, v, cols, mask, fill)
            pendant_parents += tree.parent[v] >= 0 and tree.pendant[tree.parent[v]]
    assert pendant_parents >= len(hosts) // 2


def test_light_cones_match_full_host_runs_up_to_their_horizon(exhaustive_suite, random_suite):
    """With ``reach`` r the cone holds the outside vertices within r of
    the parent, and a run from the host's own start is exact on the
    subtree up to time r + 1.  Cut at ``depth`` d, a run with the outside
    filled is exact at the subject up to time d."""
    rng = np.random.default_rng(20261019)
    width = 16
    mask = (1 << width) - 1
    for tree in [*exhaustive_suite, *random_suite[:60], build_perfect_tree(2, 4)]:
        for v in range(tree.n):
            cols = [int(x) for x in rng.integers(0, 1 << width, size=tree.n)]
            fill = int(rng.integers(0, 1 << width))
            p = int(tree.parent[v])
            inside = set(subtree_ids(tree, v))
            filled = [c if u in inside else fill for u, c in enumerate(cols)]
            graph = nx.Graph(tree.edges())
            dist = nx.single_source_shortest_path_length(graph, p) if p >= 0 else {}
            adj, budget = adjacency_lists(tree), step_budget(tree)
            cases = []  # (full run, cone run, watched positions, horizon)
            for reach in (0, 1, 2):
                sub = _PinnedSubtree(tree, v, reach=reach)
                near = [u for u, d in dist.items() if d <= reach and u not in inside]
                assert sorted(sub.outside) == sorted(near)
                assert sub.outside[:1] == ([p] if p >= 0 else [])
                full = BatchRun(adj, cols, mask, budget)
                cases.append((full, sub.run(cols, mask), sub.ids, reach + 1))
            for depth in (1, 2, 3):
                sub = _PinnedSubtree(tree, v, depth=depth)
                full = BatchRun(adj, filled, mask, budget)
                cases.append((full, sub.run(cols, mask, fill), [v], depth))
            for full, run, watched, horizon in cases:
                for _ in range(horizon):
                    full.advance()
                    run.advance()
                    assert run.cols[: len(watched)] == [full.cols[u] for u in watched], v



def two_loop_pinned_subtree(tree, v, depth=None, reach=0):
    """(ids, outside, adj) of ``_PinnedSubtree`` built as it was with two
    loops: a BFS over child lists (made here from the parent pointers,
    ascending) cut at ``depth``, then a BFS over neighbour lists from p
    away from v, to ``reach``."""
    kids = [[] for _ in range(tree.n)]
    for u, w in enumerate(tree.parent.tolist()):
        if w >= 0:
            kids[w].append(u)
    ids, adj = [int(v)], [[]]
    end, level = 1, 0
    for i, u in enumerate(ids):
        if i == end:
            end, level = len(ids), level + 1
        if level == depth:
            if kids[u]:
                adj[i] = [i]
            continue
        for c in kids[u]:
            adj[i].append(len(ids))
            adj.append([i])
            ids.append(c)
    p = int(tree.parent[v])
    # (vertex, the neighbour it is reached from, that one's position,
    # distance from p), in BFS order from p away from v
    ball = [(p, v, 0, 0)] if p >= 0 else []
    if ball:
        adj[0].append(len(ids))
    for j, (w, prev, back, d) in enumerate(ball):
        here = len(ids) + j
        beyond = [u for u in tree.neighbours(w).tolist() if u != prev]
        if d == reach:
            adj.append([here] if beyond else [back])
            continue
        first = len(ids) + len(ball)
        adj.append([back, *range(first, first + len(beyond))])
        ball += [(u, w, here, d + 1) for u in beyond]
    return ids, [w for w, *_ in ball], adj


def test_pinned_subtree_matches_the_two_loop_build(exhaustive_suite, random_suite):
    perfect = [build_perfect_tree(2, 4), build_perfect_tree(4, 3)]
    for tree in [*exhaustive_suite, *random_suite[:60], *perfect]:
        for v in range(tree.n):
            for depth in (None, 1, 2, 3):
                for reach in (0, 1, 2):
                    sub = _PinnedSubtree(tree, v, depth=depth, reach=reach)
                    want = two_loop_pinned_subtree(tree, v, depth, reach)
                    assert (sub.ids, sub.outside, sub.adj) == want, (v, depth, reach)


class SmallReads(np.ndarray):
    """An array whose ``tolist`` refuses more than 8 elements."""

    def tolist(self):
        if self.size > 8:
            raise AssertionError(f"tolist of {self.size} elements")
        return super().tolist()


def test_light_cones_convert_only_the_rows_they_keep():
    host = build_perfect_tree(2, 14)
    v = int(host.parent[host.parent[host.n - 1]])  # two levels above the leaves
    cases = [{"reach": 0}, {"reach": 2}, {"depth": 1}]
    want = [_PinnedSubtree(host, v, **kwargs).adj for kwargs in cases]
    mask = host.subtree_mask(v)
    for name in RootedTree.__slots__:
        if isinstance(getattr(host, name), np.ndarray):
            setattr(host, name, getattr(host, name).view(SmallReads))
    assert [_PinnedSubtree(host, v, **kwargs).adj for kwargs in cases] == want
    assert (host.subtree_mask(v) == mask).all()

# -- the int8 single-trajectory predicates that the batched layer replaced ---


def int8_weak(tree, xi0, v, t):
    """(verdict, certificate) of the canonical run on the whole host: the
    time-t state on the subtree, v's time-t opinion everywhere else."""
    signs = xi0.to_signs()
    for _ in range(t):
        signs = _step_signs(tree, signs)
    canonical = OpinionVector.from_signs(np.where(tree.subtree_mask(v), signs, signs[v]))
    return bool(stabilise(tree, canonical).last_flip_even[v] <= 0), canonical


def int8_strong_extremes(tree, xi0, v, t):
    """(verdict or None, counterexample or None) of the two extreme
    extensions run on the whole host, the all-minus one first."""
    inside = tree.subtree_mask(v)
    settled = []
    for fill in (-1, 1):
        xi = OpinionVector.from_signs(np.where(inside, xi0.to_signs(), fill))
        res = stabilise(tree, xi)
        if not res.is_vertex_t_stable(v, t):
            return False, xi
        settled.append((res.stable_odd if t & 1 else res.stable_even).sign(v))
    return (True if settled[0] == settled[1] else None), None


def int8_le_t_extremes(tree, xi0, v, t):
    """(<= t)-stability at even t from the extremes, two int8 steps at a time."""
    inside = tree.subtree_mask(v)
    for fill in (-1, 1):
        signs = np.where(inside, xi0.to_signs(), fill).astype(np.int8)
        start = signs[v]
        for _ in range(t // 2):
            nxt = _step_signs(tree, _step_signs(tree, signs))
            if nxt[v] != start:
                return False
            if np.array_equal(nxt, signs):
                break
            signs = nxt
    return True


def cert_text(cert):
    return "-" if cert is None else cert.to_string()


def test_weak_and_strong_match_the_int8_runs():
    rng = np.random.default_rng(20261019)
    hosts = []
    for tree in (HOST, PERFECT2, build_perfect_tree(2, 3)):
        hosts += [reroot(tree, int(r)) for r in np.flatnonzero(tree.degree == 3)]
    assert len(hosts) == 3 + 4 + 10
    outcomes = set()
    for tree in hosts:
        for xi0 in (OpinionVector.random(tree.n, rng) for _ in range(3)):
            for v in range(tree.n):
                if v == tree.root:
                    continue
                for t in range(5):
                    got = is_weakly_t_stable(tree, xi0, v, t)
                    ok, cert = int8_weak(tree, xi0, v, t)
                    assert (got.verdict, cert_text(got.certificate)) == (ok, cert.to_string())
                    if tree.is_leaf(v):
                        continue
                    fast, cert = int8_strong_extremes(tree, xi0, v, t)
                    assert strong_extremes(tree, xi0, v, t) is fast
                    got = is_strongly_t_stable(tree, xi0, v, t)
                    if fast is None:
                        assert got.method == "brute-force"
                    else:
                        assert (got.verdict, got.method) == (fast, "extremes")
                        assert cert_text(got.certificate) == cert_text(cert)
                    outcomes.add(fast)
    assert outcomes == {True, False, None}


def test_le_t_extremes_match_the_int8_runs(exhaustive_suite, random_suite):
    rng = np.random.default_rng(20261020)
    verdicts = set()
    for tree in [*exhaustive_suite, *random_suite, build_perfect_tree(4, 2)]:
        xi0 = OpinionVector.random(tree.n, rng)
        for v in range(tree.n):
            if v == tree.root:
                continue
            for t in (2, 4):
                got = is_le_t_stable(tree, xi0, v, t, budget=0).verdict
                assert got is int8_le_t_extremes(tree, xi0, v, t)
                verdicts.add(got)
    assert verdicts == {True, False}
