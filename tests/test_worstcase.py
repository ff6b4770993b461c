"""Worst-case stabilisation time: formula, brute force, and witnesses."""

import numpy as np
import pytest

from majlab.dynamics import OpinionVector, stabilise, step_budget
from majlab.errors import BadPathError, BudgetExceededError, TooSmallError
from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import (
    RootedTree,
    VertexClass,
    build_perfect_tree,
    _bfs_tree,
    classify_all,
    reroot,
)
from majlab.worstcase import (
    _NEG,
    _path_scores,
    _terminal_scores,
    active_path_bounds,
    brute_force_tau,
    worst_case_tau,
    worst_case_witness,
)

STAR6 = RootedTree.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
# two degree-3 centres, two pendant leaves each
DOUBLE_STAR = RootedTree.from_edges([(2, 0), (2, 1), (2, 3), (3, 4), (3, 5)], root=2)


@pytest.fixture(scope="module")
def small_suite(exhaustive_suite):
    return [tree for tree in exhaustive_suite if tree.n <= 8]


def test_formula_matches_brute_force_on_small_trees(small_suite):
    assert small_suite, "exhaustive suite must reach n=8"
    for tree in small_suite:
        report = worst_case_tau(tree)
        tau, argmax = brute_force_tau(tree)
        assert report.tau == tau
        assert stabilise(tree, argmax).tau == tau
        assert report.tau <= step_budget(tree)


def test_witness_attains_tau_and_follows_the_path(small_suite):
    for tree in small_suite:
        report = worst_case_tau(tree)
        res = stabilise(tree, report.witness, keep_history=True)
        assert res.tau == report.tau
        path = report.argmax.vertices
        for j, v in enumerate(path):
            for t in range(j + 2):
                assert res.history[t][v] == 1
            assert res.history[j + 2][v] == -1


def test_argmax_path_shape(small_suite):
    for tree in small_suite:
        report = worst_case_tau(tree)
        path = report.argmax
        assert path.t_value == report.tau
        assert path.n == len(path.vertices)
        assert report.tau == path.n + int(path.end_adjacent_to_leaf)
        for u, v in zip(path.vertices, path.vertices[1:]):
            assert u in (int(w) for w in tree.neighbours(v))


@pytest.mark.parametrize(
    "k,h,expected",
    [(2, 2, 1), (2, 3, 3), (2, 4, 5), (4, 2, 1), (4, 3, 3)],
)
def test_perfect_tree_closed_form(k, h, expected):
    report = worst_case_tau(build_perfect_tree(k, h))
    assert report.tau == expected == 2 * h - 3


def test_brute_force_blocks_agree_with_one_block(small_suite, monkeypatch):
    trees = [tree for tree in small_suite if tree.n >= 6]
    whole = [brute_force_tau(tree) for tree in trees]
    monkeypatch.setattr("majlab.worstcase._BRUTE_FORCE_BLOCK_BITS", 2)
    assert [brute_force_tau(tree) for tree in trees] == whole


def test_known_small_hosts():
    assert worst_case_tau(STAR6).tau == 1
    assert brute_force_tau(STAR6)[0] == 1
    assert worst_case_tau(DOUBLE_STAR).tau == 1
    assert brute_force_tau(DOUBLE_STAR)[0] == 1


def test_per_vertex_bounds_cap_last_flips():
    rng = np.random.default_rng(11)
    tree = build_perfect_tree(2, 3)
    report = worst_case_tau(tree)
    assert report.per_vertex_bound == active_path_bounds(tree)
    for _ in range(25):
        res = stabilise(tree, OpinionVector.random(tree.n, rng))
        for v, bound in report.per_vertex_bound.items():
            assert int(res.last_flip[v]) <= bound + 1


def _longest_active_path(tree, active, v, came=-1):
    """Vertices on the longest simple path of active vertices from v (DFS)."""
    return 1 + max(
        (
            _longest_active_path(tree, active, int(x), v)
            for x in tree.neighbours(v)
            if x != came and active[x]
        ),
        default=0,
    )


def test_active_path_bounds_match_a_literal_dfs(random_suite):
    # the small random trees have few active vertices; larger ones have long
    # active paths
    rng = np.random.default_rng(5)
    larger = [random_odd_tree(random_even_size(40, 80, rng), rng) for _ in range(100)]
    perfect = [build_perfect_tree(k, h) for k, h in ((2, 3), (2, 5), (4, 3))]
    long_paths = 0
    for tree in random_suite + larger + perfect:
        active = classify_all(tree) == VertexClass.ACTIVE
        want = {
            v: _longest_active_path(tree, active, v) for v in range(tree.n) if active[v]
        }
        assert active_path_bounds(tree) == want
        long_paths += sum(length >= 3 for length in want.values())
    assert long_paths >= 50


def candidate_paths(tree):
    """Every candidate path with its score, by DFS from each vertex:
    interior vertices active, the end not passive, and one more step when
    the end touches a pendant vertex."""
    codes = classify_all(tree)
    paths = []

    def extend(path):
        end = path[-1]
        if codes[end] != VertexClass.PASSIVE:
            touches = any(tree.degree[x] == 1 for x in tree.neighbours(end))
            paths.append((tuple(path), len(path) + touches))
        if codes[end] == VertexClass.ACTIVE:
            for x in tree.neighbours(end):
                if int(x) not in path:
                    extend(path + [int(x)])

    for v in range(tree.n):
        extend([v])
    return paths


def test_path_scores_match_a_literal_candidate_path_oracle(random_suite, exhaustive_suite):
    rerooted = [reroot(tree, tree.n - 1) for tree in random_suite[:100]]
    for tree in exhaustive_suite + random_suite + rerooted:
        paths = candidate_paths(tree)
        codes = classify_all(tree)
        active = codes == VertexClass.ACTIVE
        full = _path_scores(tree, active, _terminal_scores(tree, codes))[2]
        best = [_NEG] * tree.n
        for path, score in paths:
            best[path[0]] = max(best[path[0]], score)
        assert full == best
        # the argmax is the smallest maximising sequence; a prefix sorts
        # before its extensions
        tau = max(score for _, score in paths)
        want = min(path for path, score in paths if score == tau)
        assert worst_case_tau(tree).argmax.vertices == want



def child_lists(parent):
    """Each vertex's children, ascending, from its parent pointers."""
    kids = [[] for _ in parent]
    for u, p in enumerate(parent):
        if p >= 0:
            kids[p].append(u)
    return kids


def child_list_path_scores(tree, active, base):
    """``_path_scores`` over Python child lists: each vertex scans its
    children for its down score, its top two, and its children's up scores."""
    kids = child_lists(tree.parent.tolist())
    active, order, base = active.tolist(), tree.order.tolist(), base.tolist()
    down = base[:]
    for v in reversed(order):
        if active[v] and kids[v]:
            down[v] = max(base[v], 1 + max(down[c] for c in kids[v]))
    up = [_NEG] * tree.n
    full = base[:]
    for u in order:
        if not active[u]:
            for c in kids[u]:
                up[c] = base[u]
            continue
        best1 = best2 = _NEG
        for c in kids[u]:
            d = down[c]
            if d > best1:
                best1, best2 = d, best1
            elif d > best2:
                best2 = d
        full[u] = max(base[u], 1 + max(up[u], best1))
        for c in kids[u]:
            up[c] = max(base[u], 1 + max(up[u], best2 if down[c] == best1 else best1))
    return down, up, full


def test_path_scores_match_the_child_list_sweep(random_suite, exhaustive_suite):
    perfect = [build_perfect_tree(k, h) for k, h in ((2, 6), (4, 4), (6, 3))]
    rerooted = [
        reroot(tree, v)
        for tree in random_suite[:100] + perfect
        for v in (1, tree.n // 2, tree.n - 1)
    ]
    for tree in exhaustive_suite + random_suite + perfect + rerooted:
        codes = classify_all(tree)
        active = codes == VertexClass.ACTIVE
        for base in (_terminal_scores(tree, codes), active.astype(np.int64)):
            want = child_list_path_scores(tree, active, base)
            assert _path_scores(tree, active, base) == want

def per_subtree_witness(tree, path):
    """The witness recipe written per subtree: one mask per off-path child."""
    rt = reroot(tree, path[-1])
    signs = np.full(tree.n, -1, dtype=np.int8)
    signs[path] = 1
    for c in rt.children(path[0]):
        signs[rt.subtree_mask(int(c))] = -1
        signs[c] = 1
    for i in range(1, len(path)):
        v = path[i]
        negatives = 0
        for c in rt.children(v):
            c = int(c)
            if c in path:
                continue
            if rt.pendant[c]:
                signs[c] = 1
                continue
            sign = -1 if negatives < (rt.degree[v] - 1) // 2 else 1
            negatives += sign == -1
            signs[rt.subtree_mask(c)] = sign
    return OpinionVector.from_signs(signs)


def caterpillar(spine):
    """A path of ``spine`` vertices, each carrying a cherry (a vertex with
    two leaves), plus one more leaf at both ends of the path."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        edges += [(i, n), (n, n + 1), (n, n + 2)]
        n += 3
    edges += [(0, n), (spine - 1, n + 1)]
    return RootedTree.from_edges(edges, n=n + 2)


def test_witness_matches_the_per_subtree_recipe(random_suite, exhaustive_suite, monkeypatch):
    perfect = [build_perfect_tree(k, h) for k, h in ((2, 3), (2, 5), (4, 3))]
    cases = []
    for tree in [*random_suite, *exhaustive_suite, *perfect, caterpillar(50)]:
        path = list(worst_case_tau(tree).argmax.vertices)
        cases.append((tree, path, per_subtree_witness(tree, path)))
    masks = []
    monkeypatch.setattr(
        RootedTree, "subtree_mask", lambda self, v: masks.append(v) or None
    )
    for tree, path, want in cases:
        assert worst_case_witness(tree, path) == want
    assert masks == []
    # the spine ends are balky, so the maximising path runs from one end
    # through every other spine vertex; its witness replays to tau
    tree, path, want = cases[-1]
    assert sorted(path) == list(range(1, 50))
    assert stabilise(tree, want).tau == worst_case_tau(tree).tau == 50


def bfs_rooted_witness(tree, path):
    """The witness recipe on a second rooting at the path's end, from its
    own BFS and the child lists of that BFS's parents: the oracle for the
    walk up the tree's parents."""
    first, end = path[0], path[-1]
    parent, order = _bfs_tree(tree.n, tree.adj_flat, tree.adj_offsets, end)
    parent = parent.tolist()
    kids = child_lists(parent)
    signs = [0] * tree.n
    for v in path:
        signs[v] = 1
    for c in kids[first]:
        signs[c] = 1
    for v in path[1:]:
        negatives = 0
        for c in kids[v]:
            if signs[c]:
                continue
            if tree.pendant[c]:
                signs[c] = 1
                continue
            signs[c] = -1 if negatives < (tree.degree[v] - 1) // 2 else 1
            negatives += signs[c] == -1
    for v in order.tolist():
        if not signs[v]:
            p = parent[v]
            signs[v] = -1 if parent[p] == first else signs[p]
    return OpinionVector.from_signs(signs)


def test_witness_matches_a_bfs_rooted_oracle(random_suite):
    rng = np.random.default_rng(20261018)
    trees = [build_perfect_tree(2, h) for h in range(2, 8)] + [build_perfect_tree(4, 4)]
    for _ in range(300):
        tree = random_odd_tree(random_even_size(6, 120, rng), rng)
        trees.append(reroot(tree, int(rng.integers(tree.n))))
    long_chains = 0
    for tree in trees:
        path = list(worst_case_tau(tree).argmax.vertices)
        assert worst_case_witness(tree, path) == bfs_rooted_witness(tree, path)
        long_chains += int(tree.depth[path[-1]]) >= 5
    assert long_chains >= 50
    # every candidate path of the small rerooted hosts, not only the argmax
    for tree in random_suite[:40]:
        tree = reroot(tree, tree.n - 1)
        for path, _ in candidate_paths(tree):
            path = list(path)
            assert worst_case_witness(tree, path) == bfs_rooted_witness(tree, path)


def test_rejects_tiny_hosts():
    with pytest.raises(TooSmallError):
        worst_case_tau(RootedTree.from_edges([(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(TooSmallError):
        worst_case_tau(RootedTree.from_edges([(0, 1)]))


def test_witness_rejects_bad_paths():
    with pytest.raises(BadPathError):
        worst_case_witness(DOUBLE_STAR, [])
    with pytest.raises(BadPathError):
        worst_case_witness(DOUBLE_STAR, [0, 0])
    with pytest.raises(BadPathError):
        worst_case_witness(DOUBLE_STAR, [0, 4])  # not adjacent
    with pytest.raises(BadPathError):
        worst_case_witness(DOUBLE_STAR, [9])
    with pytest.raises(BadPathError):
        worst_case_witness(DOUBLE_STAR, [2])  # passive endpoint
    with pytest.raises(BadPathError):
        worst_case_witness(build_perfect_tree(2, 2), [4, 1, 5])  # passive interior


def test_brute_force_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_tau(STAR6, budget=4)
