"""Tree construction, vertex classification, and the text format."""

import hashlib
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import majlab.trees
from majlab.cli import main
from majlab.errors import (
    BadVertexError,
    DegreeParityError,
    MajlabError,
    NotATreeError,
    TooSmallError,
    TreeFormatError,
)
from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import (
    RootedTree,
    VertexClass,
    build_perfect_tree,
    classify_all,
    classify_vertex,
    load_tree,
    pendant_neighbour_counts,
    reroot,
    save_tree,
    _edges_by_line,
    _plain_edges,
    _subtree_bfs,
    tree_from_text,
    tree_to_text,
)

STAR = [(0, 1), (0, 2), (0, 3)]


def edge_set(pairs):
    return {(min(u, v), max(u, v)) for u, v in pairs}


def test_star_basics():
    tree = RootedTree.from_edges(STAR)
    assert tree.n == 4
    assert tree.root == 0
    assert tree.edge_count == 3
    assert sorted(int(c) for c in tree.children(0)) == [1, 2, 3]
    assert tree.is_leaf(3) and not tree.is_leaf(0)
    assert tree.diameter == 2
    assert edge_set(tree.edges()) == edge_set(STAR)
    assert tree.pendant.tolist() == [False, True, True, True]
    assert tree.depth.tolist() == [0, 1, 1, 1]
    assert tree.height.tolist() == [1, 0, 0, 0]


def test_from_edges_explicit_root():
    tree = RootedTree.from_edges(STAR, root=2)
    assert tree.root == 2
    assert int(tree.parent[0]) == 2
    assert sorted(int(c) for c in tree.children(0)) == [1, 3]


def test_from_edges_rejects_even_degrees():
    with pytest.raises(DegreeParityError):
        RootedTree.from_edges([(0, 1), (1, 2)])


def test_from_edges_rejects_wrong_edge_count():
    with pytest.raises(NotATreeError):
        RootedTree.from_edges([(0, 1)], n=4)


def test_from_edges_rejects_self_loop_and_parallel():
    with pytest.raises(TreeFormatError):
        RootedTree.from_edges([(0, 0), (1, 2), (0, 3)])
    with pytest.raises(TreeFormatError):
        RootedTree.from_edges([(0, 1), (1, 0), (2, 3)])


def test_from_edges_rejects_out_of_range_and_bad_root():
    with pytest.raises(TreeFormatError):
        RootedTree.from_edges([(0, 9)], n=2)
    with pytest.raises(BadVertexError):
        RootedTree.from_edges(STAR, root=11, n=4)


def test_from_edges_rejects_disconnected():
    # all degrees odd, |E| = |V| - 1, but a cycle component plus an edge
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (6, 7)]
    with pytest.raises(NotATreeError):
        RootedTree.from_edges(edges, n=8)


CYCLE_AND_EDGE = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (6, 7)]

# n, root, edges, and the error both from_edges and the text form raise:
# the first offending edge in input order, out of range before self-loop
# on one edge, parallel edges after both, then parity and connectivity
MALFORMED_EDGES = {
    "negative-id": (4, 0, [(0, 1), (0, 2), (-1, 3)],
                    TreeFormatError, "edge (-1, 3) out of range for n=4"),
    "id-at-n": (4, 0, [(0, 1), (0, 2), (0, 4)],
                TreeFormatError, "edge (0, 4) out of range for n=4"),
    "self-loop": (4, 0, [(0, 1), (0, 2), (3, 3)],
                  TreeFormatError, "self-loop at vertex 3"),
    "parallel": (4, 0, [(0, 1), (0, 2), (0, 1)],
                 TreeFormatError, "parallel edge in input"),
    "parallel-reversed": (4, 0, [(0, 1), (2, 0), (1, 0)],
                          TreeFormatError, "parallel edge in input"),
    "parallel-then-range": (4, 0, [(0, 1), (1, 0), (0, 7)],
                            TreeFormatError, "edge (0, 7) out of range for n=4"),
    "range-then-loop": (4, 0, [(0, 1), (0, 7), (2, 2)],
                        TreeFormatError, "edge (0, 7) out of range for n=4"),
    "loop-then-range": (4, 0, [(0, 1), (2, 2), (0, 7)],
                        TreeFormatError, "self-loop at vertex 2"),
    "even-degree": (4, 0, [(0, 1), (1, 2), (2, 3)], DegreeParityError,
                    "vertex 1 has even degree 2; all degrees must be odd"),
    "edge-count": (4, 0, [(0, 1), (0, 2)],
                   NotATreeError, "expected 3 edges for n=4, got 2"),
    "disconnected": (8, 0, CYCLE_AND_EDGE, NotATreeError, "input is disconnected"),
    "bad-root": (4, 11, STAR, BadVertexError, "root 11 out of range for n=4"),
}

MALFORMED_TEXT = {
    "non-integer-id": ("tree n=4 root=0\n0 1\n0 x\n0 3\n",
                       "line 3: non-integer vertex id"),
    "three-fields": ("tree n=4 root=0\n0 1\n0 2 3\n0 3\n",
                     "line 3: expected '<u> <v>'"),
    "missing-header": ("# c\n0 1\n0 2\n0 3\n",
                       "line 2: expected 'tree n=<N> root=<R>'"),
    "empty-text": ("# only a comment\n\n", "empty tree file"),
}


def text_of(n, root, edges):
    return f"tree n={n} root={root}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("case", MALFORMED_EDGES)
def test_malformed_edges_keep_their_errors(case):
    n, root, edges, error, message = MALFORMED_EDGES[case]
    with pytest.raises(error) as exc:
        RootedTree.from_edges(edges, root=root, n=n)
    assert exc.value.message == message
    with pytest.raises(error) as exc:
        tree_from_text(text_of(n, root, edges))
    # the text form counts edge lines
    assert exc.value.message == message.replace("edges", "edge lines")


@pytest.mark.parametrize("case", MALFORMED_TEXT)
def test_malformed_text_keeps_its_errors(case):
    text, message = MALFORMED_TEXT[case]
    with pytest.raises(TreeFormatError) as exc:
        tree_from_text(text)
    assert exc.value.message == message


def test_ids_beyond_int64_are_out_of_range():
    with pytest.raises(TreeFormatError) as exc:
        RootedTree.from_edges([(0, 2**70), (0, 1), (0, 2)], n=4)
    assert exc.value.message == f"edge (0, {2**70}) out of range for n=4"
    with pytest.raises(TreeFormatError) as exc:
        tree_from_text("tree n=4 root=0\n0 1\n-99999999999999999999 0\n0 2\n")
    assert exc.value.message == "edge (-99999999999999999999, 0) out of range for n=4"


def test_edge_input_forms_build_identical_trees(random_suite):
    for tree in random_suite[:50]:
        pairs = [(v, u) if v % 2 else (u, v) for u, v in tree.edges()]
        pairs.reverse()
        us, vs = zip(*pairs)
        built = [
            RootedTree.from_edges(edges, root=tree.root, n=tree.n)
            for edges in (
                pairs,
                zip(us, vs),
                np.array(pairs, dtype=np.int32),
                np.array(pairs, dtype=np.int64),
            )
        ]
        for other in built[1:]:
            assert_same_arrays(built[0], other)
    for bad in ([(0, 1, 2), (0, 2, 3)], [0, 1, 2], np.zeros((3, 3), dtype=np.int64)):
        with pytest.raises(TreeFormatError, match=r"^edges must be \(u, v\) pairs$"):
            RootedTree.from_edges(bad, n=4)


def test_equality_is_root_and_edge_set(random_suite):
    trees = random_suite[:30]
    for a in trees:
        flipped = [(v, u) for u, v in reversed(a.edges())]
        assert RootedTree.from_edges(flipped, root=a.root, n=a.n) == a
        assert reroot(a, a.n - 1) != a
        for b in trees:
            same = (a.n, a.root) == (b.n, b.root) and edge_set(a.edges()) == edge_set(b.edges())
            assert (a == b) == same


@pytest.mark.parametrize("k,h", [(2, 1), (2, 2), (2, 3), (4, 2), (6, 1)])
def test_perfect_tree_shape(k, h):
    tree = build_perfect_tree(k, h)
    assert tree.n == 1 + (k + 1) * (k**h - 1) // (k - 1)
    assert tree.diameter == 2 * h
    assert int(tree.degree[tree.root]) == k + 1
    leaves = int(tree.pendant.sum())
    assert leaves == (k + 1) * k ** (h - 1)
    internal = tree.degree[~tree.pendant]
    assert (internal == k + 1).all()
    # in a perfect tree every root-to-leaf distance is h
    assert (tree.depth + tree.height == h).all()
    assert sorted(int(c) for c in tree.children(0)) == list(range(1, k + 2))


def test_perfect_tree_rejects_bad_parameters():
    with pytest.raises(DegreeParityError):
        build_perfect_tree(3, 2)
    with pytest.raises(DegreeParityError):
        build_perfect_tree(0, 2)
    with pytest.raises(TooSmallError):
        build_perfect_tree(2, 0)


def test_classify_star_and_perfect():
    star = RootedTree.from_edges(STAR)
    assert classify_vertex(star, 0) is VertexClass.PASSIVE
    assert classify_vertex(star, 1) is VertexClass.BALKY
    assert VertexClass.PASSIVE.label == "passive"

    tree = build_perfect_tree(2, 2)
    classes = classify_all(tree)
    assert classes[tree.root] == VertexClass.ACTIVE
    for v in range(1, 4):
        assert classes[v] == VertexClass.PASSIVE  # two pendant children
    for v in range(4, 10):
        assert classes[v] == VertexClass.BALKY
    for v in range(tree.n):
        assert classify_vertex(tree, v) == classes[v]
    with pytest.raises(BadVertexError):
        classify_vertex(tree, tree.n)


def test_pendant_counts_and_classes_match_direct_recount():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tree = random_odd_tree(random_even_size(6, 16, rng), rng)
        counts = pendant_neighbour_counts(tree)
        classes = classify_all(tree)
        for v in range(tree.n):
            direct = sum(1 for u in tree.neighbours(v) if tree.degree[u] == 1)
            assert counts[v] == direct
            threshold = (int(tree.degree[v]) - 1) // 2
            if direct < threshold:
                want = VertexClass.ACTIVE
            elif direct == threshold:
                want = VertexClass.BALKY
            else:
                want = VertexClass.PASSIVE
            assert classes[v] == want


def test_subtree_mask_partitions():
    rng = np.random.default_rng(4)
    tree = random_odd_tree(14, rng)
    assert tree.subtree_mask(tree.root).all()
    for v in range(tree.n):
        mask = tree.subtree_mask(v)
        assert mask[v]
        child_union = np.zeros(tree.n, dtype=bool)
        for c in tree.children(v):
            child_mask = tree.subtree_mask(int(c))
            assert not (child_union & child_mask).any()
            child_union |= child_mask
        expect = child_union.copy()
        expect[v] = True
        assert (mask == expect).all()
        if tree.is_leaf(v):
            assert mask.sum() == 1


def test_subtree_walk_is_the_literal_walk_and_its_cut_a_prefix(random_suite):
    trees = [*random_suite[:60], build_perfect_tree(2, 4), build_perfect_tree(4, 3)]
    for tree in trees:
        for v in range(tree.n):
            # BFS over children(); neighbours as positions, parent first
            ids, adj, level = [v], [[]], [0]
            for i, u in enumerate(ids):
                for c in tree.children(u).tolist():
                    adj[i].append(len(ids))
                    adj.append([i])
                    ids.append(c)
                    level.append(level[i] + 1)
            assert _subtree_bfs(tree, v) == (ids, adj)
            for depth in (1, 2, 3):
                kept = sum(d <= depth for d in level)
                pinned = [
                    [i] if level[i] == depth and not tree.is_leaf(ids[i]) else adj[i]
                    for i in range(kept)
                ]
                assert _subtree_bfs(tree, v, depth) == (ids[:kept], pinned)


def bfs_distances(tree, src):
    """Distances from ``src`` by a plain BFS over the adjacency."""
    dist = [-1] * tree.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for u in tree.neighbours(v).tolist():
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def check_structure_against_definitions(tree):
    depth = bfs_distances(tree, tree.root)
    assert tree.depth.tolist() == depth
    for v in range(tree.n):
        inside = np.flatnonzero(tree.subtree_mask(v)).tolist()
        # the farthest vertex of a subtree is a leaf of it
        assert tree.height[v] == max(depth[u] for u in inside) - depth[v]
    # double BFS: the vertex farthest from anywhere ends a longest path
    far = bfs_distances(tree, int(np.argmax(depth)))
    assert tree.diameter == max(far)


def test_structure_arrays_match_their_definitions(random_suite, exhaustive_suite):
    perfect = [build_perfect_tree(k, h) for k, h in [(2, 3), (2, 5), (4, 3)]]
    for tree in [*random_suite, *exhaustive_suite, *perfect]:
        check_structure_against_definitions(tree)
        for new_root in {1, tree.n // 2, tree.n - 1}:
            check_structure_against_definitions(reroot(tree, new_root))
    # a cycle component plus an edge: the traversal misses a vertex
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (6, 7)]
    for root in (0, 6):
        with pytest.raises(NotATreeError):
            RootedTree.from_edges(edges, root=root, n=8)


def _random_rows():
    tree = random_odd_tree(40, np.random.default_rng(3))
    return tree, np.random.default_rng(4).permutation(np.array(tree.edges()))


# one case per way of building a tree
CONSTRUCTION_PATHS = {
    "from_edges-shuffled": lambda: RootedTree.from_edges(_random_rows()[1], root=5, n=40),
    "tree_from_text-bfs-rows": lambda: tree_from_text(tree_to_text(reroot(_random_rows()[0], 7))),
    "perfect-2": lambda: build_perfect_tree(2, 4),
    "perfect-4": lambda: build_perfect_tree(4, 3),
    "perfect-6": lambda: build_perfect_tree(6, 2),
    "random_odd_tree": lambda: _random_rows()[0],
    "reroot": lambda: reroot(build_perfect_tree(2, 3), 17),
}


@pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
def test_levels_are_derived_on_first_read(path):
    tree = CONSTRUCTION_PATHS[path]()
    assert tree._levels is None
    check_structure_against_definitions(tree)  # reads depth first
    assert tree._levels is not None
    assert (tree.depth.dtype, tree.height.dtype, type(tree.diameter)) == (np.int32, np.int32, int)
    with pytest.raises(AttributeError):
        tree.diameter = 0


def test_commands_derive_no_levels(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a command derived depth, height and diameter")

    monkeypatch.setattr(majlab.trees, "_depth_height_diameter", refuse)
    host, out = str(tmp_path / "host.txt"), ["-o", str(tmp_path / "out.json")]
    prob = [["weak", "--t", "0"], ["strong", "--t", "1"], ["le_t", "--t", "2"], ["one_close"]]
    for argv in (
        ["gen", "--k", "2", "--h", "2", "-o", host],
        ["simulate", "--tree", host, *out],
        ["worst-case", "--tree", host, *out],
        ["brute-force", "--tree", host, *out],
        *(["prob", "--height", "2", "--target", *target, *out] for target in prob),
        ["mc-tau", "--k", "2", "--h", "3", "--trials", "5", *out],
    ):
        assert main(argv) == 0, argv
    assert "diameter=4" in Path(host).read_text(encoding="utf-8")


def test_reroot_preserves_structure():
    rng = np.random.default_rng(5)
    tree = random_odd_tree(12, rng)
    other = reroot(tree, 7)
    assert other.root == 7
    assert int(other.parent[7]) == -1
    assert other.n == tree.n
    assert other.diameter == tree.diameter
    assert edge_set(other.edges()) == edge_set(tree.edges())
    assert reroot(tree, tree.root) == tree
    with pytest.raises(BadVertexError):
        reroot(tree, tree.n)


def test_text_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for _ in range(10):
        tree = random_odd_tree(random_even_size(6, 16, rng), rng)
        text = tree_to_text(tree, header_comments=["suite check"])
        assert text.splitlines()[0].startswith("#")
        assert "suite check" in text.splitlines()[0]
        assert tree_from_text(text) == tree
    path = tmp_path / "tree.txt"
    save_tree(RootedTree.from_edges(STAR), path)
    assert load_tree(path) == RootedTree.from_edges(STAR)


# sha256 of tree_to_text under gen-style header comments, recorded before
# the writer was vectorised: the bytes of every tree file stay the same
TEXT_DIGESTS = {
    "perfect-4-8": "70fb843df0fec887a9ff1b2c07aa76bf7cb2f54ea51ab187b6a6eed9d361188f",
    "perfect-2-7": "68ff784efdada803a729df3ef704e814b031be058e7bab8328be5073b258fd36",
    "random-2000-rerooted": "c89f8f283ab524fb42f07fd248d52488b50ade82f67690a7e879c3fd0ef2feeb",
}


@pytest.mark.parametrize("case", TEXT_DIGESTS)
def test_tree_text_matches_its_golden_digest(case):
    if case.startswith("perfect"):
        k, h = map(int, case.split("-")[1:])
        tree = build_perfect_tree(k, h)
        comments = ["majlab 0.1.0", f"gen k={k} h={h} n={tree.n} diameter={tree.diameter}"]
    else:
        tree = reroot(random_odd_tree(2000, np.random.default_rng(15)), 1234)
        comments = ["majlab 0.1.0", f"random n=2000 seed=15 root=1234 diameter={tree.diameter}"]
    text = tree_to_text(tree, header_comments=comments)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_DIGESTS[case]


def test_text_format_errors():
    with pytest.raises(TreeFormatError):
        tree_from_text("")
    with pytest.raises(TreeFormatError):
        tree_from_text("graph n=4 root=0\n0 1\n0 2\n0 3\n")
    with pytest.raises(TreeFormatError):
        tree_from_text("tree n=4 root=0\n0 x\n0 2\n0 3\n")
    with pytest.raises(TreeFormatError):
        tree_from_text("tree n=4 root=0\n0 1 2\n0 2\n0 3\n")
    with pytest.raises(NotATreeError):
        tree_from_text("tree n=4 root=0\n0 1\n0 2\n")


# the stored fields, then the levels their first read derives
TREE_FIELDS = [*RootedTree.__slots__[:-1], "depth", "height", "diameter"]


def assert_same_arrays(want, got):
    for name in TREE_FIELDS:
        a, b = getattr(want, name), getattr(got, name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        else:
            assert a == b, name


GEN_TEXT = tree_to_text(build_perfect_tree(2, 3), ["majlab 0.1.0", "gen k=2 h=3 n=22 diameter=6"])
STAR_TEXT = "tree n=4 root=0\n0 1\n0 2\n0 3\n"


def star_with(row):
    return f"tree n=4 root=0\n0 1\n0 2\n{row}\n"


# text, and whether its body is plain (read by array passes)
PARSE_CASES = {
    "gen": (GEN_TEXT, True),
    "gen-shuffled": ("".join(GEN_TEXT.splitlines(keepends=True)[:3])
                     + "".join(sorted(GEN_TEXT.splitlines(keepends=True)[3:])), True),
    "no-final-newline": (STAR_TEXT[:-1], True),
    "comment-after-header": ("tree n=4 root=0\n# c\n0 1\n0 2\n0 3\n", False),
    "blank-lines": ("\n# c\n\ntree n=4 root=0 \n\n0 1\n   \n0 2\n\t\n0 3\n\n", True),
    "crlf": (STAR_TEXT.replace("\n", "\r\n"), False),
    "tabs": ("tree n=4 root=0\n0\t1\n\t0 2 \n0  3\t\n", True),
    "leading-zeros": ("tree n=4 root=0\n000 01\n0 0002\n00 3\n", True),
    "18-digit-id": (star_with("0 100000000000000000"), True),
    "19-digit-id": (star_with("0 1000000000000000000"), False),
    "19-digit-padded-id": (star_with("0 0000000000000000003"), False),
    "20-digit-id": (star_with("0 99999999999999999999"), False),
    "negative-id": (star_with("-3 0"), False),
    "plus-sign": (star_with("0 +3"), False),
    "arabic-indic-digit": (star_with("0 \u0663"), False),
    "lone-cr": ("tree n=4 root=0\n0 1\r0 2\n0 3\n", False),
    "lone-cr-in-header-line": ("tree n=4 root=0\r0 1\n0 2\n0 3\n", False),
    "separator-in-comment": ("# a\u2028b\n" + STAR_TEXT, False),
    "one-field": (star_with("3"), False),
    "three-fields": (star_with("0 3 1"), False),
    "comment-on-edge-line": (star_with("0 3 # c"), False),
    "fields-across-lines": ("tree n=4 root=0\n0 1 0\n2\n0 3\n", False),
    "two-edges-on-a-line": ("tree n=4 root=0\n0 1 0 2\n\n0 3\n", False),
    "too-few-lines": ("tree n=4 root=0\n0 1\n0 2\n", False),
    "too-many-lines": (STAR_TEXT + "1 2\n", False),
    "single-vertex": ("tree n=1 root=0\n", True),
    "single-vertex-blank-lines": ("tree n=1 root=0\n  \n\t\n", True),
    "bad-header": ("tree n=4\n0 1\n0 2\n0 3\n", False),
    "empty": ("# nothing\n\n", False),
}


def by_line(text):
    n, root, ends = _edges_by_line(text)
    return RootedTree.from_edges(ends, root=root, n=n)


def outcome(parse, text):
    try:
        return parse(text)
    except MajlabError as exc:
        return type(exc), exc.message


@pytest.mark.parametrize("case", PARSE_CASES)
def test_array_tokeniser_agrees_with_the_line_reader(case):
    text, plain = PARSE_CASES[case]
    assert (_plain_edges(text) is not None) == plain
    got, want = outcome(tree_from_text, text), outcome(by_line, text)
    if isinstance(want, RootedTree):
        assert_same_arrays(want, got)
    else:
        assert got == want


def count_bfs_calls(monkeypatch):
    calls = []
    bfs = majlab.trees._bfs_tree

    def counted(*args):
        calls.append(args[-1])
        return bfs(*args)

    monkeypatch.setattr(majlab.trees, "_bfs_tree", counted)
    return calls


def test_rows_in_bfs_order_build_without_a_bfs(exhaustive_suite, random_suite, monkeypatch):
    trees = [*exhaustive_suite, *random_suite]
    trees += [reroot(tree, root) for tree in trees for root in {1, tree.n // 2, tree.n - 1}]
    calls = count_bfs_calls(monkeypatch)
    rng = np.random.default_rng(20261019)
    for tree in trees:
        rows = np.array(tree.edges(), dtype=np.int64)
        for edges, bfs in ((rows, 0), (rng.permutation(rows), None), (rows[:, ::-1], 1)):
            del calls[:]
            assert_same_arrays(tree, RootedTree.from_edges(edges, root=tree.root, n=tree.n))
            assert bfs is None or len(calls) == bfs


def test_near_bfs_orders_take_the_bfs(monkeypatch):
    tree = build_perfect_tree(2, 2)  # rows (0, 1..3), (1, 4), (1, 5), (2, 6), ...
    rows = tree.edges()
    descending = rows[:3] + [rows[4], rows[3]] + rows[5:]
    child_first = [rows[3]] + rows[:3] + rows[4:]
    calls = count_bfs_calls(monkeypatch)
    for edges in (descending, child_first):
        del calls[:]
        assert_same_arrays(tree, RootedTree.from_edges(edges, n=tree.n))
        assert calls == [0]
    # parent positions never decrease, but vertex 2 is listed twice and 6
    # never: a triangle with pendants, and an edge apart
    cycle = [(0, 1), (0, 2), (0, 3), (6, 7), (1, 2), (1, 4), (2, 5)]
    with pytest.raises(NotATreeError, match="^input is disconnected$"):
        RootedTree.from_edges(cycle, n=8)


def test_written_trees_load_without_a_bfs(tmp_path, monkeypatch):
    want = [build_perfect_tree(4, 3), reroot(random_odd_tree(200, np.random.default_rng(7)), 31)]
    assert main(["gen", "--k", "4", "--h", "3", "-o", str(tmp_path / "gen.txt")]) == 0
    save_tree(want[1], tmp_path / "saved.txt")

    def refuse(*args):
        raise AssertionError("a written tree went through the BFS")

    monkeypatch.setattr(majlab.trees, "_bfs_tree", refuse)
    for tree, name in zip(want, ("gen.txt", "saved.txt")):
        assert_same_arrays(tree, load_tree(tmp_path / name))
