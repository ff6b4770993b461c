"""``BatchRun`` against plain full steps of the same neighbour lists.

``BatchRun`` updates a vertex that more than half of its neighbours copy
on the first step only, and then holds its column of state t - 1.  The
comparison fails if the hold also takes a vertex that (deg - 1) / 2 of
its neighbours copy (BALKY on a host), counts a pinned neighbour (whose
list is itself) as a copy, or starts at the first step.

The oracle steps every vertex with ``batch_step`` at every step, on the
run's own neighbour lists and mask, and keeps the last three states: the
run's whole window, its ``changing`` flag and its undecided lanes must
agree with it at every step, to the end of the run and two steps beyond.
The runs cover every way the package builds one: hosts, every mode of
``_PinnedSubtree`` and ``_Extensions.run``.
"""

from functools import reduce
from operator import or_, xor

import numpy as np
import pytest

from majlab.bitsliced import BatchRun, _Extensions, adjacency_lists, batch_step
from majlab.dynamics import step_budget
from majlab.stability import EXTENSION_BUDGET, _PinnedSubtree
from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import VertexClass, build_perfect_tree, classify_all


def random_cols(rng, n, width):
    mask = (1 << width) - 1
    return [int.from_bytes(rng.bytes(-(-width // 8)), "little") & mask for _ in range(n)]


def assert_matches_full_steps(run, after=2):
    """Step ``run`` to its end and ``after`` steps beyond, against full
    steps of its neighbour lists."""
    window = [list(run.cols)]
    assert run.window == window and run.t == 0
    while after:
        run.advance()
        window = (window + [batch_step(run.adj, window[-1], run.mask)])[-3:]
        assert run.window == window, run.t
        undecided = run.mask
        if run.t >= 2:
            undecided &= reduce(or_, map(xor, window[-1], window[0]), 0)
        assert run.undecided == undecided, run.t
        assert run.changing == (run.t < 2 or window[-1] != window[0]), run.t
        after -= not run.changing


def random_trees(seed, count, high=40):
    rng = np.random.default_rng(seed)
    return [random_odd_tree(random_even_size(6, high, rng), rng) for _ in range(count)]


BINARY_HOSTS = [build_perfect_tree(2, h) for h in (2, 3, 4)]


@pytest.mark.parametrize("width", [1, 64, 1 << 12])
def test_host_runs_match_full_steps(width):
    rng = np.random.default_rng(width)
    for tree in [*random_trees(width, 20), *BINARY_HOSTS]:
        cols = random_cols(rng, tree.n, width)
        run = BatchRun(adjacency_lists(tree), cols, (1 << width) - 1, step_budget(tree))
        assert_matches_full_steps(run)


def pinned_runs(tree, rng, width):
    """A run of every ``_PinnedSubtree`` mode at every vertex: plain, with
    and without a fill; cut at ``depth`` = t; with ``reach`` = t - 1."""
    mask = (1 << width) - 1
    for v in range(tree.n):
        cols = random_cols(rng, tree.n, width)
        lanes = random_cols(rng, 1, width)[0]
        for fill in (None, 0, mask, lanes):
            yield _PinnedSubtree(tree, v).run(cols, mask, fill)
        for t in (1, 2, 3):
            yield _PinnedSubtree(tree, v, depth=t).run(cols, mask, lanes)
            yield _PinnedSubtree(tree, v, reach=t - 1).run(cols, mask)


def test_pinned_subtree_runs_match_full_steps():
    rng = np.random.default_rng(23)
    for tree in [*BINARY_HOSTS, *random_trees(24, 12, high=24)]:
        for run in pinned_runs(tree, rng, 64):
            assert_matches_full_steps(run)


def test_extension_runs_match_full_steps():
    rng = np.random.default_rng(25)
    for tree in [build_perfect_tree(2, 2), *random_trees(26, 6, high=14)]:
        for v in range(tree.n):
            ids = _PinnedSubtree(tree, v).ids
            ext = _Extensions(tree, ids, EXTENSION_BUDGET)
            for pattern in rng.integers(0, 1 << len(ids), size=3).tolist():
                assert_matches_full_steps(ext.run(pattern))


def test_host_runs_hold_exactly_the_passive_vertices(exhaustive_suite):
    rng = np.random.default_rng(27)
    hosts = [random_odd_tree(2, rng), *exhaustive_suite, *random_trees(28, 40), *BINARY_HOSTS]
    for tree in hosts:
        cols = random_cols(rng, tree.n, 64)
        run = BatchRun(adjacency_lists(tree), cols, (1 << 64) - 1, step_budget(tree))
        passive = np.flatnonzero(classify_all(tree) == VertexClass.PASSIVE).tolist()
        assert sorted(set(range(tree.n)) - set(run.moving)) == passive
        run.advance()
        while run.changing:
            run.advance()
            # a held column is the state t - 2 object itself
            assert all(run.cols[v] is run.window[0][v] for v in passive)
