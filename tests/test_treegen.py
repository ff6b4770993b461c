"""Generated odd trees against the generic edge-list constructor."""

import numpy as np
import pytest

from majlab.errors import TooSmallError
from majlab.treegen import random_odd_tree
from majlab.trees import RootedTree


def edge_list_tree(n, rng):
    """The tree ``RootedTree.from_edges`` builds on ``random_odd_tree``'s
    draws: one ``rng.integers(size)`` per attached pair of leaves, in
    order, as an (n - 1, 2) array of (parent, child) rows."""
    ends = np.zeros((n - 1, 2), dtype=np.int64)
    ends[:, 1] = np.arange(1, n)
    for size in range(2, n, 2):
        ends[size - 1 : size + 1, 0] = rng.integers(size)
    return RootedTree.from_edges(ends, root=0, n=n)


def assert_same_tree_and_stream(n, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = random_odd_tree(n, got_rng), edge_list_tree(n, want_rng)
    for name in [*RootedTree.__slots__[:-1], "depth", "height", "diameter"]:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b), (name, n, seed)
        else:
            assert a == b, (name, n, seed)
    # the generator is left where the edge-list draws leave it
    assert got_rng.integers(2**63) == want_rng.integers(2**63), (n, seed)


@pytest.mark.parametrize("n", range(2, 65, 2))
def test_generated_trees_are_the_edge_list_trees(n):
    # n = 2 draws nothing
    for seed in range(50):
        assert_same_tree_and_stream(n, seed)


@pytest.mark.parametrize("n", [200, 2000])
def test_large_generated_trees_are_the_edge_list_trees(n):
    for seed in range(3):
        assert_same_tree_and_stream(n, seed)


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 7])
def test_generated_trees_need_even_n_from_two(n):
    rng = np.random.default_rng(0)
    with pytest.raises(TooSmallError):
        random_odd_tree(n, rng)
    assert rng.integers(2**63) == np.random.default_rng(0).integers(2**63)
