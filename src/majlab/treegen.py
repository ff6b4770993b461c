"""Random odd-degree tree generation for randomized suites.

Any tree in which every degree is odd has an even number of vertices
(handshake parity), and every such tree with at least 4 vertices can be
reduced by deleting two pendant children of a common vertex.  Running that
reduction backwards - start from a single edge and repeatedly attach a pair
of new leaves to a uniformly chosen vertex - therefore reaches every
odd-degree tree shape.  The distribution is not uniform and does not need
to be; suites only require diversity and seeded reproducibility.
"""

from __future__ import annotations

import numpy as np

from .errors import TooSmallError
from .trees import RootedTree


def random_odd_tree(n: int, rng: np.random.Generator) -> RootedTree:
    """Random tree with n vertices, all degrees odd; n must be even, >= 2."""
    if n < 2 or n % 2 != 0:
        raise TooSmallError(f"odd-degree trees need even n >= 2, got {n}")
    ends = np.zeros((n - 1, 2), dtype=np.int64)  # row c - 1: (parent, c)
    ends[:, 1] = np.arange(1, n)
    for size in range(2, n, 2):
        ends[size - 1 : size + 1, 0] = rng.integers(size)
    return RootedTree.from_edges(ends, root=0, n=n)


def random_even_size(low: int, high: int, rng: np.random.Generator) -> int:
    """Uniform even size in [low, high]."""
    lo = (low + 1) // 2
    hi = high // 2
    return 2 * int(rng.integers(lo, hi + 1))
