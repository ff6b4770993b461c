"""Random odd-degree tree generation for randomized suites.

Any tree in which every degree is odd has an even number of vertices
(handshake parity), and every such tree with at least 4 vertices can be
reduced by deleting two pendant children of a common vertex.  Running that
reduction backwards - start from a single edge and repeatedly attach a pair
of new leaves to a uniformly chosen vertex - therefore reaches every
odd-degree tree shape.  The distribution is not uniform and does not need
to be; suites only require diversity and seeded reproducibility.

The tree is built from its parent draws alone, into the arrays that
``RootedTree.from_edges`` builds from the same edges.  Each attached
vertex gets a parent with a smaller id, and each vertex's children are
appended in id order, so vertex v's ascending neighbour list is its parent
followed by its children.  The adjacency therefore needs no sort, and a
FIFO walk over the child lists visits the vertices in exactly the order,
with the parents, of the BFS over that adjacency.  The edges are valid by
construction; of the generic checks only degree parity is kept, as an
invariant.  Depth, height and diameter are left, as for every tree, to
their first read.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, chain
from operator import and_

import numpy as np

from .errors import InvariantViolationError, TooSmallError
from .trees import RootedTree


def random_odd_tree(n: int, rng: np.random.Generator) -> RootedTree:
    """Random tree with n vertices, all degrees odd; n must be even, >= 2."""
    if n < 2 or n % 2 != 0:
        raise TooSmallError(f"odd-degree trees need even n >= 2, got {n}")
    parent, kids = [-1, 0], [[1], []]
    for size in range(2, n, 2):  # vertices size and size + 1 join the tree
        p = int(rng.integers(size))
        parent += (p, p)
        kids[p] += (size, size + 1)
        kids += ([], [])
    order = [0]
    for v in order:  # the list grows while it is read: a FIFO queue
        order += kids[v]
    adj = [[p, *c] for p, c in zip(parent, kids)]
    adj[0] = kids[0]  # the root has no parent
    degree = [len(a) for a in adj]
    if not reduce(and_, degree) & 1:  # odd exactly when all are
        v = next(v for v, d in enumerate(degree) if not d & 1)
        raise InvariantViolationError(f"generated vertex {v} has even degree {degree[v]}")
    return RootedTree(
        n=n, root=0, parent=np.array(parent, dtype=np.int32),
        order=np.array(order, dtype=np.int32), degree=np.array(degree, dtype=np.int32),
        adj_flat=np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=2 * n - 2),
        adj_offsets=np.array([0, *accumulate(degree)], dtype=np.int64),
    )


def random_even_size(low: int, high: int, rng: np.random.Generator) -> int:
    """Uniform even size in [low, high]."""
    lo = (low + 1) // 2
    hi = high // 2
    return 2 * int(rng.integers(lo, hi + 1))
