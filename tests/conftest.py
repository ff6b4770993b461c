"""Shared tree suites used by the unit and acceptance tests, and a log of
the processes that run a function."""

import os

import networkx as nx
import numpy as np
import pytest

from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import RootedTree


def all_odd_degree_trees(n: int) -> list[RootedTree]:
    """Every unlabeled tree on n vertices whose degrees are all odd."""
    found = []
    for g in nx.nonisomorphic_trees(n):
        if all(d % 2 == 1 for _, d in g.degree()):
            found.append(RootedTree.from_edges(list(g.edges()), n=n))
    return found


@pytest.fixture(scope="session")
def exhaustive_suite() -> list[RootedTree]:
    """All odd-degree trees with 5 <= |V| <= 13 (only even sizes exist)."""
    trees: list[RootedTree] = []
    for n in range(5, 14):
        trees.extend(all_odd_degree_trees(n))
    return trees


@pytest.fixture(scope="session")
def random_suite() -> list[RootedTree]:
    """200 random odd-degree trees with 6 <= |V| <= 20."""
    rng = np.random.default_rng(20260815)
    return [
        random_odd_tree(random_even_size(6, 20, rng), rng) for _ in range(200)
    ]


class PidLog:
    """The pids of the processes, forked children included, that call the
    functions ``wrap`` returns: each call appends its pid to a file."""

    def __init__(self, path):
        self.path = path

    def wrap(self, fn):
        def logged(*args, **kwargs):
            with open(self.path, "a", encoding="ascii") as log:
                log.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)

        return logged

    def pids(self) -> set[int]:
        return set(map(int, self.path.read_text().split())) if self.path.exists() else set()


@pytest.fixture
def pid_log(tmp_path) -> PidLog:
    return PidLog(tmp_path / "pids.log")
