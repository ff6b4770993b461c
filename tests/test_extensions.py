"""The extension layer, ``bitsliced._Extensions``: one layout of a
subject's extensions, run for every subtree pattern.

The oracle is the per-pattern layout that the layer replaced: one batch
of every extension of a full opinion vector, rebuilt for each pattern,
and one extension vector built from it per certificate.
"""

import numpy as np
import pytest

import majlab.probe as probe
import majlab.stability as stability
from majlab.bitsliced import _Extensions, lowest_bit_index, tt_column
from majlab.dynamics import OpinionVector
from majlab.errors import BudgetExceededError
from majlab.probe import estimate_probability
from majlab.stability import _PinnedSubtree, is_one_close_to_stability
from majlab.trees import build_perfect_tree


def oracle_extension_batch(tree, base, ids, budget):
    """Every extension of ``base`` outside the subtree ``ids``, one per
    bit: (free vertices, width, mask, columns)."""
    m = tree.n - len(ids)
    if 1 << m > budget:
        raise BudgetExceededError(
            f"2^{m} extensions exceed the enumeration budget {budget}"
        )
    inside = set(ids)
    free = [u for u in range(tree.n) if u not in inside]
    width = 1 << m
    mask = (1 << width) - 1
    cols = [0] * tree.n
    for u in ids:
        cols[u] = mask if base[u] > 0 else 0
    for i, u in enumerate(free):
        cols[u] = tt_column(i, m)
    return free, width, mask, cols


def oracle_extension_vector(base, free, index):
    """``base`` with ``free[i]`` set from bit i of ``index``: one extension,
    or one subtree pattern when ``free`` is the subtree."""
    signs = base.copy()
    for i, u in enumerate(free):
        signs[u] = 1 if (index >> i) & 1 else -1
    return OpinionVector.from_signs(signs)


def differential_cases(exhaustive_suite):
    """(tree, subtree ids) for every non-root vertex of the small perfect
    hosts and the exhaustive suite, the subtree in BFS order and ascending."""
    for tree in (build_perfect_tree(2, 2), build_perfect_tree(2, 3), *exhaustive_suite):
        for v in range(tree.n):
            if v == tree.root:
                continue
            ids = _PinnedSubtree(tree, v).ids
            yield tree, ids
            if sorted(ids) != ids:
                yield tree, sorted(ids)


def test_extensions_match_the_per_pattern_layout(exhaustive_suite):
    rng = np.random.default_rng(20261019)
    budget = 1 << 21  # a leaf of the height-3 host has 21 outside vertices
    cases = 0
    for tree, ids in differential_cases(exhaustive_suite):
        ext = _Extensions(tree, ids, budget)
        ones = np.ones(tree.n, dtype=np.int8)
        bases = []
        for p in range(1 << len(ids)):
            base = oracle_extension_vector(ones, ids, p).to_signs()
            free, width, mask, cols = oracle_extension_batch(tree, base, ids, budget)
            run = ext.run(p)
            assert (run.t, run.mask, run.cols) == (0, mask, cols), (tree.n, ids, p)
            assert (ext.free, ext.width) == (free, width)
            bases.append(base)
            cases += 1
        for _ in range(50):
            p = int(rng.integers(1 << len(ids)))
            lane = int(rng.integers(ext.width))
            above = int.from_bytes(rng.bytes(ext.width // 8 + 1), "little")
            violations = ((above << lane) | 1 << lane) & ext.mask
            got = stability._verdict(ext, "strong", 2, violations, p, 7)
            want = oracle_extension_vector(bases[p], ext.free, lowest_bit_index(violations))
            assert got.certificate == want
            assert (got.verdict, got.method, got.checked) == (False, "brute-force", 7)
        assert stability._verdict(ext, "le_t", 2, 0, 0, 1).certificate is None
    assert cases > 1_000


def test_extensions_refuse_an_outside_over_budget():
    tree = build_perfect_tree(2, 3)
    ids = _PinnedSubtree(tree, 1).ids
    with pytest.raises(BudgetExceededError, match=r"2\^15 extensions exceed"):
        _Extensions(tree, ids, (1 << 15) - 1)
    assert _Extensions(tree, ids, 1 << 15).width == 1 << 15


@pytest.mark.parametrize("never_weak", [False, True])
@pytest.mark.parametrize("height", [1, 2])
def test_one_close_count_is_the_per_pattern_decider_count(monkeypatch, height, never_weak):
    # every pattern is 1-close at these heights; with no state weakly
    # stable, only the patterns that no extension flips are, so the count
    # also pins which pattern each lane stands for
    if never_weak:
        monkeypatch.setattr(stability, "_weak_ok_bits", lambda sub, cols, mask: 0)
    host = build_perfect_tree(2, height + 1)
    ids = _PinnedSubtree(host, 1).ids
    ones = np.ones(host.n, dtype=np.int8)
    verdict = [
        is_one_close_to_stability(host, oracle_extension_vector(ones, ids, p), 1).verdict
        for p in range(1 << len(ids))
    ]
    est = estimate_probability("one_close", height, method="exact")
    assert (est.count, est.denominator) == (sum(verdict), 1 << len(ids))
    if never_weak and height == 2:
        assert 0 < sum(verdict) < len(verdict)
    # bit r of a trial's pattern is its draw in row r
    seed, trials = 17, 500
    draws = np.random.default_rng(np.random.SeedSequence(seed)).integers(
        0, 2, size=(len(ids), trials), dtype=np.uint8
    )
    patterns = (draws.astype(np.int64) << np.arange(len(ids))[:, None]).sum(axis=0)
    monkeypatch.setattr(probe, "_MC_LANES", 64)
    for cpus in (1, 2):
        monkeypatch.setattr(probe, "_usable_cpus", lambda: cpus)
        est = estimate_probability("one_close", height, method="mc", trials=trials, seed=seed)
        assert est.count == sum(verdict[p] for p in patterns.tolist()), cpus


def test_strong_probe_walks_its_cone_once(monkeypatch):
    built = []
    init = _PinnedSubtree.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(stability._PinnedSubtree, "__init__", counted)
    est = estimate_probability("strong", 8, 2, method="mc", trials=1000)
    assert est.trials == 1000
    assert len(built) == 1
