"""Probability estimation: frozen exact values, MC consistency, fixed point."""

import contextlib
import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import majlab.probe as probe
from majlab.cli import main
from majlab.dynamics import OpinionVector, stabilise, step_budget
from majlab.errors import (
    BadHostError,
    BadTimeError,
    BadVertexError,
    BudgetExceededError,
    MajlabError,
)
from majlab.probe import (
    estimate_probability,
    fixed_point_q,
    le_t_positive_check,
    mc_tau,
    trial_seed,
)
from majlab.bitsliced import BatchRun, _Extensions, adjacency_lists, pack_bit_rows, tt_column
from majlab.stability import (
    EXTENSION_BUDGET,
    _PinnedSubtree,
    _changed_by,
    _strong_ok_bits,
    _weak_ok_bits,
)
from majlab.trees import RootedTree, build_perfect_tree


def exact_fraction(est):
    assert est.method == "exact"
    return Fraction(est.count, est.denominator)


def test_strong_base_cases_height_one():
    for t in range(4):
        est = estimate_probability("strong", 1, t)
        assert est.denominator == 8
        assert exact_fraction(est) == 1


def test_strong_base_cases_height_two():
    expected = {0: Fraction(9, 16), 1: Fraction(1, 2), 2: Fraction(5, 8), 3: 1}
    for t, want in expected.items():
        est = estimate_probability("strong", 2, t)
        assert est.denominator == 128
        assert exact_fraction(est) == want
        assert est.value == pytest.approx(float(want), abs=0)
        assert est.unresolved is None


def test_weak_base_cases():
    for height, denominator in ((2, 128), (3, 32768)):
        est = estimate_probability("weak", height, 0)
        assert est.denominator == denominator
        assert exact_fraction(est) == Fraction(15, 16)
    leaf = estimate_probability("weak", 0, 0)
    assert leaf.denominator == 2
    assert exact_fraction(leaf) == 1


def test_one_close_exact_height_two():
    est = estimate_probability("one_close", 2)
    assert est.count == est.denominator == 128
    assert est.value == 1.0


def test_mc_agrees_with_exact_within_four_sigma():
    cases = (
        ("strong", 2, 0),
        ("strong", 2, 2),
        ("weak", 2, 0),
        ("le_t", 2, 2),
    )
    for target, height, t in cases:
        exact = estimate_probability(target, height, t)
        mc = estimate_probability(target, height, t, method="mc", trials=4000, seed=11)
        assert mc.method == "mc"
        assert mc.trials == 4000
        assert mc.seed == 11
        sigma = mc.ci_halfwidth / 3
        assert abs(mc.value - exact.value) <= 4 * sigma + 1e-12


@pytest.mark.parametrize(
    "m,trials",
    [(1, 1), (3, 5), (7, 13), (9, 64), (11, 1001), (200, 999), (511, 2000)],
)
def test_mc_pattern_columns_are_the_byte_matrix_draw(m, trials):
    # every row; whole eight-row blocks kept and skipped; rows scattered
    # over partial blocks; a prefix, after which the draw stops; the last row
    row_sets = (
        range(m),
        [r for r in range(m) if r // 8 % 3 == 1],
        [r for r in range(m) if r % 19 in (0, 5, 6)],
        range((m + 1) // 2),
        [m - 1],
    )
    for seed in (0, 20261018):
        # the one-byte-per-bit draw that the packed draw must reproduce
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want = pack_bit_rows(rng.integers(0, 2, size=(m, trials), dtype=np.uint8))
        for rows in row_sets:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            draws, width = probe._pattern_cols(m, rows, trials, rng)
            assert width == trials
            assert draws == [want[r] for r in rows], list(rows)


class _AdvanceLog:
    """A generator that logs every ``bit_generator.advance`` delta: numpy
    documents no negative one, so the stream must never step back."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.deltas = rng, self, []

    def advance(self, delta):
        self.deltas.append(delta)
        self.rng.bit_generator.advance(delta)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize(
    "m,trials",
    [(1, 1), (3, 5), (7, 13), (9, 64), (11, 1001), (200, 999), (511, 2000)],
)
def test_mc_pattern_column_lanes_are_the_byte_matrix_columns(m, trials):
    # the whole-draw test's cases and row sets, cut to spans that start and
    # end off multiples of eight, to single lanes at either end and inside,
    # and to every lane
    row_sets = (
        range(m),
        [r for r in range(m) if r // 8 % 3 == 1],
        [r for r in range(m) if r % 19 in (0, 5, 6)],
        range((m + 1) // 2),
        [m - 1],
    )
    lanes = {(0, trials), (0, 1), (trials - 1, trials), (trials // 2, trials // 2 + 1),
             (min(3, trials - 1), max(trials - 5, 4)), (trials // 3, 2 * trials // 3 + 1)}
    lanes = sorted((a, b) for a, b in lanes if 0 <= a < b <= trials)
    for seed in (0, 20261018):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want = pack_bit_rows(rng.integers(0, 2, size=(m, trials), dtype=np.uint8))
        for rows, (a, b) in itertools.product(row_sets, lanes):
            rng = _AdvanceLog(np.random.default_rng(np.random.SeedSequence(seed)))
            draws, width = probe._pattern_cols(m, rows, trials, rng, (a, b))
            assert min(rng.deltas, default=0) >= 0
            assert width == b - a
            assert draws == [want[r] >> a & (1 << b - a) - 1 for r in rows], (list(rows), a, b)


def test_mc_spans_cut_the_trials_evenly(monkeypatch):
    assert probe._spans(200_000) == [(0, 100_000), (100_000, 200_000)]
    assert probe._spans(1) == [(0, 1)]
    monkeypatch.setattr(probe, "_MC_LANES", 8)
    for trials in (1, 8, 9, 13, 1001):
        spans = probe._spans(trials)
        assert [a for a, _ in spans[1:]] == [b for _, b in spans[:-1]]
        assert spans[0][0] == 0 and spans[-1][1] == trials
        widths = {b - a for a, b in spans}
        assert max(widths) <= 8 and max(widths) - min(widths) <= 1
        assert len(spans) == -(-trials // 8)


SPAN_PROBES = [
    ("strong", 2, 2, 2, None),  # pending patterns enumerated
    ("strong", 3, 2, 2, None),  # pending patterns left unresolved
    ("weak", 3, 0, 2, None),
    ("weak", 3, 1, 2, None),
    ("weak", 3, 3, 2, None),
    ("le_t", 3, 2, 2, None),
    ("le_t", 2, 4, 4, None),
    ("le_t", 2, 2, 4, 1),
    ("le_t", 3, 2, 2, -1),
    ("one_close", 2, None, 2, None),
]


def _probe(target, height, t, k, xi, trials, seed):
    if xi is not None:
        return le_t_positive_check(k, t, xi, height=height, method="mc", trials=trials, seed=seed)
    return estimate_probability(target, height, t, k=k, method="mc", trials=trials, seed=seed)


def on_cpus(monkeypatch, cpus):
    """Make the probes see ``cpus`` usable CPUs."""
    monkeypatch.setattr(probe, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("target,height,t,k,xi", SPAN_PROBES)
def test_mc_estimates_do_not_depend_on_the_span(monkeypatch, target, height, t, k, xi):
    # nor on the processes that share the spans: one_close and a single
    # span run in this process whatever the CPU count
    for trials in (1, 13, 1001, 20_003):
        want = dataclasses.asdict(_probe(target, height, t, k, xi, trials, 7))
        for lanes, cpus in itertools.product((8, 24, 1000), (1, 2, 3)):
            monkeypatch.setattr(probe, "_MC_LANES", lanes)
            on_cpus(monkeypatch, cpus)
            got = dataclasses.asdict(_probe(target, height, t, k, xi, trials, 7))
            assert got == want, (trials, lanes, cpus)
        monkeypatch.undo()


def test_strong_enumerates_each_pending_pattern_once_over_all_spans(monkeypatch):
    runs, run = [], _Extensions.run

    def counted(self, pattern):
        runs.append(pattern)
        return run(self, pattern)

    monkeypatch.setattr(_Extensions, "run", counted)
    on_cpus(monkeypatch, 1)  # every span in this process, where runs are logged
    one = estimate_probability("strong", 2, 2, method="mc", trials=20_003, seed=5)
    once = list(runs)
    assert once and len(set(once)) == len(once)
    runs.clear()
    monkeypatch.setattr(probe, "_MC_LANES", 64)
    many = estimate_probability("strong", 2, 2, method="mc", trials=20_003, seed=5)
    assert many == one
    assert sorted(runs) == sorted(once)
    # on two processes the memo is each process's own: this one enumerates
    # a pattern of its spans once
    runs.clear()
    on_cpus(monkeypatch, 2)
    assert estimate_probability("strong", 2, 2, method="mc", trials=20_003, seed=5) == one
    assert runs and len(set(runs)) == len(runs) and set(runs) <= set(once)


def test_one_close_span_draws_are_one_draw(monkeypatch):
    # numpy does not document that bounded uint64 draws of consecutive
    # sizes continue one another, below 2^32 too, where each value takes
    # half a stream word; the 1-close probe draws its patterns so
    for lanes in (1, 3, 8, 77):
        monkeypatch.setattr(probe, "_MC_LANES", lanes)
        spans = probe._spans(301)
        for m, seed in itertools.product((1, 3, 7, 8, 15, 16, 31, 32, 33, 40, 63), range(50)):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            want = rng.integers(0, 1 << m, size=301, dtype=np.uint64)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            got = [rng.integers(0, 1 << m, size=b - a, dtype=np.uint64) for a, b in spans]
            assert np.array_equal(np.concatenate(got), want), (m, seed, lanes)
    # and the probe, in spans of 77, decides its patterns in the order of
    # that one draw (at height 2 every pattern is 1-close, so the estimate
    # cannot show it)
    decided, run = [], _Extensions.run
    monkeypatch.setattr(_Extensions, "run", lambda self, p: decided.append(p) or run(self, p))
    want = np.random.default_rng(np.random.SeedSequence(3)).integers(0, 128, size=301, dtype=np.uint64)
    # its spans continue one generator, so they run in this process even
    # where more CPUs are usable
    estimates = []
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        decided.clear()
        estimates.append(estimate_probability("one_close", 2, method="mc", trials=301, seed=3))
        assert decided == list(dict.fromkeys(want.tolist())), cpus
    assert estimates[0] == estimates[1]


def test_mc_peak_memory_does_not_grow_with_the_trials(monkeypatch):
    # a probe holds one span of its cone's columns at a time
    monkeypatch.setattr(probe, "_MC_LANES", 1 << 13, raising=False)
    on_cpus(monkeypatch, 1)  # tracemalloc sees this process alone
    peaks = []
    for trials in (1 << 13, 1 << 16):
        tracemalloc.start()
        try:
            est = estimate_probability("strong", 8, 2, method="mc", trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
    on_cpus(monkeypatch, 2)
    assert estimate_probability("strong", 8, 2, method="mc", trials=1 << 16, seed=1) == est


def host_wide_count(target, height, t, k, trials, seed):
    """(count, denominator) of a probe without light cones: every variable
    drawn as the byte matrix (``trials=None`` enumerates them all), weak's
    time-t state stepped on the whole host, (<= t) on the whole subtree."""
    host, v = build_perfect_tree(k, height + 1), 1
    inside = np.flatnonzero(host.subtree_mask(v)).tolist()
    ids = range(host.n) if target == "weak" and t > 0 else inside
    m = len(ids)
    if trials is None:
        draws, width = [tt_column(i, m) for i in range(m)], 1 << m
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        draws = pack_bit_rows(rng.integers(0, 2, size=(m, trials), dtype=np.uint8))
        width = trials
    cols = [0] * host.n
    for u, col in zip(ids, draws):
        cols[u] = col
    mask = (1 << width) - 1
    sub = _PinnedSubtree(host, v)
    if target == "weak":
        run = BatchRun(adjacency_lists(host), cols, mask, step_budget(host))
        while run.t < t and run.undecided:
            run.advance()
        if (run.t ^ t) & 1:
            run.advance()
        ok = _weak_ok_bits(sub, run.cols, mask)
    elif target == "strong":
        ok = _strong_ok_bits(sub, cols, mask, t, EXTENSION_BUDGET)[0]
    else:
        ok = mask
        for fill in (0, mask):
            ok &= ~_changed_by(sub.run(cols, mask, fill), 0, t)
    return ok.bit_count(), width


@pytest.mark.parametrize(
    "target,k,ts",
    [
        ("weak", 2, lambda h: range(h + 3)),
        ("strong", 2, lambda h: range(4)),
        ("le_t", 2, lambda h: range(2, h + 3, 2)),
        ("le_t", 4, lambda h: range(2, h + 3, 2)),
    ],
    ids=["weak", "strong", "le_t-k2", "le_t-k4"],
)
def test_cone_runs_count_as_the_host_wide_runs(target, k, ts):
    # t reaches past the height, where the cone is the whole host (weak) or
    # the whole subtree (le_t); exact wherever the host-wide enumeration fits
    budget = 1 << 22
    for height in range(5 if k == 2 else 3):
        n = build_perfect_tree(k, height + 1).n
        inside = (n - 1) // (k + 1)
        for t in ts(height):
            for trials, seed in ((1, 0), (13, 1), (1001, 3)):
                want = host_wide_count(target, height, t, k, trials, seed)
                est = estimate_probability(
                    target, height, t, k=k, method="mc", trials=trials, seed=seed
                )
                assert (est.count, est.trials) == want, (height, t, trials)
            variables = n if target == "weak" and t else inside
            if 1 << variables > budget or target == "strong" and 1 << n - inside > budget:
                continue
            est = estimate_probability(target, height, t, k=k, method="exact", budget=budget)
            want = host_wide_count(target, height, t, k, None, None)
            assert (est.count, est.denominator) == want, (height, t)


@pytest.mark.parametrize(
    "target,t,rows,vertices", [("weak", 3, 518, {518}), ("le_t", 4, 31, {32})]
)
def test_probes_pack_and_step_only_the_light_cone(monkeypatch, target, t, rows, vertices):
    # weak at t = 3: the 511-vertex subtree, the root, its two other
    # children and their four; le_t at t = 4: the subtree's top five
    # levels, plus the pinned root
    packed, runs = [], []
    init = BatchRun.__init__

    def pack(bits):
        packed.extend(bits)
        return pack_bit_rows(bits)

    def counted(self, adj, *args):
        runs.append(len(adj))
        init(self, adj, *args)

    monkeypatch.setattr(probe, "pack_bit_rows", pack)
    monkeypatch.setattr(BatchRun, "__init__", counted)
    est = estimate_probability(target, 8, t, method="mc", trials=1000, seed=11)
    assert est.trials == 1000
    assert len(packed) == rows
    assert set(runs) == vertices


def full_height_le_t_count(height, t, k, trials, seed, xi):
    """(count, denominator) of a (<= t) probe on the whole perfect host:
    every subtree variable drawn as the byte matrix, or (``trials=None``)
    the depth-t cone enumerated and each pattern counted for every
    assignment of the variables below it."""
    host, v = build_perfect_tree(k, height + 1), 1
    m = (host.n - 1) // (k + 1)
    sub = _PinnedSubtree(host, v, depth=t)
    cone = len(sub.ids)
    if trials is None:
        draws, width = [tt_column(i, cone) for i in range(cone)], 1 << cone
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        draws = pack_bit_rows(rng.integers(0, 2, size=(m, trials), dtype=np.uint8))
        width = trials
    cols = [0] * host.n
    for u, col in zip(sub.ids, draws):
        cols[u] = col
    mask = (1 << width) - 1
    ok = mask
    for fill in (0, mask):
        ok &= ~_changed_by(sub.run(cols, mask, fill), 0, t)
    if xi is not None:
        ok &= cols[v] if xi > 0 else mask ^ cols[v]
    if trials is None:
        return ok.bit_count() << m - cone, 1 << m
    return ok.bit_count(), width


@pytest.mark.parametrize("k,heights", [(2, range(8)), (4, range(5))])
def test_le_t_probes_build_only_the_levels_their_cone_reads(monkeypatch, k, heights):
    # the host keeps the subtree's top t + 1 levels and the one below them,
    # and every count is the one on the whole host
    built, build = [], probe.build_perfect_tree
    monkeypatch.setattr(probe, "build_perfect_tree", lambda k, h: built.append(h) or build(k, h))
    for height in heights:
        for t in (2, 4):
            cone = (k ** (min(height, t) + 1) - 1) // (k - 1)
            runs = [(1, 0), (13, 1), (1001, 3)] + [(None, 0)] * (cone <= 16)
            for (trials, seed), xi in itertools.product(runs, (None, 1, -1)):
                built.clear()
                method = "mc" if trials else "exact"
                if xi is None:
                    est = estimate_probability(
                        "le_t", height, t, k=k, method=method, trials=trials or 1, seed=seed
                    )
                else:
                    est = le_t_positive_check(
                        k, t, xi, height=height, method=method, trials=trials or 1, seed=seed
                    )
                got = (est.count, est.trials if trials else est.denominator)
                assert got == full_height_le_t_count(height, t, k, trials, seed, xi)
                assert built == [min(height, t + 1) + 1], (height, t)
    # at height 18 the host has 4 levels, not 20, and the value is height 3's
    built.clear()
    tall = estimate_probability("le_t", 18, 2, k=2, method="exact")
    low = estimate_probability("le_t", 3, 2, k=2, method="exact")
    assert built == [4, 4]
    assert tall.denominator == 1 << 2**19 - 1
    assert Fraction(tall.count, tall.denominator) == Fraction(low.count, low.denominator)


def test_mc_strong_reports_unresolved_patterns():
    # at height 2 every sampled pattern is decided (enumeration fits the budget)
    decided = estimate_probability("strong", 2, 2, method="mc", trials=1000, seed=3)
    assert decided.unresolved == 0
    # at height 3 the outside is too large to enumerate; the estimate is a
    # lower bound and the pending trials are reported
    open_t2 = estimate_probability("strong", 3, 2, method="mc", trials=2000, seed=3)
    assert open_t2.unresolved > 0
    assert open_t2.count + open_t2.unresolved <= open_t2.trials
    # at t = 0 the settled parity-0 opinion is forced, so nothing is pending
    open_t0 = estimate_probability("strong", 3, 0, method="mc", trials=2000, seed=3)
    assert open_t0.unresolved == 0


def test_le_t_positive_split_is_symmetric():
    whole = estimate_probability("le_t", 2, 2)
    pos = le_t_positive_check(2, 2, 1)
    neg = le_t_positive_check(2, 2, -1)
    assert pos.xi == 1 and neg.xi == -1
    assert pos.method == neg.method == "exact"
    assert pos.count == neg.count
    assert pos.count + neg.count == whole.count
    assert pos.denominator == whole.denominator


def test_le_t_on_kary_hosts():
    exact = estimate_probability("le_t", 1, 2, k=4)
    assert exact.denominator == 32
    mc = estimate_probability("le_t", 1, 2, k=4, method="mc", trials=2000, seed=5)
    sigma = mc.ci_halfwidth / 3
    assert abs(mc.value - exact.value) <= 4 * sigma + 1e-12


def test_auto_method_selection():
    assert estimate_probability("strong", 2, 0).method == "exact"
    assert estimate_probability("weak", 3, 0).method == "exact"
    assert (
        estimate_probability("strong", 4, 0, trials=200, seed=1).method == "mc"
    )
    assert estimate_probability("weak", 4, 0, trials=200, seed=1).method == "mc"
    # auto decides on the light cone: 2^8 patterns for weak at t = 1, and
    # 2^7 for le_t at t = 2 at every height
    weak = estimate_probability("weak", 2, 1)
    assert (weak.method, weak.denominator) == ("exact", 1 << 22)
    tall = estimate_probability("le_t", 13, 2)
    assert (tall.method, tall.denominator) == ("exact", 1 << 16383)
    assert tall.count == estimate_probability("le_t", 2, 2).count << 16383 - 7
    assert estimate_probability("le_t", 4, 4, trials=200, seed=1).method == "mc"


def test_estimate_validation_errors():
    with pytest.raises(MajlabError):
        estimate_probability("typo", 2, 0)
    with pytest.raises(MajlabError):
        estimate_probability("weak", 2, 0, method="typo")
    with pytest.raises(MajlabError):
        estimate_probability("weak", 2, 0, method="mc", trials=0)
    with pytest.raises(MajlabError):
        estimate_probability("weak", 2, 0, k=3)
    with pytest.raises(BadTimeError):
        estimate_probability("weak", 2, None)
    with pytest.raises(BadTimeError):
        estimate_probability("one_close", 2, 0)
    with pytest.raises(BadTimeError):
        estimate_probability("le_t", 2, 1)
    with pytest.raises(BadTimeError):
        estimate_probability("strong", 2, -1)
    with pytest.raises(BadHostError):
        estimate_probability("strong", 2, 0, k=4)
    with pytest.raises(BudgetExceededError):
        estimate_probability("strong", 4, 0, method="exact")
    with pytest.raises(BadVertexError, match="non-leaf subject") as raised:
        estimate_probability("one_close", 0)
    assert raised.value.code == "BAD_VERTEX"
    with pytest.raises(BadVertexError, match="non-negative, got -1"):
        estimate_probability("weak", -1, 0)
    with pytest.raises(MajlabError, match="xi must be"):
        le_t_positive_check(2, 2, 0)
    # a leaf subject (height 0) is a well-posed question: it copies its
    # parent, the root, whose three leaf neighbours all copy the root and
    # so re-vote the root's earlier opinion, so the leaf is strongly
    # t-stable from t = 1 on; at t = 0 the extension opposite to its
    # opinion flips it at time 2
    leaf = estimate_probability("strong", 0, 0)
    assert (leaf.count, leaf.denominator) == (0, 2)
    leaf = estimate_probability("strong", 0, 1)
    assert (leaf.count, leaf.denominator) == (2, 2)


@pytest.mark.parametrize("method", ["mc", "auto"])
def test_one_close_refuses_an_unaffordable_outside_before_sampling(
    method, monkeypatch, capsys
):
    # height 3: the 15-vertex subtree fits the budget, its 2^31 outside
    # extensions do not, and 1-closeness enumerates them for every pattern
    def no_sampling(*args):
        raise AssertionError("sampled before checking the budget")

    monkeypatch.setattr(probe, "_sampler", no_sampling)
    with pytest.raises(BudgetExceededError, match="Monte Carlo needs the same budget"):
        estimate_probability("one_close", 3, method=method, trials=10)
    argv = ["prob", "--target", "one_close", "--height", "3", "--method", method]
    assert main([*argv, "--trials", "10"]) == 1
    assert "2^31 outside extensions" in capsys.readouterr().err


def test_fixed_point_of_the_weak_stability_recursion():
    res = fixed_point_q()
    assert res.q == pytest.approx(0.07456477142222867, abs=1e-12)
    assert 1 / 16 < res.q < 3 / 40
    assert res.residual <= 1e-12
    # lower/upper report the final bisection bracket around q
    assert res.lower <= res.q <= res.upper
    assert res.upper - res.lower <= 1e-12
    assert res.tolerance == 1e-12
    assert 20 <= res.iterations <= 60
    with pytest.raises(MajlabError):
        fixed_point_q(lower=0.2, upper=0.3)  # no sign change on this bracket


@pytest.mark.parametrize(
    "kwargs",
    [{"tolerance": t} for t in (-1.0, 0.0, float("inf"), float("nan"))]
    + [{"lower": float("-inf")}, {"upper": float("inf")}, {"lower": float("nan")}],
)
def test_fixed_point_refuses_a_meaningless_bound(kwargs):
    # before bisecting: a negative tolerance would report 200 iterations,
    # and an infinite one a result that JSON cannot hold
    with pytest.raises(MajlabError, match="finite bracket ends"):
        fixed_point_q(**kwargs)


def test_mc_tau_is_worker_invariant_and_seeded():
    one = mc_tau(2, 3, trials=40, seed=9, workers=1)
    many = mc_tau(2, 3, trials=40, seed=9, workers=3)
    other = mc_tau(2, 3, trials=40, seed=10, workers=1)
    assert one.taus == many.taus
    assert one.trial_seeds == many.trial_seeds
    assert one.taus != other.taus
    assert one.trial_seeds == [trial_seed(9, i) for i in range(40)]

    host = build_perfect_tree(2, 3)
    assert one.n == host.n and one.diameter == host.diameter
    assert one.budget == step_budget(host)
    assert max(one.taus) <= one.budget
    stats = one.stats()
    assert sum(stats["histogram"].values()) == 40
    assert stats["max"] == max(one.taus)
    assert stats["ratio_median"] == pytest.approx(
        float(np.median(np.array(one.taus) / host.diameter))
    )


def test_mc_tau_stats_are_numpys_median_and_quantiles():
    # stats() reads them from the sorted taus, by numpy's linear rule
    rng = np.random.default_rng(27)
    for _ in range(1500):
        n = int(rng.integers(1, 301))
        high = int(rng.choice([1, 2, 5, 40, 10**6]))  # small highs give ties
        taus = [int(v) for v in rng.integers(0, high, n, endpoint=True)]
        diameter = int(rng.integers(1, 61))
        summary = probe.McSummary(2, 3, 22, diameter, 9, n, 0, taus, list(range(n)))
        stats = summary.stats()
        assert stats["median"] == float(np.median(taus))
        assert stats["ratio_median"] == float(np.median(np.array(taus) / diameter))
        for p in (5, 25, 75, 95):
            assert stats["quantiles"][str(p)] == float(np.quantile(taus, p / 100))
        ordered = sorted(taus)
        want = np.quantile(taus, np.arange(101) / 100).tolist()
        assert [probe._linear_quantile(ordered, p / 100) for p in range(101)] == want


def test_mc_tau_trials_are_the_scalar_runs_of_their_seeds():
    host = build_perfect_tree(2, 4)
    summary = mc_tau(2, 4, trials=70, seed=3)
    want = []
    for i in range(70):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(i,)))
        want.append(stabilise(host, OpinionVector.random(host.n, rng)).tau)
    assert summary.taus == want


def test_mc_tau_builds_no_tree(monkeypatch):
    for k in (2, 4, 6):
        for h in range(1, 7):
            summary, host = mc_tau(k, h, trials=1, seed=0), build_perfect_tree(k, h)
            assert summary.n == host.n and summary.diameter == host.diameter
            assert summary.budget == step_budget(host)
    want = mc_tau(4, 6, 130, 20261018).taus

    def refuse(*args, **kwargs):
        raise AssertionError("mc_tau built a tree")

    monkeypatch.setattr(probe, "build_perfect_tree", refuse)
    monkeypatch.setattr(RootedTree, "__init__", refuse)
    assert mc_tau(4, 6, 130, 20261018).taus == want


@pytest.mark.parametrize(
    "trials,workers,processes",
    [(10, 4, None), (64, 3, None), (65, 3, 2), (130, 2, 2), (200, 8, 4), (130, 1, None)],
)
def test_mc_tau_forks_at_most_one_process_per_word(
    monkeypatch, pid_log, trials, workers, processes
):
    # the processes that run trials, this one included; None: this one alone
    monkeypatch.setattr(probe, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(probe, "_batch_taus", pid_log.wrap(probe._batch_taus))
    summary = mc_tau(2, 3, trials=trials, seed=5, workers=workers)
    assert len(pid_log.pids()) == (processes or 1) and os.getpid() in pid_log.pids()
    monkeypatch.undo()
    assert summary.taus == mc_tau(2, 3, trials=trials, seed=5).taus


def test_cli_import_leaves_out_the_pool_modules():
    # the one pool forks bare processes, so no majlab module loads either
    # pool module, whose import would cost a command 16-29 ms
    code = (
        "import sys, majlab.cli, majlab.claims, majlab.probe, majlab.stability; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(probe.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_a_process_that_cannot_fork_uses_one_cpu(monkeypatch):
    # check-claims then runs its suites, and prob its spans, in-process, as
    # on Windows
    assert probe._usable_cpus() >= 1
    monkeypatch.delattr(os, "fork")
    assert probe._usable_cpus() == 1


@contextlib.contextmanager
def leaves_no_child_or_fd():
    """Checks that the body, a ``probe._fork_map`` call, leaves no child
    process and no file descriptor behind."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def job_and_pid(job):
    return job, os.getpid()


pool_semantics = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="forks, and lists /proc/self/fd",
)


@pool_semantics
@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 12])
def test_fork_map_returns_the_results_in_job_order(monkeypatch, cpus, count):
    monkeypatch.setattr(probe, "_usable_cpus", lambda: cpus)
    jobs = [f"job {i}" for i in range(count)]
    with leaves_no_child_or_fd():
        out = probe._fork_map(job_and_pid, jobs)
    assert [job for job, _ in out] == jobs
    # dealt round-robin to one process per job at most, this one first
    pids = [pid for _, pid in out]
    used = min(cpus, count)
    assert len(set(pids)) == used
    assert pids == [pids[i % used] for i in range(count)]
    assert pids[:1] in ([], [os.getpid()])


def fail_in_a_child(error):
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent and job == 3:
            raise error(f"job {job} failed in process {os.getpid()}")
        return job

    return fn


@pool_semantics
@pytest.mark.parametrize("error", [BudgetExceededError, ValueError, MemoryError])
@pytest.mark.parametrize("cpus", [2, 4])
def test_an_exception_in_a_fork_map_child_is_raised_again(monkeypatch, error, cpus):
    monkeypatch.setattr(probe, "_usable_cpus", lambda: cpus)
    with leaves_no_child_or_fd(), pytest.raises(error) as raised:
        probe._fork_map(fail_in_a_child(error), list(range(8)))
    assert type(raised.value) is error
    message = str(raised.value)
    assert message.startswith("job 3 failed in process ")
    assert message != f"job 3 failed in process {os.getpid()}"


@pool_semantics
@pytest.mark.parametrize("how", ["SIGKILL", "SIGTERM", "exit"])
def test_a_fork_map_child_that_dies_is_an_error(monkeypatch, how):
    monkeypatch.setattr(probe, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), getattr(signal, how))
        return job

    want = "exited with status 3" if how == "exit" else f"killed by {how}"
    with leaves_no_child_or_fd(), pytest.raises(MajlabError, match=want):
        probe._fork_map(fn, list(range(4)))


@pool_semantics
def test_a_fork_map_parent_that_fails_stops_its_children(monkeypatch):
    # the children would sleep for minutes: they are killed and reaped
    monkeypatch.setattr(probe, "_usable_cpus", lambda: 3)
    parent = os.getpid()

    def fn(job):
        if os.getpid() == parent:
            raise BadTimeError("the parent's share failed")
        time.sleep(300)

    start = time.perf_counter()
    with leaves_no_child_or_fd(), pytest.raises(BadTimeError, match="the parent's share failed"):
        probe._fork_map(fn, list(range(6)))
    assert time.perf_counter() - start < 60


FLUSH_ONCE = """\
import atexit, sys
from majlab import probe
probe._usable_cpus = lambda: 3
atexit.register(lambda: print("at exit"))
print("before the pool", end=" ")  # held in the buffer of a piped stdout
try:
    print(probe._fork_map({job}, range(5)), end=" ")
except ValueError as exc:
    print("raised", exc, end=" ")
print("after the pool")
"""


@pool_semantics
@pytest.mark.parametrize(
    "job,out",
    [
        ("lambda job: job * job", "before the pool [0, 1, 4, 9, 16] after the pool\nat exit\n"),
        ("lambda job: int('x') if job == 2 else job",
         "before the pool raised invalid literal for int() with base 10: 'x' after the pool\n"
         "at exit\n"),
    ],
    ids=["results", "error"],
)
def test_fork_map_children_flush_nothing_of_the_parent(job, out):
    # a child leaves by os._exit alone: no stdout buffer flushed twice, no
    # exit handler run
    env = {**os.environ, "PYTHONPATH": str(Path(probe.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", FLUSH_ONCE.format(job=job)],
        capture_output=True, text=True, check=True, env=env,
    )
    assert (proc.stdout, proc.stderr) == (out, "")


def test_mc_tau_validation():
    with pytest.raises(MajlabError):
        mc_tau(2, 3, trials=0, seed=0)
    for workers in (0, -2):
        with pytest.raises(MajlabError, match="workers"):
            mc_tau(2, 3, trials=10, seed=0, workers=workers)
    with pytest.raises(MajlabError):
        mc_tau(3, 3, trials=10, seed=0)
