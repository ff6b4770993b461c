"""Probability estimation: frozen exact values, MC consistency, fixed point."""

from fractions import Fraction

import numpy as np
import pytest

import majlab.probe as probe
from majlab.cli import main
from majlab.dynamics import OpinionVector, stabilise, step_budget
from majlab.errors import (
    BadHostError,
    BadTimeError,
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
from majlab.bitsliced import pack_bit_rows
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
    "m,trials", [(1, 1), (3, 5), (7, 13), (9, 64), (11, 1001), (511, 2000)]
)
def test_mc_pattern_columns_are_the_byte_matrix_draw(m, trials):
    host = build_perfect_tree(2, 9)
    ids = list(range(host.n - m, host.n))
    for seed in (0, 20261018):
        # the one-byte-per-bit draw that the packed draw must reproduce
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want = pack_bit_rows(rng.integers(0, 2, size=(m, trials), dtype=np.uint8))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        cols, width = probe._pattern_cols(host, ids, trials, rng)
        assert width == trials
        assert [cols[u] for u in ids] == want
        assert not any(cols[: host.n - m])


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
    # a leaf subject is never strongly stable, but the question is well posed
    leaf = estimate_probability("strong", 0, 0)
    assert (leaf.count, leaf.denominator) == (0, 2)


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
    monkeypatch.setattr(RootedTree, "_finish", refuse)
    assert mc_tau(4, 6, 130, 20261018).taus == want


@pytest.mark.parametrize(
    "trials,workers,processes",
    [(10, 4, None), (64, 3, None), (65, 3, 2), (130, 2, 2), (200, 8, 4), (130, 1, None)],
)
def test_mc_tau_forks_at_most_one_process_per_word(monkeypatch, trials, workers, processes):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(probe, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(probe, "_POOL_HOST", None)
    summary = mc_tau(2, 3, trials=trials, seed=5, workers=workers)
    assert pools == ([] if processes is None else [processes])
    assert summary.taus == mc_tau(2, 3, trials=trials, seed=5).taus


def test_mc_tau_validation():
    with pytest.raises(MajlabError):
        mc_tau(2, 3, trials=0, seed=0)
    for workers in (0, -2):
        with pytest.raises(MajlabError, match="workers"):
            mc_tau(2, 3, trials=10, seed=0, workers=workers)
    with pytest.raises(MajlabError):
        mc_tau(3, 3, trials=10, seed=0)
