"""Property suites: registry, determinism, small-scale passes, the
forest run that every sampled suite steps its instances through, and the
weak verdicts decided from its history."""

import os

import numpy as np
import pytest

from majlab import claims, probe
from majlab.claims import (
    ALL_SUITES,
    STRUCTURAL_SUITES,
    _CHUNK,
    _runs,
    _stabilise_each,
    run_claim_suites,
    weak_definition_sweep,
)
from majlab.dynamics import OpinionVector, stabilise
from majlab.errors import MajlabError
from majlab.stability import is_weakly_t_stable
from majlab.trees import build_perfect_tree


def test_registry_shape():
    assert len(STRUCTURAL_SUITES) == 8
    assert set(STRUCTURAL_SUITES) <= set(ALL_SUITES)
    assert len(ALL_SUITES) == len(set(ALL_SUITES))


def test_all_suites_pass_at_small_scale():
    reports = run_claim_suites(instances=300, seed=1)
    assert [r.name for r in reports] == list(ALL_SUITES)
    for report in reports:
        assert report.passed, report.summary_line()
        assert report.violations == 0
        assert report.examples == []
        assert 0 < report.satisfied <= report.instances
        assert "pass" in report.summary_line()
        if report.name in STRUCTURAL_SUITES:
            assert report.instances == 300  # sweeps may fix their own count


def test_single_suite_selection_and_determinism():
    first = run_claim_suites(["tau_within_budget"], instances=100, seed=7)
    again = run_claim_suites(["tau_within_budget"], instances=100, seed=7)
    assert len(first) == 1
    assert first[0].name == "tau_within_budget"
    assert (first[0].satisfied, first[0].violations) == (
        again[0].satisfied,
        again[0].violations,
    )


def on_cpus(monkeypatch, cpus):
    """Make ``run_claim_suites`` see ``cpus`` usable CPUs."""
    monkeypatch.setattr(probe, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("instances", [1, _CHUNK + 1])
@pytest.mark.parametrize("seed", [3, 8])
def test_reports_do_not_depend_on_the_cpu_count(monkeypatch, seed, instances):
    on_cpus(monkeypatch, 1)
    alone = run_claim_suites(instances=instances, seed=seed)
    assert [r.name for r in alone] == list(ALL_SUITES)
    for cpus in (2, 3):
        on_cpus(monkeypatch, cpus)
        assert run_claim_suites(instances=instances, seed=seed) == alone
    # a selection comes back in the order it was asked for
    names = list(ALL_SUITES)[::-3]
    picked = run_claim_suites(names, instances=instances, seed=seed)
    assert picked == [alone[list(ALL_SUITES).index(name)] for name in names]


@pytest.mark.parametrize(
    "names,cpus,processes",
    [
        (None, 1, None),
        (None, 2, 2),
        (None, 40, len(ALL_SUITES)),
        (["tau_within_budget"], 4, None),
        (["fixed_point_bracket", "tau_within_budget"], 5, 2),
        ([], 3, None),
    ],
)
def test_claims_fork_at_most_one_process_per_suite(monkeypatch, pid_log, names, cpus, processes):
    # the processes that run suites, this one included; None: this one alone
    monkeypatch.setattr(claims, "_run_suite", pid_log.wrap(claims._run_suite))
    on_cpus(monkeypatch, cpus)
    reports = run_claim_suites(names, instances=2, seed=5)
    if processes is None:
        assert pid_log.pids() == ({os.getpid()} if names != [] else set())
    else:
        assert len(pid_log.pids()) == processes and os.getpid() in pid_log.pids()
    on_cpus(monkeypatch, 1)
    assert reports == run_claim_suites(names, instances=2, seed=5)


def test_unknown_suite_is_rejected():
    with pytest.raises(MajlabError):
        run_claim_suites(["no_such_suite"], instances=10, seed=0)


def test_weak_definition_sweep_small():
    report = weak_definition_sweep(max_height=2, k_max=5)
    assert report.passed
    assert report.violations == 0
    assert report.satisfied == report.instances > 0


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def hosts_of(name, exhaustive_suite, random_suite):
    perfect = [build_perfect_tree(2, h) for h in range(1, 5)]
    return {
        "exhaustive": exhaustive_suite,
        "random": random_suite,
        "perfect": perfect,
        # sizes interleaved, so components of every size sit side by side
        "mixed": [
            tree
            for trio in zip(random_suite, exhaustive_suite, perfect * 50)
            for tree in trio
        ],
        "single": random_suite[:1],
        "none": [],
    }[name]


@pytest.mark.parametrize(
    "name", ["exhaustive", "random", "perfect", "mixed", "single", "none"]
)
def test_forest_run_splits_into_per_host_results(
    name, exhaustive_suite, random_suite
):
    hosts = hosts_of(name, exhaustive_suite, random_suite)
    rng = np.random.default_rng(11)
    xi0s = [OpinionVector.random(host.n, rng) for host in hosts]
    runs = _stabilise_each(hosts, xi0s)
    assert len(runs) == len(hosts)
    for host, xi0, run in zip(hosts, xi0s, runs):
        want = stabilise(host, xi0, keep_history=True)
        assert type(run.tau) is int
        assert run.tau == want.tau
        assert_same_array(run.hist, np.array(want.history))
        assert_same_array(run.last_flip, want.last_flip)
        even, odd = run.last_flip_by_parity
        assert_same_array(even, want.last_flip_even)
        assert_same_array(odd, want.last_flip_odd)
        for v in range(host.n):
            for t in range(want.tau + 4):
                assert run.t_stable(v, t) == want.is_vertex_t_stable(v, t), (v, t)


def test_weak_verdicts_match_the_public_decider():
    # one table per host decides every (vertex, time) of every run at once
    rng = np.random.default_rng(3)
    asks = [
        (host, OpinionVector.random(host.n, rng))
        for host in [claims._binary(2).tree, claims._binary(3).tree] * 20
    ]
    checked = 0
    for (host, xi0), run in zip(asks, _runs(asks)):
        for v in range(1, host.n):
            for t in range(run.tau + 4):
                want = is_weakly_t_stable(host, xi0, v, t).verdict
                assert run.weak(v, t) == want, (host.n, v, t, xi0.to_string())
                checked += 1
    assert checked > 2000


def test_weak_tables_reuse_each_binary_host_pinned_subtrees(monkeypatch):
    # the pinned subtrees are built once per host and process, and a run
    # never changes them: a second table on the same rows is the first
    built = []

    class Counted(claims._PinnedSubtree):
        def __init__(self, tree, v, *args, **kwargs):
            built.append((tree.n, v))
            super().__init__(tree, v, *args, **kwargs)

    monkeypatch.setattr(claims, "_BINARY_HOSTS", {})
    monkeypatch.setattr(claims, "_PinnedSubtree", Counted)
    rng = np.random.default_rng(5)
    for h in (2, 3, 4):
        host = claims._binary(h)
        assert built == [(host.tree.n, v) for v in range(1, host.tree.n)]
        built.clear()
        xi0s = [OpinionVector.random(host.tree.n, rng) for _ in range(30)]
        rows = np.concatenate([run.hist for run in _stabilise_each([host.tree] * 30, xi0s)])
        first = claims._weak_table(host, rows)
        assert np.array_equal(claims._weak_table(host, rows), first)
        assert claims._binary(h) is host
        assert not built
        # and it is the table of subtrees built afresh
        fresh = [None] + [Counted(host.tree, v) for v in range(1, host.tree.n)]
        assert np.array_equal(claims._weak_table(host._replace(pinned=fresh), rows), first)
        built.clear()


def test_strong_value_symmetry_counts(monkeypatch):
    # over all 2^22 vectors of the height-3 binary host, the strong ones at
    # vertex 1 split evenly by its time-t opinion, in these numbers
    seen = []
    tally = claims._tally

    def recorded(name, outcomes):
        outcomes = list(outcomes)
        seen.extend(example for _, _, example in outcomes)
        return tally(name, outcomes)

    monkeypatch.setattr(claims, "_tally", recorded)
    (report,) = run_claim_suites(["strong_value_symmetry"], instances=1)
    assert report.passed and report.instances == 4
    counts = [1_179_648, 1_048_576, 1_310_720, 2_097_152]
    assert seen == [f"t={t} +1:{c} -1:{c}" for t, c in enumerate(counts)]
