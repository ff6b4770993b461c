"""Golden pins recorded with majlab 0.1.0.

The statistical tests allow a Monte Carlo estimate 4 sigma of slack, so
an implementation that drew or decided differently could still pass
them.  These pins fix the exact counts instead, and fix every verdict,
method, extension count and certificate of the weak, strong, (<= t) and
1-close deciders on each subtree pattern of a small host.  They also fix
every field of the property-suite reports, on the real engine and on two
broken ones that some suites must catch, and every field of the
worst-case report on perfect and random hosts.
"""

import hashlib
import json

import numpy as np
import pytest

import majlab.claims
from majlab.claims import run_claim_suites
from majlab.cli import main
from majlab.dynamics import OpinionVector
from majlab.probe import estimate_probability, mc_tau
from majlab.stability import (
    is_le_t_stable,
    is_one_close_to_stability,
    is_strongly_t_stable,
    is_weakly_t_stable,
)
from majlab.treegen import random_odd_tree
from majlab.trees import RootedTree, build_perfect_tree, reroot
from majlab.worstcase import worst_case_tau

# the host of test_stability: its depth-1 vertex has height 2
HOST = RootedTree.from_edges(
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7)]
)


@pytest.mark.parametrize(
    "target,height,t,trials,seed,count,unresolved",
    [
        ("strong", 3, 2, 2000, 3, 1237, 763),
        # 75,301 lanes in 48 subtree patterns are left pending by the extremes
        ("strong", 2, 2, 200_000, 1, 124_699, 0),
        # n = 12,286: the outside of the subject is far over budget
        ("strong", 11, 2, 64, 1, 42, 20),
        ("weak", 3, 0, 2000, 3, 1882, None),
        ("weak", 3, 1, 2000, 3, 1958, None),
        ("weak", 2, 3, 2000, 3, 2000, None),
        ("le_t", 3, 4, 2000, 3, 1119, None),
        ("one_close", 2, None, 500, 3, 500, None),
    ],
)
def test_mc_counts(target, height, t, trials, seed, count, unresolved):
    est = estimate_probability(
        target, height, t, method="mc", trials=trials, seed=seed
    )
    assert (est.method, est.trials, est.seed) == ("mc", trials, seed)
    assert (est.count, est.unresolved) == (count, unresolved)
    assert est.value == count / trials


@pytest.mark.parametrize(
    "target,height,t,trials,seed,count,unresolved",
    [
        ("strong", 3, 2, 1001, 3, 645, 356),
        # the host-wide draw: 46 rows
        ("weak", 3, 1, 13, 1, 12, None),
        ("weak", 3, 1, 1001, 3, 989, None),
        ("le_t", 3, 4, 1001, 3, 583, None),
        # the rows above read only the first block at even times; these
        # also read the last one
        ("strong", 3, 3, 1001, 3, 484, 517),
        ("le_t", 4, 4, 1001, 3, 550, None),
    ],
)
def test_mc_counts_at_trials_off_the_byte_grid(
    target, height, t, trials, seed, count, unresolved
):
    # the last eight-row block of the draw ends inside a stream word
    est = estimate_probability(
        target, height, t, method="mc", trials=trials, seed=seed
    )
    assert (est.count, est.unresolved, est.trials) == (count, unresolved, trials)


def test_le_t_positive_count_at_trials_off_the_byte_grid():
    est = estimate_probability("le_t", 2, 4, xi=-1, method="mc", trials=999, seed=3)
    assert (est.xi, est.count, est.trials) == (-1, 280, 999)


@pytest.mark.parametrize(
    "xi,method,count,denominator",
    [
        (1, "exact", 36, 128),
        (-1, "exact", 36, 128),
        (1, "mc", 571, 2000),
        (-1, "mc", 548, 2000),
    ],
)
def test_le_t_positive_counts(xi, method, count, denominator):
    est = estimate_probability("le_t", 2, 4, xi=xi, method=method, trials=2000, seed=3)
    assert (est.xi, est.method, est.count) == (xi, method, count)
    assert (est.denominator or est.trials) == denominator


@pytest.mark.parametrize(
    "k,h,trials,seed,taus",
    [
        (
            4, 6, 130, 20261018,
            "6457453544644544335544445534643333653435434336334333543535344333"
            "3338464544332536445533253433435343436453454734555344455344444343"
            "55",
        ),
        (
            2, 8, 70, 7,
            "5654423323354335324334443325432434423443325233247343443442323533"
            "333343",
        ),
    ],
)
def test_mc_tau_taus(k, h, trials, seed, taus):
    # both runs cross a 64-trial word boundary
    summary = mc_tau(k, h, trials=trials, seed=seed)
    assert "".join(map(str, summary.taus)) == taus


def test_mc_tau_summary_is_worker_invariant():
    one = mc_tau(4, 6, trials=130, seed=20261018, workers=1)
    three = mc_tau(4, 6, trials=130, seed=20261018, workers=3)
    assert (three.taus, three.trial_seeds) == (one.taus, one.trial_seeds)
    assert three.stats() == one.stats()


def _pattern_vector(ids, bits):
    signs = np.ones(HOST.n, dtype=np.int8)
    for i, u in enumerate(ids):
        signs[u] = 1 if (bits >> i) & 1 else -1
    return OpinionVector.from_signs(signs)


@pytest.mark.parametrize(
    "decide,vertices,times,rows,stable,digest",
    [
        (
            is_strongly_t_stable, (1, 4), (0, 1, 2, 3), 160, 152,
            "803fd1a52a50b17444fc61d5b84b7ee4581fd169499128c8ff6ac698538d7994",
        ),
        (
            is_le_t_stable, range(1, 8), (2, 3, 4), 150, 112,
            "e285bc43a6a85f15f96b1718cda03bc89030a8a5014da9f48e8c8bc0177a85fc",
        ),
        (
            is_one_close_to_stability, (1, 4), (None,), 40, 40,
            "52d3aefa8824c25e9e3e9b897a0925bbc584ef1378881cf335681d14e16b43a1",
        ),
        (
            is_weakly_t_stable, range(1, 8), (0, 1, 2, 3, 4), 250, 250,
            "ad693305bc8bca44f440f2d9e533b4a03b3947a3ec5263c5b4b9893326220b2d",
        ),
    ],
)
def test_decider_verdicts_on_every_pattern(decide, vertices, times, rows, stable, digest):
    sha = hashlib.sha256()
    seen = held = 0
    for v in vertices:
        ids = [int(u) for u in np.flatnonzero(HOST.subtree_mask(v))]
        for t in times:
            for bits in range(1 << len(ids)):
                extra = () if t is None else (t,)
                r = decide(HOST, _pattern_vector(ids, bits), v, *extra)
                cert = "-" if r.certificate is None else r.certificate.to_string()
                row = f"{r.vertex} {r.t} {int(r.verdict)} {r.method} {r.checked} {cert}\n"
                sha.update(row.encode())
                seen += 1
                held += r.verdict
    assert (seen, held) == (rows, stable)
    assert sha.hexdigest() == digest


@pytest.mark.parametrize(
    "n,seed,digest",
    [
        (1, 0, "a318c24216defe206feeb73ef5be00033fa9c4a74d0b967f6532a26ca5906d3b"),
        (7, 0, "e1ecf64e5512ac805e76a710bc6d87abdd8b13714540eedcb9c983a03aa3377a"),
        (8, 0, "ad7588c2775c6278f32ece793e7feda11097c95cacb86b401ef5a8b817ddbdf7"),
        (9, 0, "167e8f46cfd66a84f857590361f606460ed3cb37495b90627d922c93ae6892aa"),
        (64, 0, "1485a0b43c50986ce62d0f9ca264cdff85b87bdd3c12ed67b2cfb22179bae559"),
        (100003, 0, "9bc57c2436a2522b40455b21ee9348980d955a0f69c6fb92fdbe63d6a1048e41"),
        (1, 20261018, "a318c24216defe206feeb73ef5be00033fa9c4a74d0b967f6532a26ca5906d3b"),
        (7, 20261018, "3ea7c3261a9864fa6cf81c02a2699f35c60516886b8a0d5a093f02a620cc4582"),
        (8, 20261018, "b3b58bf578a89db91ce6001cdb3ec66ed1af64e35990c0779a9a317153c901f7"),
        (9, 20261018, "f941b04fb8c00fdff3efbbfd21ec4e82aa2edf6820b122019a307dd31d599793"),
        (64, 20261018, "be8d6b7b8216678477878a24dd07f146bcfdc2aeff92a643fff2721fb1cd6806"),
        (100003, 20261018, "84015f644f78806585e74c8e878bc80030451e5718b4cf50168c41fc022b1da3"),
    ],
)
def test_random_opinion_strings(n, seed, digest):
    # ceil(n/8) drawn bytes read as little-endian bits; the trailing bits
    # of the last byte are dropped
    text = OpinionVector.random(n, np.random.default_rng(seed)).to_string()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n,digest",
    [
        (6, "f2bda78c3a7dab0e5751aefda19c66251b6eb49b35cb8ce592ad1e917258c4a2"),
        (20, "ba7997b642bc17d1a265298c568d639e04e1650ca29b43f0b7afe143e278a3a1"),
        (200, "5961f78319600bf50582d7d26c7dce626231ac9d2dbf5f5808886e8113021054"),
    ],
)
def test_random_odd_trees(n, digest):
    # the claim-report digests rest on these trees: one rng.integers(size)
    # draw per attached pair of leaves, in order
    sha = hashlib.sha256()
    for seed in range(4):
        tree = random_odd_tree(n, np.random.default_rng(seed))
        sha.update(tree.parent.tobytes())
        sha.update(tree.order.tobytes())
    assert sha.hexdigest() == digest


def worst_case_digest(tree):
    r = worst_case_tau(tree)
    row = (r.tau, r.argmax.vertices, r.witness.to_string(), sorted(r.per_vertex_bound.items()))
    return hashlib.sha256(repr(row).encode()).hexdigest()


@pytest.mark.parametrize(
    "k,h,digest",
    [
        (4, 4, "3166ff9ee6e904dac409e14c362189d2662eea22ebb6168ca358e4fa18ed2666"),
        (2, 7, "4a21924d21e9684d8b8c2573d01e3c8e887fe127b733a96c898b12c0af196343"),
    ],
)
def test_worst_case_reports_on_perfect_hosts(k, h, digest):
    assert worst_case_digest(build_perfect_tree(k, h)) == digest


@pytest.mark.parametrize(
    "n,seed,root,digest",
    [
        (20, 0, 0, "a1f5c83da712cee1170f096be8ab1beb190be5e0b9c631538d2fc6a5646651f7"),
        (20, 1, 0, "510a7a965840f5a4b88ec196741e5b0f204128b04c840b0d838575fdd4a6e99d"),
        (200, 0, 0, "c13f310e75cb5a838084be5eb561a58b9519bd48592d0d56130f95091e120102"),
        (200, 1, 0, "6b86d53ce239f58fbda39241bcee3b94325ecf9a1a10dc923bc45f3fcfe856ba"),
        (2000, 0, 0, "d234563d5b102cfce9aa9f1a6713de16598f1aeaa7ca4cab6fb42f0b061c8ac8"),
        (2000, 1, 0, "37cf78e28f5e5e2051a358f46d37620bc72ebf938676d516c4fa61eafc107d45"),
        # the report does not depend on the root
        (2000, 0, 1000, "d234563d5b102cfce9aa9f1a6713de16598f1aeaa7ca4cab6fb42f0b061c8ac8"),
    ],
)
def test_worst_case_reports_on_random_trees(n, seed, root, digest):
    tree = reroot(random_odd_tree(n, np.random.default_rng(seed)), root)
    assert worst_case_digest(tree) == digest


def report_digest(reports):
    sha = hashlib.sha256()
    for r in reports:
        row = f"{r.name} {r.instances} {r.satisfied} {r.violations} {r.examples}\n"
        sha.update(row.encode())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "seed,digest",
    [
        (1, "f69c7683ba7b67e6506dfc188b947c8730db110398de14438af244c90458a499"),
        (2, "5f714738e273e7a49bfbc39d622ea415ab22e6d0892086bd4b92c6bb91967332"),
        (3, "32b6f1e72d4008c85171cfaafd20d8438fc937d48a3f6964e2453b57dc08576b"),
    ],
)
def test_claim_reports(seed, digest):
    assert report_digest(run_claim_suites(instances=300, seed=seed)) == digest


@pytest.mark.parametrize(
    "instances,digest",
    [
        (1, "a8cd0cde0d73ff8bd723ffa2d5c468f14434bc5f9b68ca72a9dbec84e3a849cf"),
        (7, "1f1f5bf2a880c7c37dccc575757a7f2da5e171a3aede1771b5b30a161e1af437"),
        (65, "e0299d4cbe3f8b37259f0ec5b34915ca78fc56bca2bf6d71837571eb4fabf513"),
    ],
)
def test_claim_reports_at_awkward_widths(instances, digest):
    assert report_digest(run_claim_suites(instances=instances, seed=4)) == digest


def test_claim_reports_across_chunk_boundaries(monkeypatch):
    # 300 instances in chunks of 7: 42 full chunks and a partial one
    monkeypatch.setattr(majlab.claims, "_CHUNK", 7)
    for seed, digest in [
        (1, "f69c7683ba7b67e6506dfc188b947c8730db110398de14438af244c90458a499"),
        (2, "5f714738e273e7a49bfbc39d622ea415ab22e6d0892086bd4b92c6bb91967332"),
        (3, "32b6f1e72d4008c85171cfaafd20d8438fc937d48a3f6964e2453b57dc08576b"),
    ]:
        assert report_digest(run_claim_suites(instances=300, seed=seed)) == digest


def drop_history_row(run):
    """Forget the state at time 1; the window keeps its length by
    repeating its last row."""
    hist = run.hist
    return run._replace(hist=np.concatenate([hist[:1], hist[2:], hist[-1:]]))


def one_step_late(run):
    """Report tau and every last flip one step late."""
    last = run.last_flip
    return run._replace(tau=run.tau + 1, last_flip=np.where(last >= 0, last + 1, last))


# each breakage with the suites it fails, their first examples, and the digest
BROKEN_ENGINES = pytest.mark.parametrize(
    "breakage,failing,digest",
    [
        (
            drop_history_row,
            {
                "balky_switch_rule": (157, "n=8 v=1 u=0 s=1 xi0=--++++--"),
                "weak_value_maintenance": (
                    14, "n=22 v=9 t1=3 t2=7 xi0=--+--+++-+-++-++++----"
                ),
                # a tau = 0 window becomes (xi_0, xi_0, xi_0): its settled
                # pair, read from the rows, swaps only if xi_0 is fixed
                "tau_within_budget": (14, "n=6 tau=0 xi0=-++-++"),
                "flip_has_cause": (158, "n=14 v=0 t=1 xi0=++---++++-++-+"),
                "counterexample_replay": (25, "kind=1 v=7 xi0=+----++-++"),
            },
            "9eb7b12be4b5dbf66b9b63a63e70f4ed937d605031edddbab5c237bf2e133fc8",
        ),
        (
            one_step_late,
            {
                "active_deadline": (7, "n=12 v=2 L=1 last_flip=3 xi0=-++---+-----"),
                "witness_attains_tau": (200, "n=10 tau=1 achieved=2"),
            },
            "49d032f7dc73ac2f63f3767c4b8b12c5bf0a593a4a19c743a9d4bac64404de0c",
        ),
    ],
    ids=["drop_history_row", "one_step_late"],  # a re-pin keeps the test's id
)


@BROKEN_ENGINES
def test_claim_reports_under_a_broken_engine(monkeypatch, breakage, failing, digest):
    # the suites run every trajectory through one seam; break each run
    each = majlab.claims._stabilise_each

    def broken(hosts, xi0s):
        return [breakage(run) for run in each(hosts, xi0s)]

    monkeypatch.setattr(majlab.claims, "_stabilise_each", broken)
    reports = run_claim_suites(instances=200, seed=5)
    caught = {r.name: (r.violations, r.examples[0]) for r in reports if not r.passed}
    assert caught == failing
    assert all(len(r.examples) == min(r.violations, 5) for r in reports)
    assert report_digest(reports) == digest


@BROKEN_ENGINES
def test_claim_reports_under_a_broken_engine_in_workers(monkeypatch, breakage, failing, digest):
    # two forked workers run the engine that the parent patched, and send
    # back the same reports, violation examples included
    monkeypatch.setattr(majlab.probe, "_usable_cpus", lambda: 2)
    test_claim_reports_under_a_broken_engine(monkeypatch, breakage, failing, digest)


def test_check_claims_under_a_broken_engine_exits_1(monkeypatch, tmp_path, capsys):
    # a summary line per suite on stdout, the artifact, and one
    # CLAIM_VIOLATION line on stderr
    each = majlab.claims._stabilise_each
    monkeypatch.setattr(
        majlab.claims, "_stabilise_each",
        lambda hosts, xi0s: [one_step_late(run) for run in each(hosts, xi0s)],
    )
    out = tmp_path / "claims.json"
    argv = ["check-claims", "--suites", "fixed_point_bracket,active_deadline",
            "--instances", "200", "--seed", "5", "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.out.splitlines()] == ["pass", "FAIL"]
    assert captured.err == "CLAIM_VIOLATION: 1 suite(s) reported violations\n"
    assert [r["passed"] for r in json.loads(out.read_text())["result"]] == [True, False]
