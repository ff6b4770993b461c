"""Probability estimates for stability events on perfect k-ary hosts.

The subject vertex is always a child of the root of a perfect k-ary
host one level taller than the requested subject height, so that its
subtree is a perfect k-ary tree of exactly that height.  Opinions on
the subtree are the random input; the universal predicates (strong,
(<= t), 1-close) do not depend on anything else, while weak stability
at t >= 1 additionally depends on the rest of the host and is averaged
over it: m opinion variables in all.

Each verdict reads only a light cone of the variables: weak stability
at t >= 1 the subtree and the vertices within t - 1 of the root (its
time-t state is all it reads, and nothing farther reaches the subtree
by time t), (<= t)-stability the subtree's top t + 1 levels, the others
the whole subtree.  Only the cone is drawn, packed, stepped and
enumerated, its boundary pinned (see ``stability._PinnedSubtree``), so
every verdict is exact; (<= t) probes build the host only down to the
level below their cone.  Exact values enumerate the cone's opinions
with the bit-sliced batch engine and count each verdict for all
2^(m - cone) assignments of the other variables, returning dyadic
fractions over 2^m; ``auto`` is exact when 2^cone fits the budget.
Monte Carlo estimates pack sampled opinions into the same batches.
Every sampled bit is the top bit of one byte of the uint64 stream of a
generator seeded with ``SeedSequence(seed)``, variable row by variable
row.  The trials run in spans of at most ``_MC_LANES``, each from a
fresh generator that draws only its span's bytes of the cone's rows and
skips the rest of the stream, and the span counts add up, so a probe
holds O(cone x ``_MC_LANES``) bits whatever its trial count and every
estimate is that of the whole draw.  The spans are dealt to one process
per usable CPU, at most one per span, this one working the first share;
strong's memo of enumerated patterns is each process's own.  Exact
values, a single span and 1-closeness, whose spans continue one
generator, run in this process.

Universal predicates are evaluated through the two extreme extensions
(see ``stability``), which decide (<= t)-stability outright and strong
t-stability except for patterns whose extremes settle the subject at
opposite opinions; those are re-decided by extension enumeration when
the budget allows and are otherwise scored unstable and reported as
``unresolved``, making the estimate a lower bound.

``fixed_point_q`` locates the fixed point of the one-level recursion
for the probability that a vertex fails to be weakly stable, and
``mc_tau`` samples stabilisation times of uniformly random opinions on
perfect hosts with reproducible per-trial seeds on the word engine, up to
64 trials to a word, each word W bits wide, the narrowest of 8, 16, 32 and
64 that holds its trials.  ``_fork_map`` is the package's one process
pool, on bare ``os.fork``, which the Monte Carlo probes, ``mc_tau`` and
``claims.run_claim_suites`` share.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bitsliced import EXTENSION_BUDGET, LANES, PackedHost, _Extensions, pack_bit_rows, tt_column
from .dynamics import TARGETS, _opinion_bytes
from .errors import (
    BadHostError,
    BadTimeError,
    BadVertexError,
    BudgetExceededError,
    MajlabError,
)
from .trees import _perfect_level_starts, build_perfect_tree

if TYPE_CHECKING:
    from .stability import _PinnedSubtree


@dataclass(frozen=True)
class ProbEstimate:
    """A probability value; exact ones are dyadic, MC ones carry a 3-sigma CI.
    The fields, bar ``seed``, are the ``prob`` artifact's ``result`` keys."""

    target: str
    k: int
    height: int
    t: int | None
    method: str
    value: float
    count: int | None = None
    denominator: int | None = None
    trials: int | None = None
    ci_halfwidth: float | None = None
    seed: int | None = None
    xi: int | None = None
    unresolved: int | None = None


@dataclass(frozen=True)
class FixedPointResult:
    """Bisection outcome; the fields are the ``fixed-point`` ``result`` keys."""

    q: float
    residual: float
    lower: float
    upper: float
    iterations: int
    tolerance: float


@dataclass(frozen=True)
class McSummary:
    k: int
    h: int
    n: int
    diameter: int
    budget: int
    trials: int
    seed: int
    workers: int
    taus: list[int] = field(repr=False)
    trial_seeds: list[int] = field(repr=False)

    def stats(self) -> dict:
        """Summary statistics; the median and quantiles are those of
        ``np.median`` and ``np.quantile``, read from the sorted taus (those
        numpy functions load ``numpy.ma``, about 10 ms a process)."""
        taus = np.asarray(self.taus, dtype=np.int64)
        hist = {str(int(v)): int(c) for v, c in zip(*np.unique(taus, return_counts=True))}
        ratios = taus / self.diameter
        ordered = sorted(self.taus)
        # np.median is the mean of the middle one or two values
        middle = ordered[(len(ordered) - 1) // 2 : len(ordered) // 2 + 1]
        return {
            "mean": float(taus.mean()),
            "std": float(taus.std()),
            "min": int(taus.min()),
            "max": int(taus.max()),
            "median": sum(map(float, middle)) / len(middle),
            "quantiles": {
                str(p): _linear_quantile(ordered, p / 100) for p in (5, 25, 75, 95)
            },
            "histogram": hist,
            "ratio_mean": float(ratios.mean()),
            "ratio_median": sum(t / self.diameter for t in middle) / len(middle),
            "ratio_max": float(ratios.max()),
        }


def _linear_quantile(ordered: list[int], q: float) -> float:
    """``np.quantile(ordered, q)`` by numpy's default ``linear`` rule: at
    virtual index (n - 1)·q, between the neighbours a <= b with fraction g,
    a + (b - a)·g, or b - (b - a)·(1 - g) when g >= 0.5."""
    pos = (len(ordered) - 1) * q
    i = math.floor(pos)
    if i >= len(ordered) - 1:
        return float(ordered[-1])
    a, b, g = ordered[i], ordered[i + 1], pos - i
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


# Trials per span of a Monte Carlo batch: a probe holds its cone's columns
# for one span at a time, so its memory does not grow with the trial count.
_MC_LANES = 1 << 17


def _spans(trials: int) -> list[tuple[int, int]]:
    """Trials 0 to ``trials`` cut evenly into the fewest spans of at most
    ``_MC_LANES``, as (start, stop) pairs."""
    n = -(-trials // _MC_LANES)
    return [(trials * i // n, trials * (i + 1) // n) for i in range(n)]


def _sampler(method: str, trials: int, seed: int) -> np.random.SeedSequence | None:
    """None for ``exact``; for ``mc`` the seed of every generator drawn from."""
    if method == "exact":
        return None
    if method != "mc":
        raise MajlabError(f"unknown method {method!r}")
    if trials < 1:
        raise MajlabError(f"trials must be positive, got {trials}")
    return np.random.SeedSequence(seed)


def _pattern_cols(
    m: int,
    rows: range | list[int],
    trials: int,
    rng: np.random.Generator | None,
    lanes: tuple[int, int] | None = None,
) -> tuple[list[int], int]:
    """The columns of the opinion variables at positions ``rows`` (ascending)
    among m, and the batch width: every assignment of those variables once
    without ``rng``; with it, trials ``lanes`` = (a, b) of ``trials``
    uniform draws of all m, every trial by default.

    The draws are those of ``rng.integers(0, 2, size=(m, trials),
    dtype=np.uint8)[:, a:b]``, row by row, without its m x trials byte
    matrix: each of its bits is the top bit of one byte of the generator's
    uint64 stream, bytes read little-endian, so row r's trials a to b are
    bytes r·trials + a to r·trials + b of the stream.  Each row draws the
    words that cover its bytes, the words up to the next row are skipped
    unread, and the draw stops after the last row.  A row that begins in
    the word the row before it ended in reuses that word, so the stream
    never moves back.  ``rng`` is fresh, at the start of its stream.
    """
    if rng is None:
        return [tt_column(i, len(rows)) for i in range(len(rows))], 1 << len(rows)
    a, b = lanes or (0, trials)
    draws, passed, last = [], 0, None  # stream words passed, the last one drawn
    for r in rows:
        first, end = r * trials + a, r * trials + b  # the row's stream bytes
        start, stop = first >> 3, -(-end // 8)  # the words that cover them
        reused = start < passed  # the row begins in the last word drawn
        if not reused:
            rng.bit_generator.advance(start - passed)
        words = rng.integers(0, 2**64, size=stop - start - reused, dtype=np.uint64)
        if reused:
            words = np.concatenate((last, words))
        passed, last = stop, words[-1:]
        stream = words.astype("<u8", copy=False).view(np.uint8)
        draws += pack_bit_rows([stream[first - 8 * start : end - 8 * start] >> 7])
    return draws, b - a


def _estimate(
    count: int, denominator: int, method: str, seed: int, **meta
) -> ProbEstimate:
    value = count / denominator
    if method == "exact":
        return ProbEstimate(
            method=method, value=value, count=count, denominator=denominator, **meta
        )
    sigma = (value * (1.0 - value) / denominator) ** 0.5
    return ProbEstimate(
        method=method,
        value=value,
        count=count,
        trials=denominator,
        ci_halfwidth=3.0 * sigma,
        seed=seed,
        **meta,
    )


def _validate_t(target: str, t: int | None) -> int | None:
    if target == "one_close":
        if t is not None:
            raise BadTimeError("1-close stability takes no time parameter")
        return None
    if t is None or t < 0:
        raise BadTimeError(f"target {target!r} needs a non-negative t, got {t}")
    if target == "le_t" and (t < 2 or t & 1):
        raise BadTimeError(f"(<=t) estimates support even t >= 2 only, got {t}")
    return t


def estimate_probability(
    target: str,
    height: int,
    t: int | None = None,
    *,
    k: int = 2,
    method: str = "auto",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = EXTENSION_BUDGET,
) -> ProbEstimate:
    """Probability that the subject vertex satisfies a stability predicate.

    The opinion on the subject's subtree is uniform; for weak stability
    at t >= 1 the rest of the host is uniform as well.  ``method`` is
    ``"exact"``, ``"mc"``, or ``"auto"`` (exact when the enumeration
    fits the budget).
    """
    return _probability(target, height, t, k, method, trials, seed, budget, None)


def _probability(
    target: str,
    height: int,
    t: int | None,
    k: int,
    method: str,
    trials: int,
    seed: int,
    budget: int,
    xi: int | None,
) -> ProbEstimate:
    """``estimate_probability``; a ``xi`` of +1 or -1 (le_t only) further
    asks for the subject's time-0 opinion to equal it."""
    # imported here: mc-tau and fixed-point run no predicate
    from .stability import (
        _PinnedSubtree,
        _le_t_ok_bits,
        _step_subtree,
        _strong_ok_bits,
        _weak_ok_bits,
    )

    if target not in TARGETS:
        raise MajlabError(f"unknown target {target!r}")
    t = _validate_t(target, t)
    if target != "le_t" and k != 2:
        raise BadHostError(f"target {target!r} is defined on binary hosts, got k={k}")
    if height < 0:
        raise BadVertexError(f"subject height must be non-negative, got {height}")
    n = _perfect_level_starts(k, height + 1)[-1]
    # (<= t) reads the subtree's top t + 1 levels: the host keeps those and
    # the next, which pins the cut.  Ids run level by level, so the cone's
    # ids and rows are those of the full host.
    levels = min(height, t + 1) if target == "le_t" else height
    host, v = build_perfect_tree(k, levels + 1), 1
    if target == "one_close" and host.is_leaf(v):
        raise BadVertexError("1-close stability needs a non-leaf subject")
    # the root's k + 1 subtrees are alike, and the subject's is one of them
    m = (n - 1) // (k + 1)
    outside = n - m
    if target == "one_close" and 1 << outside > budget:
        raise BudgetExceededError(
            f"1-closeness enumerates all 2^{outside} outside extensions of each "
            f"pattern, over budget {budget}; Monte Carlo needs the same budget "
            "as exact evaluation"
        )
    # the light cone: the m variables' vertices that the verdict reads, and
    # their rows among the variables
    if target == "weak" and t > 0:
        # the time-t state of the subtree reads the host within t of it
        sub = _PinnedSubtree(host, v, reach=t - 1)
        m, cone = host.n, sorted(sub.ids + sub.outside)
        rows = cone
    else:
        sub = _PinnedSubtree(host, v, depth=t if target == "le_t" else None)
        cone, rows = sub.ids, range(len(sub.ids))
    feasible = 1 << len(cone) <= budget
    if target == "strong":
        feasible = feasible and 1 << outside <= budget
    if method == "auto":
        method = "exact" if feasible else "mc"
    if method == "exact" and not feasible:
        raise BudgetExceededError(
            f"exact evaluation needs 2^{len(cone)} patterns, over budget {budget}"
        )
    meta = {"target": target, "k": k, "height": height, "t": t}
    seq = _sampler(method, trials, seed)
    if target == "one_close":
        count, width = _one_close_count(sub, trials, seq, budget)
        return _estimate(count, width, method, seed, **meta)
    verdicts: dict[int, bool] = {}  # strong's enumerated patterns, over a process's spans

    def span_counts(lanes: tuple[int, int] | None) -> tuple[int, int]:
        """(count, unresolved) of the trials ``lanes``, of every pattern
        without ``seq``."""
        # each span draws from the start of the seed's stream
        rng = None if lanes is None else np.random.default_rng(seq)
        draws, width = _pattern_cols(m, rows, trials, rng, lanes)
        cols = [0] * host.n
        for u, col in zip(cone, draws):
            cols[u] = col
        del draws  # weak at t >= 1 replaces the subtree's columns: free them then
        mask, pending = (1 << width) - 1, 0
        if target == "weak":
            if t:
                _step_subtree(sub, cols, mask, t)
            ok = _weak_ok_bits(sub, cols, mask)
        elif target == "strong":
            ok, pending = _strong_ok_bits(sub, cols, mask, t, budget, verdicts)
        else:
            ok = _le_t_ok_bits(sub, cols, mask, t)
            if xi is not None:
                ok &= cols[v] if xi > 0 else mask ^ cols[v]
        return ok.bit_count(), pending.bit_count()

    # the spans are independent draws: they run on the usable CPUs
    spans = [None] if seq is None else _spans(trials)
    counts = _fork_map(span_counts, spans, _usable_cpus())
    count, unresolved = map(sum, zip(*counts))
    if xi is not None:
        meta["xi"] = xi
    if seq is None:
        # each verdict stands for every assignment of the variables outside the cone
        if m > np.iinfo(np.intp).max:
            raise MemoryError(f"an exact count over 2^{m} assignments is too large to hold")
        return _estimate(count << m - len(cone), 1 << m, method, seed, **meta)
    if target == "strong":
        meta["unresolved"] = unresolved
    return _estimate(count, trials, method, seed, **meta)


def _one_close_count(
    sub: _PinnedSubtree, trials: int, seq: np.random.SeedSequence | None, budget: int
) -> tuple[int, int]:
    """(1-close patterns, patterns drawn) at the subject of ``sub``: every
    subtree pattern without ``seq``, with it ``trials`` uniform draws from
    one generator, a span of at most ``_MC_LANES`` at a time, each distinct
    pattern decided once over all its extensions."""
    from .stability import _one_close_violations

    m = len(sub.ids)
    if seq is None:
        spans = [range(1 << m)]
    else:
        rng = np.random.default_rng(seq)
        # the spans' draws continue one another: together they are one draw
        spans = (
            rng.integers(0, 1 << m, size=b - a, dtype=np.uint64).tolist()
            for a, b in _spans(trials)
        )
    ext = _Extensions(sub.tree, sub.ids, budget)
    verdicts: dict[int, bool] = {}
    count = drawn = 0
    for patterns in spans:
        for p in patterns:
            if p not in verdicts:
                verdicts[p] = not _one_close_violations(ext.run(p), sub)
            count += verdicts[p]
        drawn += len(patterns)
    return count, drawn


def le_t_positive_check(
    k: int,
    t: int,
    xi: int,
    *,
    height: int = 2,
    method: str = "auto",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = EXTENSION_BUDGET,
) -> ProbEstimate:
    """P[subject is (<= t)-stable with time-t opinion ``xi``] (even t).

    On the stable event the time-t opinion equals the time-0 one, so the
    joint event is decided from the subtree pattern alone.
    """
    if xi not in (-1, 1):
        raise MajlabError(f"xi must be +1 or -1, got {xi}")
    return _probability("le_t", height, t, k, method, trials, seed, budget, xi)


def _recursion_map(x: float) -> float:
    """One level of the weak-instability recursion on the infinite binary tree."""
    both_agree = (0.25 + 0.25 * x * x) ** 2
    child_fails = (1.0 - (1.0 - x * x) / 4.0) ** 2
    split = (0.5 + 0.5 * x) ** 4 - both_agree
    return both_agree + child_fails * split


def fixed_point_q(
    lower: float = 1.0 / 16.0,
    upper: float = 3.0 / 40.0,
    tolerance: float = 1e-12,
) -> FixedPointResult:
    """Bisect the fixed point of the weak-instability recursion.

    The map is continuous with g(lower) > 0 > g(upper) for the default
    bracket, so bisection converges to the unique fixed point there.
    """
    lo, hi = float(lower), float(upper)
    if not 0.0 < tolerance < np.inf or not np.isfinite([lo, hi]).all():
        raise MajlabError(
            f"need finite bracket ends and a tolerance in (0, inf), got [{lo}, {hi}] and {tolerance}"
        )
    g_lo = _recursion_map(lo) - lo
    g_hi = _recursion_map(hi) - hi
    if not (g_lo > 0.0 > g_hi):
        raise MajlabError(
            f"bracket [{lo}, {hi}] does not straddle the fixed point"
        )
    iterations = 0
    while hi - lo > tolerance and iterations < 200:
        mid = 0.5 * (lo + hi)
        if _recursion_map(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    q = 0.5 * (lo + hi)
    return FixedPointResult(
        q=q,
        residual=abs(_recursion_map(q) - q),
        lower=lo,
        upper=hi,
        iterations=iterations,
        tolerance=tolerance,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn: Callable, jobs: list, processes: int) -> list:
    """``[fn(job) for job in jobs]`` on ``processes`` processes, at most one
    per job: this one and forked children.  The jobs are dealt round-robin,
    process i taking jobs i, i + processes, ..., and this process works the
    first share; the results come back in the order of ``jobs``.  One
    process forks nothing.

    A child starts with the parent's modules and their state, ``fn`` and
    its share included, so only its results cross, pickled, through a pipe
    of its own.  It leaves by ``os._exit`` alone and so flushes none of the
    parent's buffers.  An exception raised in a child is raised again here,
    and a child that dies without sending its results is a ``MajlabError``
    that names the signal or exit status.  Every child is reaped before
    this returns or raises."""
    processes = min(processes, len(jobs))
    if processes <= 1:
        return [fn(job) for job in jobs]
    pids, reads = [], []  # the children, and the read ends of their pipes
    try:
        for i in range(1, processes):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work_share(fn, jobs[i::processes], write, reads)
            finally:
                os.close(write)
            pids.append(pid)
        shares = [[fn(job) for job in jobs[::processes]]]
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()  # to the end of file, where the child has left
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code < 0:
                try:
                    name = signal.Signals(-code).name
                except ValueError:  # a real-time signal has no name
                    name = f"signal {-code}"
                raise MajlabError(f"a worker process was killed by {name}")
            if code:
                raise MajlabError(f"a worker process exited with status {code}")
            done, result = pickle.loads(data)
            if not done:
                raise result
            shares.append(result)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)
    results = [None] * len(jobs)
    for i, share in enumerate(shares):
        results[i::processes] = share
    return results


def _work_share(fn: Callable, share: list, write: int, reads: list[int]) -> None:
    """In a forked child: send ``[fn(job) for job in share]``, or the
    exception it raises, pickled through the pipe end ``write``, then leave
    the process.  ``reads`` are the parent's ends of the children's pipes."""
    status = 1
    try:
        for read in reads:
            os.close(read)
        try:
            data = pickle.dumps((True, [fn(job) for job in share]), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _trial_sequence(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def trial_seed(seed: int, index: int) -> int:
    """The derived 64-bit seed recorded for trial ``index``."""
    return int(_trial_sequence(seed, index).generate_state(1, np.uint64)[0])


def _batch_taus(packed: PackedHost, seed: int, start: int, stop: int) -> list[int]:
    """Taus of trials ``start`` to ``stop``, each trial's opinions drawn as
    ``OpinionVector.random`` draws them from the trial's own generator."""
    return packed.taus(
        (
            _opinion_bytes(packed.n, np.random.default_rng(_trial_sequence(seed, i)))
            for i in range(start, stop)
        ),
        stop - start,
    )


def mc_tau(
    k: int,
    h: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> McSummary:
    """Sample stabilisation times of uniform opinions on a perfect host.

    Trial ``i`` draws its opinions from a generator seeded by spawning
    ``seed`` with key ``(i,)``; results are therefore independent of the
    worker count and reproducible trial by trial.  Trials run 64 to a word
    on the word engine, a word of m trials on the narrowest W-bit words
    with W >= m; ``workers`` processes, this one included and at most one
    per word of trials, share the words.
    """
    if trials < 1:
        raise MajlabError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise MajlabError(f"workers must be positive, got {workers}")
    packed = PackedHost(k, h)
    jobs = [(a, min(a + LANES, trials)) for a in range(0, trials, LANES)]
    if workers == 1:
        taus = _batch_taus(packed, seed, 0, trials)
    else:
        parts = _fork_map(lambda job: _batch_taus(packed, seed, *job), jobs, workers)
        taus = [t for part in parts for t in part]
    return McSummary(
        k=k,
        h=h,
        n=packed.n,
        diameter=2 * h,
        budget=packed.budget,
        trials=trials,
        seed=seed,
        workers=workers,
        taus=taus,
        trial_seeds=[trial_seed(seed, i) for i in range(trials)],
    )
