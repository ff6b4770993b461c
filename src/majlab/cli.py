"""Command-line surface over the library.

Commands: gen, simulate, worst-case, brute-force, stability, prob, mc-tau,
fixed-point, check-claims.  All structured output is JSON written to
``--output`` (default stdout); ``mc-tau`` additionally writes a
``trial,seed,tau`` CSV.  Exit status is 0 on success, 1 on a domain error
(stderr carries one line whose first token is a machine-parsable error
code), and 2 on a usage error.

Every artifact embeds the tool version and the resolved run configuration,
so re-running the embedded configuration reproduces the payload byte for
byte; the only non-reproducible field is the ``generated_at`` timestamp.
The master seed defaults to the MAJLAB_SEED environment variable, then 0.
Worker counts never appear in payloads: they shard work without affecting
any output.

Each handler imports the engine modules it runs, so a process loads only
what its command needs, and parsing needs none of them: a ``--budget``
default resolves in its handler, before the configuration is recorded.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

# majlab calls no BLAS: numpy's would start a thread pool that every forked
# pool worker inherits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .artifacts import (
    TOOL_NAME,
    dumps_json,
    envelope,
    load_opinions,
    mc_csv_text,
    utc_timestamp,
)
from .dynamics import TARGETS, OpinionVector, stabilise
from .errors import BadTimeError, MajlabError
from .trees import build_perfect_tree, load_tree, tree_to_text


def _resolved_seed(args) -> int:
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        raw, source = os.environ.get("MAJLAB_SEED"), "MAJLAB_SEED"
        if raw is None:
            return 0
        try:
            seed = int(raw)
        except ValueError:
            raise MajlabError(f"MAJLAB_SEED must be an integer, got {raw!r}") from None
    if seed < 0:  # numpy seeds only non-negative integers
        raise MajlabError(f"{source} must be non-negative, got {seed}")
    return seed


def _config(args, fields: tuple[str, ...]) -> dict:
    cfg = {"command": args.command}
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    return cfg


def _fields(obj, **replaced) -> dict:
    """A result type's fields in declaration order, some values replaced."""
    return {
        f.name: replaced.get(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
    }


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _initial_opinions(tree, args, seed: int) -> OpinionVector:
    if getattr(args, "init", None):
        return load_opinions(args.init)
    return OpinionVector.random(tree.n, np.random.default_rng(seed))


# -- command handlers --------------------------------------------------------


def cmd_gen(args) -> int:
    tree = build_perfect_tree(args.k, args.h)
    comments = [
        f"{TOOL_NAME} {__version__}",
        f"gen k={args.k} h={args.h} n={tree.n} diameter={2 * args.h}",
    ]
    _write_text(args.output, tree_to_text(tree, header_comments=comments))
    return 0


def cmd_simulate(args) -> int:
    tree = load_tree(args.tree)
    seed = _resolved_seed(args)
    xi0 = _initial_opinions(tree, args, seed)
    res = stabilise(tree, xi0, keep_history=bool(args.trace))
    if args.trace:
        lines = [OpinionVector.from_signs(state).to_string() for state in res.history]
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _config(args, ("tree", "init"))
    cfg["seed"] = seed
    result = {
        "n": tree.n,
        "init": xi0.to_string(),
        "tau": res.tau,
        "steps_executed": res.steps_executed,
        "stable_even": res.stable_even.to_string(),
        "stable_odd": res.stable_odd.to_string(),
        "first_flip": res.first_flip,
        "last_flip": res.last_flip,
    }
    _write_text(args.output, dumps_json(envelope("simulate", cfg, seed, result)))
    return 0


def cmd_worst_case(args) -> int:
    from .worstcase import worst_case_tau

    tree = load_tree(args.tree)
    report = worst_case_tau(tree)
    result = {
        "tau": report.tau,
        "path": [int(v) for v in report.argmax.vertices],
        "t_value": report.argmax.t_value,
        "end_adjacent_to_leaf": report.argmax.end_adjacent_to_leaf,
        "witness": report.witness.to_string(),
        "per_vertex_bound": {
            str(v): bound for v, bound in sorted(report.per_vertex_bound.items())
        },
    }
    cfg = _config(args, ("tree",))
    _write_text(args.output, dumps_json(envelope("worst-case", cfg, None, result)))
    return 0


def cmd_brute_force(args) -> int:
    from .worstcase import BRUTE_FORCE_BUDGET, brute_force_tau

    if args.budget is None:
        args.budget = BRUTE_FORCE_BUDGET
    tree = load_tree(args.tree)
    tau, argmax = brute_force_tau(tree, budget=args.budget)
    result = {"tau": tau, "argmax": argmax.to_string()}
    cfg = _config(args, ("tree", "budget"))
    _write_text(args.output, dumps_json(envelope("brute-force", cfg, None, result)))
    return 0


def cmd_stability(args) -> int:
    from .stability import (
        EXTENSION_BUDGET,
        is_le_t_stable,
        is_one_close_to_stability,
        is_strongly_t_stable,
        is_weakly_t_stable,
    )

    if args.budget is None:
        args.budget = EXTENSION_BUDGET
    tree = load_tree(args.tree)
    seed = _resolved_seed(args)
    xi0 = _initial_opinions(tree, args, seed)
    needs_t = args.kind in ("weak", "strong", "le_t")
    if needs_t and args.t is None:
        raise BadTimeError(f"kind {args.kind!r} requires --t")
    if not needs_t and args.t is not None:
        raise BadTimeError("kind 'one_close' does not take --t")
    if args.kind == "weak":
        verdict = is_weakly_t_stable(tree, xi0, args.vertex, args.t)
    elif args.kind == "strong":
        verdict = is_strongly_t_stable(tree, xi0, args.vertex, args.t, budget=args.budget)
    elif args.kind == "le_t":
        verdict = is_le_t_stable(tree, xi0, args.vertex, args.t, budget=args.budget)
    else:
        verdict = is_one_close_to_stability(tree, xi0, args.vertex, budget=args.budget)
    cfg = _config(args, ("tree", "init", "kind", "vertex", "t", "budget"))
    cfg["seed"] = seed
    cert = None if verdict.certificate is None else verdict.certificate.to_string()
    result = {**_fields(verdict, certificate=cert), "init": xi0.to_string()}
    _write_text(args.output, dumps_json(envelope("stability", cfg, seed, result)))
    return 0


def cmd_prob(args) -> int:
    from .bitsliced import EXTENSION_BUDGET
    from .probe import _probability

    if args.budget is None:
        args.budget = EXTENSION_BUDGET
    seed = _resolved_seed(args)
    if args.xi is not None and args.target != "le_t":
        raise MajlabError("--xi applies only to --target le_t")
    xi = None if args.xi is None else 1 if args.xi == "+" else -1
    est = _probability(
        args.target, args.height, args.t, args.k, args.method, args.trials, seed,
        args.budget, xi,
    )
    cfg = _config(args, ("target", "height", "t", "k", "method", "trials", "budget", "xi"))
    cfg["seed"] = seed
    result = _fields(est)
    del result["seed"]  # the envelope carries it
    _write_text(args.output, dumps_json(envelope("prob", cfg, seed, result)))
    return 0


def cmd_mc_tau(args) -> int:
    from .probe import mc_tau

    seed = _resolved_seed(args)
    summary = mc_tau(args.k, args.h, trials=args.trials, seed=seed, workers=args.workers)
    cfg = _config(args, ("k", "h", "trials"))
    cfg["seed"] = seed
    if args.csv:
        comments = [
            f"{TOOL_NAME} {__version__}",
            f"mc-tau k={args.k} h={args.h} trials={args.trials} seed={seed}",
            f"generated_at {utc_timestamp()}",
        ]
        rows = [
            (i, summary.trial_seeds[i], summary.taus[i])
            for i in range(len(summary.taus))
        ]
        Path(args.csv).write_text(mc_csv_text(comments, rows), encoding="utf-8")
    result = {
        "k": summary.k,
        "h": summary.h,
        "n": summary.n,
        "diameter": summary.diameter,
        "budget": summary.budget,
        "trials": summary.trials,
        "stats": summary.stats(),
        "taus": summary.taus,
        "trial_seeds": summary.trial_seeds,
    }
    _write_text(args.output, dumps_json(envelope("mc-tau", cfg, seed, result)))
    return 0


def cmd_fixed_point(args) -> int:
    from .probe import fixed_point_q

    res = fixed_point_q(lower=args.lower, upper=args.upper, tolerance=args.tol)
    cfg = _config(args, ("lower", "upper", "tol"))
    _write_text(args.output, dumps_json(envelope("fixed-point", cfg, None, _fields(res))))
    return 0


def cmd_check_claims(args) -> int:
    from .claims import run_claim_suites

    seed = _resolved_seed(args)
    names = None if args.suites is None else args.suites.split(",")
    if names is not None and "" in names:
        raise MajlabError(
            f"--suites entry {names.index('') + 1} of {args.suites!r} is empty"
        )
    reports = run_claim_suites(names=names, instances=args.instances, seed=seed)
    for report in reports:
        print(report.summary_line())
    if args.output:
        cfg = _config(args, ("suites", "instances"))
        cfg["seed"] = seed
        result = [
            {
                "name": r.name,
                "instances": r.instances,
                "satisfied": r.satisfied,
                "violations": r.violations,
                "passed": r.passed,
                "examples": r.examples,
            }
            for r in reports
        ]
        _write_text(args.output, dumps_json(envelope("check-claims", cfg, seed, result)))
    failing = sum(1 for r in reports if not r.passed)
    if failing:
        print(f"CLAIM_VIOLATION: {failing} suite(s) reported violations", file=sys.stderr)
        return 1
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Synchronous majority dynamics on odd-degree trees.",
    )
    top.add_argument(
        "--version", action="version", version=f"{TOOL_NAME} {__version__}"
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def add_output(p):
        p.add_argument("-o", "--output", help="output path (default: stdout)")

    def add_seed(p):
        p.add_argument(
            "--seed", type=int, help="master seed (default: $MAJLAB_SEED, then 0)"
        )

    p = sub.add_parser("gen", help="write a perfect k-ary tree file")
    p.add_argument("--k", type=int, required=True, help="even branching factor >= 2")
    p.add_argument("--h", type=int, required=True, help="height >= 1")
    add_output(p)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("simulate", help="run the dynamics to its 2-periodic tail")
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--init", help="opinion file; omitted = uniform random")
    add_seed(p)
    p.add_argument("--trace", help="write one opinion string per time step here")
    add_output(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("worst-case", help="exact worst-case stabilisation time")
    p.add_argument("--tree", required=True)
    add_output(p)
    p.set_defaults(handler=cmd_worst_case)

    p = sub.add_parser("brute-force", help="enumerate all initial vectors")
    p.add_argument("--tree", required=True)
    p.add_argument("--budget", type=int)
    add_output(p)
    p.set_defaults(handler=cmd_brute_force)

    p = sub.add_parser("stability", help="decide a stability predicate")
    p.add_argument("--tree", required=True)
    p.add_argument("--init", help="opinion file; omitted = uniform random")
    add_seed(p)
    p.add_argument("--kind", choices=TARGETS, required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--budget", type=int)
    add_output(p)
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("prob", help="stability probability (exact or Monte Carlo)")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--height", type=int, required=True, help="subject vertex height")
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument(
        "--xi",
        choices=("+", "-"),
        help="with --target le_t: joint event with this settled opinion",
    )
    p.add_argument("--budget", type=int)
    add_seed(p)
    add_output(p)
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("mc-tau", help="Monte Carlo stabilisation times")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    add_seed(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", help="write trial,seed,tau CSV here")
    add_output(p)
    p.set_defaults(handler=cmd_mc_tau)

    p = sub.add_parser("fixed-point", help="solve x = P(x) by bisection")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--lower", type=float, default=1 / 16)
    p.add_argument("--upper", type=float, default=3 / 40)
    add_output(p)
    p.set_defaults(handler=cmd_fixed_point)

    p = sub.add_parser("check-claims", help="run the property suites")
    p.add_argument("--suites", help="comma-separated suite names (default: all)")
    p.add_argument("--instances", type=int, default=1000)
    add_seed(p)
    add_output(p)
    p.set_defaults(handler=cmd_check_claims)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MajlabError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"OUT_OF_MEMORY: {str(exc) or 'the request does not fit in memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
