"""The benchmark's workloads: inputs made from the seed, CLI commands, checks.

Each workload is a closed loop with one client: a list of majlab CLI
invocations that run one after another, each starting once the previous
process has exited.  Inputs the program reads (tree files) are written by
this module's own code, never by majlab, so a change to the program cannot
change its own inputs.  Correctness checks replay the dynamics with an
independent numpy implementation and compare against closed forms, exact
anchors and reference probabilities; none of them depends on the seed.

Why each workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("host-io", "mc-tau", "prob-batch", "claims")

# Suites that ``check-claims`` runs by default; the traced run reports a
# self time for each.
SUITES = (
    "balky_switch_rule",
    "active_deadline",
    "weak_value_maintenance",
    "weak_stability_maintenance",
    "weak_from_grandchild",
    "weak_from_child",
    "aligned_path_stabilisation",
    "opposed_path_stabilisation",
    "tau_within_budget",
    "flip_has_cause",
    "negation_symmetry",
    "formula_matches_enumeration",
    "witness_attains_tau",
    "weak_definitions_agree",
    "counterexample_replay",
    "fixed_point_bracket",
    "strong_value_symmetry",
)

# Full size is what the benchmark measures; smoke size keeps every command
# and check but shrinks the inputs so the smoke test runs in seconds.
SIZES = {
    "full": {
        "host_k": 4, "host_h": 8,
        "mc_k": 4, "mc_h": 10, "mc_trials": 16,
        "prob_height": 8, "prob_trials": 200_000, "odd_tree_n": 24,
        "prob_reference": {"strong": 0.592402, "weak": 0.9970335, "le_t": 0.5348585},
        "claims_instances": 1000,
    },
    "smoke": {
        "host_k": 4, "host_h": 4,
        "mc_k": 4, "mc_h": 5, "mc_trials": 4,
        "prob_height": 4, "prob_trials": 2_000, "odd_tree_n": 12,
        "prob_reference": {"strong": 0.596879, "weak": 1.0, "le_t": 0.5348585},
        "claims_instances": 60,
    },
}


@dataclass
class Command:
    label: str  # unique within the workload
    argv: list[str]  # arguments after ``python -m majlab.cli``
    output: str  # artifact the command writes, relative to the work dir


class Outputs:
    """Artifacts of one pass over a workload's commands, read lazily."""

    def __init__(self, workdir: Path, commands: list[Command]):
        self._paths = {c.label: workdir / c.output for c in commands}
        self._text: dict[str, str] = {}
        self._json: dict[str, dict] = {}

    def text(self, label: str) -> str:
        if label not in self._text:
            self._text[label] = self._paths[label].read_text(encoding="utf-8")
        return self._text[label]

    def json(self, label: str) -> dict:
        if label not in self._json:
            self._json[label] = json.loads(self.text(label))
        return self._json[label]

    def result(self, label: str):
        return self.json(label)["result"]


_GENERATED_AT = re.compile(r'^  "generated_at": "[^"\n]*",\n', re.M)


def digest(text: str) -> str:
    """sha256 of an artifact with its ``generated_at`` line removed."""
    return hashlib.sha256(_GENERATED_AT.sub("", text, count=1).encode("utf-8")).hexdigest()


@dataclass
class Plan:
    """Everything one run of a workload needs, derived from (name, seed, size)."""

    name: str
    commands: list[Command]
    inputs: dict[str, str]  # files to write into the work dir before running
    setup_code: str  # what a fresh process runs to import majlab and build hosts
    checks: dict[str, Callable[[Outputs], list[str]]]  # label -> problems
    work: Callable[[Outputs], float]
    work_unit: str
    params: dict = field(default_factory=dict)

    def check(self, outputs: Outputs) -> dict[str, list[str]]:
        """Problems per command label; an empty list means the output is right."""
        found = {}
        for label, fn in self.checks.items():
            try:
                found[label] = fn(outputs)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found[label] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return found


# -- independent reference code ------------------------------------------------


def perfect_tree_parents(k: int, h: int) -> np.ndarray:
    """Parent of each vertex 1..n-1 of majlab's perfect tree numbering.

    The root has k + 1 children, every other internal vertex k, vertices
    are numbered level by level, and children of one parent are contiguous.
    """
    parents = [np.zeros(k + 1, dtype=np.int64)]
    level_start, level_size = 1, k + 1
    for _ in range(2, h + 1):
        parents.append(level_start + np.arange(level_size * k, dtype=np.int64) // k)
        level_start += level_size
        level_size *= k
    return np.concatenate(parents)


def tree_text(parents: np.ndarray) -> str:
    """majlab's tree file format for the tree with ``parents[v - 1]`` of v."""
    n = parents.size + 1
    lines = [f"tree n={n} root=0"]
    lines.extend(f"{p} {v}" for v, p in enumerate(parents.tolist(), start=1))
    return "\n".join(lines) + "\n"


def random_odd_tree_parents(n: int, rng: random.Random) -> np.ndarray:
    """Random tree in which every degree is odd: from one edge, repeatedly
    hang two new leaves on a uniformly chosen vertex."""
    parents = [0]
    size = 2
    while size < n:
        v = rng.randrange(size)
        parents += [v, v]
        size += 2
    return np.asarray(parents, dtype=np.int64)


def _signs(text: str) -> np.ndarray:
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if np.any((raw != ord("+")) & (raw != ord("-"))):
        raise ValueError("opinion string holds characters other than '+' and '-'")
    return np.where(raw == ord("+"), 1, -1).astype(np.int8)


def _text(signs: np.ndarray) -> str:
    return np.where(signs > 0, ord("+"), ord("-")).astype(np.uint8).tobytes().decode("ascii")


def trial_opinions(seed: int, index: int, n: int) -> str:
    """Start vector of ``mc-tau`` trial ``index``: the generator seeded by
    spawning ``seed`` with key ``(index,)`` draws ceil(n / 8) bytes, read as
    little-endian bits, bit v set meaning vertex v holds +1."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    raw = np.frombuffer(rng.bytes((n + 7) // 8), dtype=np.uint8)
    bits = np.unpackbits(raw, count=n, bitorder="little")
    return _text(bits.astype(np.int8) * 2 - 1)


def replay(parents: np.ndarray, init: str) -> tuple[int, str, str]:
    """(tau, even limit state, odd limit state) of synchronous majority.

    tau is the first t with state(t + 2) == state(t).  Written without
    majlab, so it checks the program rather than repeating it.
    """
    n = parents.size + 1
    child = np.arange(1, n, dtype=np.int64)
    x = _signs(init)
    if x.size != n:
        raise ValueError(f"opinion string has {x.size} entries for {n} vertices")
    window = [x]
    for t in range(1, n + 3):
        s = np.bincount(child, weights=window[-1][parents], minlength=n)
        s += np.bincount(parents, weights=window[-1][child], minlength=n)
        if np.any(s == 0):
            raise ValueError("a vertex has even degree")
        window = (window + [np.where(s > 0, 1, -1).astype(np.int8)])[-3:]
        if t >= 2 and np.array_equal(window[2], window[0]):
            tau = t - 2
            even, odd = (window[0], window[1]) if tau % 2 == 0 else (window[1], window[0])
            return tau, _text(even), _text(odd)
    raise ValueError("no period-2 tail within n + 2 steps")


# -- workloads -----------------------------------------------------------------


def _host_io(seed: int, size: dict) -> Plan:
    k, h = size["host_k"], size["host_h"]
    parents = perfect_tree_parents(k, h)
    n = parents.size + 1
    expected_text = tree_text(parents)
    commands = [
        Command("gen", ["gen", "--k", str(k), "--h", str(h), "-o", "host.txt"], "host.txt"),
        Command(
            "simulate",
            ["simulate", "--tree", "host.txt", "--seed", str(seed), "-o", "simulate.json"],
            "simulate.json",
        ),
        Command("worst-case", ["worst-case", "--tree", "host.txt", "-o", "worst-case.json"], "worst-case.json"),
    ]

    def check_gen(out: Outputs) -> list[str]:
        body = "".join(
            line for line in out.text("gen").splitlines(keepends=True) if not line.startswith("#")
        )
        return [] if body == expected_text else ["gen wrote a different tree"]

    def check_simulate(out: Outputs) -> list[str]:
        r = out.result("simulate")
        problems = []
        if r["tau"] > (n - 2) // 2:
            problems.append(f"tau {r['tau']} exceeds step_budget {(n - 2) // 2}")
        if (r["tau"], r["stable_even"], r["stable_odd"]) != replay(parents, r["init"]):
            problems.append("tau or limit states disagree with the replay")
        return problems

    def check_worst_case(out: Outputs) -> list[str]:
        r = out.result("worst-case")
        problems = []
        if r["tau"] != 2 * h - 3:
            problems.append(f"worst-case tau {r['tau']} != 2h - 3 = {2 * h - 3}")
        replayed = replay(parents, r["witness"])[0]
        if replayed != r["tau"]:
            problems.append(f"witness replays to tau {replayed}, not {r['tau']}")
        return problems

    return Plan(
        name="host-io",
        commands=commands,
        inputs={"host-setup.txt": expected_text},
        setup_code="import majlab\nmajlab.load_tree('host-setup.txt')\n",
        checks={"gen": check_gen, "simulate": check_simulate, "worst-case": check_worst_case},
        work=lambda out: float(n * len(commands)),
        work_unit="host vertices x commands",
        params={"k": k, "h": h, "n": n},
    )


def _mc_tau(seed: int, size: dict) -> Plan:
    k, h, trials = size["mc_k"], size["mc_h"], size["mc_trials"]
    parents = perfect_tree_parents(k, h)
    n = parents.size + 1
    commands = [
        Command(
            "mc-tau",
            ["mc-tau", "--k", str(k), "--h", str(h), "--trials", str(trials),
             "--seed", str(seed), "--workers", "1", "-o", "mc-tau.json"],
            "mc-tau.json",
        )
    ]

    @functools.cache
    def trial0_tau() -> int:
        # Depends on the seed alone, so one replay serves every repeat.
        return replay(parents, trial_opinions(seed, 0, n))[0]

    def check(out: Outputs) -> list[str]:
        r = out.result("mc-tau")
        problems = []
        if len(r["taus"]) != trials or r["n"] != n:
            problems.append(f"{len(r['taus'])} taus on n={r['n']}, expected {trials} on n={n}")
        worst = 2 * h - 3
        if any(not 0 <= tau <= worst for tau in r["taus"]):
            problems.append(f"a tau lies outside [0, 2h - 3 = {worst}]: {r['taus']}")
        replayed = trial0_tau()
        if r["taus"] and r["taus"][0] != replayed:
            problems.append(f"trial 0 replays to tau {replayed}, not {r['taus'][0]}")
        return problems

    return Plan(
        name="mc-tau",
        commands=commands,
        inputs={},
        setup_code=f"import majlab\nmajlab.build_perfect_tree({k}, {h})\n",
        checks={"mc-tau": check},
        work=lambda out: float(sum(tau + 2 for tau in out.result("mc-tau")["taus"]) * n),
        work_unit="vertex-updates",
        params={"k": k, "h": h, "n": n, "trials": trials},
    )


# (target, t) of the Monte Carlo probes, and the exact anchors with their
# known counts out of 2^7 subtree patterns at subject height 2.
_MC_PROBES = (("strong", 2), ("weak", 3), ("le_t", 4))

# The size's ``prob_reference`` holds each probe's probability, measured with
# majlab 0.1.0 over seeds 1001-1010 at 200,000 trials each.  An estimate must
# lie within six standard errors of it, plus three trials' worth for
# probabilities at 0 or 1.  An engine that changes what a probe computes
# fails this; a correct one fails it about once in 10^8 checks.
REFERENCE_TRIALS = 2_000_000
_EXACT_ANCHORS = (("weak", 0, 120), ("strong", 2, 80))


def _prob_batch(seed: int, size: dict) -> Plan:
    height, trials, tree_n = size["prob_height"], size["prob_trials"], size["odd_tree_n"]
    reference = size["prob_reference"]
    odd_parents = random_odd_tree_parents(tree_n, random.Random(seed))
    commands, checks = [], {}

    def mc_check(label, target):
        p = reference[target]
        tolerance = 6 * math.sqrt(p * (1 - p) * (1 / trials + 1 / REFERENCE_TRIALS)) + 3 / trials

        def check(out: Outputs) -> list[str]:
            r = out.result(label)
            problems = []
            if r["trials"] != trials or not 0 <= r["count"] <= trials:
                problems.append(f"count {r['count']} of {r['trials']} trials")
            if r["count"] / trials != r["value"]:
                problems.append(f"count / trials != value {r['value']}")
            if abs(r["value"] - p) > tolerance:
                problems.append(f"estimate {r['value']} is farther than {tolerance:.2g} from {p}")
            return problems
        return check

    def exact_check(label, count):
        def check(out: Outputs) -> list[str]:
            r = out.result(label)
            got = (r["count"], r["denominator"], r["value"])
            return [] if got == (count, 128, count / 128) else [f"{got} != {count}/128"]
        return check

    for target, t in _MC_PROBES:
        label = f"prob-{target}"
        commands.append(Command(
            label,
            ["prob", "--target", target, "--height", str(height), "--t", str(t),
             "--method", "mc", "--trials", str(trials), "--seed", str(seed),
             "-o", f"{label}.json"],
            f"{label}.json",
        ))
        checks[label] = mc_check(label, target)
    for target, t, count in _EXACT_ANCHORS:
        label = f"exact-{target}"
        commands.append(Command(
            label,
            ["prob", "--target", target, "--height", "2", "--t", str(t),
             "--method", "exact", "--seed", str(seed), "-o", f"{label}.json"],
            f"{label}.json",
        ))
        checks[label] = exact_check(label, count)
    commands.append(Command("brute-force", ["brute-force", "--tree", "odd-tree.txt", "-o", "brute-force.json"], "brute-force.json"))
    commands.append(Command("worst-case", ["worst-case", "--tree", "odd-tree.txt", "-o", "worst-case.json"], "worst-case.json"))

    def check_brute_force(out: Outputs) -> list[str]:
        r = out.result("brute-force")
        replayed = replay(odd_parents, r["argmax"])[0]
        return [] if replayed == r["tau"] else [f"argmax replays to {replayed}, not {r['tau']}"]

    def check_worst_case(out: Outputs) -> list[str]:
        r = out.result("worst-case")
        problems = []
        if r["tau"] != out.result("brute-force")["tau"]:
            problems.append(f"worst-case tau {r['tau']} != brute-force tau")
        replayed = replay(odd_parents, r["witness"])[0]
        if replayed != r["tau"]:
            problems.append(f"witness replays to {replayed}, not {r['tau']}")
        return problems

    checks["brute-force"] = check_brute_force
    checks["worst-case"] = check_worst_case
    # Patterns decided: every MC trial, every exact pattern, and the half of
    # the 2^n initial vectors that brute force enumerates.
    work = len(_MC_PROBES) * trials + 128 * len(_EXACT_ANCHORS) + 2 ** (tree_n - 1)
    return Plan(
        name="prob-batch",
        commands=commands,
        inputs={"odd-tree.txt": tree_text(odd_parents)},
        setup_code=(
            f"import majlab\nmajlab.build_perfect_tree(2, {height + 1})\n"
            "majlab.load_tree('odd-tree.txt')\n"
        ),
        checks=checks,
        work=lambda out: float(work),
        work_unit="patterns decided",
        params={"height": height, "trials": trials, "odd_tree_n": tree_n},
    )


def _claims(seed: int, size: dict) -> Plan:
    instances = size["claims_instances"]
    commands = [
        Command(
            "check-claims",
            ["check-claims", "--instances", str(instances), "--seed", str(seed), "-o", "check-claims.json"],
            "check-claims.json",
        )
    ]

    def check(out: Outputs) -> list[str]:
        reports = out.result("check-claims")
        problems = [
            f"{r['name']}: {r['satisfied']} satisfied, {r['violations']} violations"
            for r in reports
            if r["satisfied"] <= 0 or r["violations"] != 0
        ]
        if not reports:
            problems.append("no suite reported")
        return problems

    return Plan(
        name="claims",
        commands=commands,
        inputs={},
        setup_code="import majlab\n",
        checks={"check-claims": check},
        work=lambda out: float(sum(r["instances"] for r in out.result("check-claims"))),
        work_unit="suite instances",
        params={"instances": instances},
    )


_BUILDERS = {"host-io": _host_io, "mc-tau": _mc_tau, "prob-batch": _prob_batch, "claims": _claims}


def plan(name: str, seed: int, size: str = "full") -> Plan:
    return _BUILDERS[name](seed, SIZES[size])
