#!/usr/bin/env python3
"""Benchmark of the majlab CLI: whole workloads end to end, layers when traced.

Usage, from the root of a majlab checkout:

    python3 perfbench/run.py --workload host-io --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` runs the workload's CLI commands as child processes, one after
another, for ``--seconds`` seconds (at least three times), and reports the
end-to-end metrics in reference seconds: times rescaled by a speed probe run
between the processes, so that the drifting speed of a shared machine cancels
(see README.md, "Reference seconds").  ``--trace 1`` runs the same commands
through ``majlab.cli.main`` in ``traced.py``, one fresh process per command,
alternating untraced and traced passes, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record with the
machine, per-command times and artifact digests is written under
``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS, layer_metrics, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A run ends well inside the 180 s that one benchmark invocation may take.
RUN_DEADLINE_S = 170.0
# Passes per end-to-end run, whatever --seconds says: the digest check needs
# two, and set-up time is a median of one sample per pass.
MIN_REPEATS = 3

# Probe time, in seconds, that defines the reference speed: a time measured
# while the probe takes P seconds is reported as time * REFERENCE_PROBE_S / P.
# It is about the probe's time on a 2-core Xeon KVM guest in a quiet spell, so
# that reference seconds read close to wall seconds there.  Changing it
# rescales every end-to-end time, so it stays fixed.
REFERENCE_PROBE_S = 0.03

END_TO_END = {
    "wall_ref_s": "s",
    "work_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The same figures unscaled, kept in the record and printed for reading.
RAW = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "probe_s": "s"}

PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trees.load_tree_s": "s",
    "trees.tree_to_text_s": "s",
    "trees.reroot_s": "s",
    "trees.build_perfect_tree_s": "s",
    "dynamics.opinion_text_s": "s",
    "dynamics.opinion_random_s": "s",
    "dynamics.stabilise_s": "s",
    "dynamics.steps": "count",
    "dynamics.ns_per_vertex_step": "ns",
    "bitsliced.steps": "count",
    "bitsliced.bit_updates": "count",
    "worstcase.worst_case_tau_s": "s",
    "worstcase.brute_force_tau_s": "s",
    "stability.calls": "count",
    "stability.checked": "count",
    "probe.estimate_probability_s": "s",
    "probe.mc_tau_s": "s",
    **{f"claims.suite_s.{suite}": "s" for suite in workloads.SUITES},
    "artifacts.json_bytes": "bytes",
}

SPAN_KEYS = ("name", "start", "end", "parent")

# Deterministic per-layer counts: equal in every traced pass of one run.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))


def child_env() -> dict[str, str]:
    """Environment for every majlab process: only ``src`` on the path, one
    BLAS thread, and no seed from the environment (``--seed`` is explicit)."""
    env = dict(os.environ)
    env.pop("MAJLAB_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + seconds

    def left(self) -> float:
        return self.at - time.perf_counter()


def run_child(argv: list[str], cwd: Path, deadline: Deadline, log: Path) -> dict:
    """Run one process to completion; its own peak RSS comes from wait4.

    ``RUSAGE_CHILDREN`` would keep the high-water mark of every child so
    far and could never show a decrease.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cli_argv(command: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "majlab.cli", *command.argv]


def judge(plan: workloads.Plan, workdir: Path, rcs: dict[str, int], reference: dict[str, str]):
    """Checks and digests of one pass: (outputs, digests, problems per label)."""
    outputs = workloads.Outputs(workdir, plan.commands)
    problems = {c.label: [] for c in plan.commands}
    for label, rc in rcs.items():
        if rc != 0:
            problems[label].append(f"exit code {rc}")
    for label, found in plan.check(outputs).items():
        if rcs[label] == 0:
            problems[label].extend(found)
    digests = {}
    for command in plan.commands:
        try:
            digests[command.label] = workloads.digest(outputs.text(command.label))
        except OSError as exc:
            problems[command.label].append(f"no artifact: {exc}")
            continue
        ref = reference.setdefault(command.label, digests[command.label])
        if digests[command.label] != ref:
            problems[command.label].append("artifact digest changed across repeats")
    return outputs, digests, problems


def prepare(plan: workloads.Plan) -> Path:
    workdir = WORK / plan.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in plan.inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return workdir


def clear_outputs(plan: workloads.Plan, workdir: Path) -> None:
    for command in plan.commands:
        (workdir / command.output).unlink(missing_ok=True)


def keep_going(done: int, minimum: int, elapsed: float, last: float, seconds: float) -> bool:
    """Repeat until ``seconds`` have passed and ``minimum`` repeats are done,
    but never start a repeat that would end far past ``seconds``."""
    if done < minimum:
        return True
    return elapsed < seconds and elapsed + last <= 1.25 * seconds


_PROBE_IN = np.random.default_rng(0).integers(-1, 2, size=2_000_000, dtype=np.int8).astype(np.int16)
_PROBE_OUT = np.empty(_PROBE_IN.size - 1, dtype=np.int16)


def speed_probe() -> tuple[float, float, float]:
    """Seconds of three fixed tasks: a pure-Python loop, numpy passes into
    preallocated arrays, and touching every page of fresh anonymous maps.

    The workloads' processes interpret Python, stream arrays and fault in
    hundreds of megabytes of fresh memory, and the machine's speed drifts
    differently for each, so the probe times one of each.  The probe's own
    allocations are explicit, so its time does not depend on what the
    allocator of this process has seen before.
    """
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    interpreted = time.perf_counter()
    for _ in range(40):
        np.add(_PROBE_IN[1:], _PROBE_IN[:-1], out=_PROBE_OUT)
        np.sign(_PROBE_OUT, out=_PROBE_OUT)
    arrays = time.perf_counter()
    for _ in range(2):
        with mmap.mmap(-1, 16 << 20) as fresh:
            pages = np.frombuffer(fresh, dtype=np.uint8)
            pages[:: mmap.PAGESIZE] = 1
            del pages
    return interpreted - start, arrays - interpreted, time.perf_counter() - arrays


def probe_s(probes: list[tuple[float, ...]]) -> float:
    """Mean over a run's probes of the geometric mean of their parts."""
    return statistics.fmean(math.prod(parts) ** (1 / len(parts)) for parts in probes)


def setup_sample(plan: workloads.Plan, workdir: Path, deadline: Deadline) -> float:
    res = run_child([sys.executable, "-c", plan.setup_code], workdir, deadline, workdir / "setup.log")
    if res["rc"] != 0:
        raise RuntimeError(f"setup process exited with {res['rc']}; see {workdir / 'setup.log'}")
    return res["wall_s"]


def measure_end_to_end(plan: workloads.Plan, seconds: float, deadline: Deadline) -> dict:
    """Alternate one set-up sample and one pass over the commands, with a
    speed probe before each of these processes and one after the last.

    The machine's speed drifts over seconds to minutes, so set-up samples
    and probes are spread over the whole run rather than taken back to back.
    Pass time is the mean over the passes, set-up time the median over the
    samples, and both are rescaled by the run's mean probe.  The first
    set-up process, which also fills the bytecode cache, is not counted.
    """
    workdir = prepare(plan)
    setup_sample(plan, workdir, deadline)
    setup, repeats, probes, reference, work = [], [], [], {}, None
    attempted = failed = 0
    started = time.perf_counter()
    last = 0.0
    while keep_going(len(repeats), MIN_REPEATS, time.perf_counter() - started, last, seconds):
        if deadline.left() < 1.5 * last:
            break
        iteration_start = time.perf_counter()
        pass_probes = [speed_probe()]
        setup.append(setup_sample(plan, workdir, deadline))
        clear_outputs(plan, workdir)
        runs = {}
        for command in plan.commands:
            pass_probes.append(speed_probe())
            runs[command.label] = run_child(cli_argv(command), workdir, deadline, workdir / f"{command.label}.log")
        probes.extend(pass_probes)
        wall = sum(r["wall_s"] for r in runs.values())
        outputs, digests, problems = judge(plan, workdir, {k: r["rc"] for k, r in runs.items()}, reference)
        attempted += len(plan.commands)
        failed += sum(1 for p in problems.values() if p)
        if work is None and not any(problems.values()):
            work = plan.work(outputs)
        repeats.append({
            "wall_s": wall,
            "probes": pass_probes,
            "commands": {
                label: {**runs[label], "sha256": digests.get(label), "problems": problems[label]}
                for label in runs
            },
        })
        last = time.perf_counter() - iteration_start
    probes.append(speed_probe())
    raw = {
        "wall_s": statistics.fmean(r["wall_s"] for r in repeats),
        "setup_s": statistics.median(setup),
        "probe_s": probe_s(probes),
    }
    raw["work_per_s"] = (work or 0.0) / raw["wall_s"]
    scale = REFERENCE_PROBE_S / raw["probe_s"]
    metrics = {
        "wall_ref_s": raw["wall_s"] * scale,
        "work_per_ref_s": raw["work_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": statistics.median(
            max(c["peak_rss_mb"] for c in r["commands"].values()) for r in repeats
        ),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": END_TO_END,
        "raw": raw,
        "work": work,
        "work_unit": plan.work_unit,
        "setup_s": setup,
        "probes": probes,
        "repeats": repeats,
    }


def traced_command(command: workloads.Command, trace: bool, workdir: Path, deadline: Deadline):
    """One command in a fresh ``traced.py`` process: (its report, its spans)."""
    out = workdir / f"trace-{command.label}"
    argv = [sys.executable, str(HERE / "traced.py"), "--trace", str(int(trace)), "--out", str(out),
            "--", *command.argv]
    res = run_child(argv, workdir, deadline, workdir / f"{command.label}.log")
    if res["rc"] != 0:
        raise RuntimeError(f"traced.py exited with {res['rc']}; see {workdir / command.label}.log")
    report = json.loads(Path(f"{out}.json").read_text(encoding="utf-8"))
    with np.load(f"{out}.npz") as saved:
        spans = {key: saved[key] for key in SPAN_KEYS}
    return report, spans


def measure_traced(plan: workloads.Plan, seconds: float, deadline: Deadline) -> dict:
    """Alternate untraced and traced passes over the workload's commands.

    Every command of every pass runs in a fresh process, so that no pass
    finds majlab's memos filled by an earlier one.  The first set-up
    process fills the bytecode cache and is not counted.
    """
    workdir = prepare(plan)
    setup_sample(plan, workdir, deadline)
    names: list[str] = []
    untraced, traced, per_pass, spans_of_pass, import_s = [], [], [], [], []
    reference: dict[str, str] = {}
    attempted = failed = 0
    started = time.perf_counter()
    last = 0.0
    while keep_going(len(traced), 1, time.perf_counter() - started, last, seconds):
        if deadline.left() < 1.5 * last:
            break
        pair_start = time.perf_counter()
        # Alternate which pass of a pair runs first, so that neither always
        # runs in the same phase of the machine's speed drift.
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            clear_outputs(plan, workdir)
            rcs, walls, parts, counters = {}, {}, [], {}
            for command in plan.commands:
                report, spans = traced_command(command, trace, workdir, deadline)
                rcs[command.label] = report["rc"]
                walls[command.label] = report["wall_s"]
                import_s.append(report["import_s"])
                parts.append((report["names"], spans))
                for key, value in report["counters"].items():
                    counters[key] = counters.get(key, 0) + value
            _, _, problems = judge(plan, workdir, rcs, reference)
            attempted += len(plan.commands)
            failed += sum(1 for p in problems.values() if p)
            entry = {"wall_s": sum(walls.values()), "command_wall_s": walls, "problems": problems}
            if trace:
                spans = merge(parts, names)
                per_pass.append(layer_metrics(spans, names, counters, list(workloads.SUITES)))
                spans_of_pass.append(spans)
                entry["span_count"] = int(spans["name"].size)
                traced.append(entry)
            else:
                untraced.append(entry)
        last = time.perf_counter() - pair_start
    # Kept for inspection and for the smoke test's nesting checks.
    np.savez(workdir / "spans.npz", **{f"pass{i}_{k}": s[k] for i, s in enumerate(spans_of_pass) for k in SPAN_KEYS})
    (workdir / "trace.json").write_text(json.dumps({"names": names, "traced": traced}) + "\n", encoding="utf-8")
    metrics = {}
    for name in PER_LAYER:
        values = [m[name] for m in per_pass if name in m]
        if values:
            metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    metrics["cli.import_s"] = statistics.median(import_s)
    unsteady = [name for name in COUNTS if len({m.get(name) for m in per_pass}) > 1]
    return {
        "attempted": attempted,
        "failed": failed,
        "unsteady_counts": unsteady,
        "metrics": metrics,
        "units": PER_LAYER,
        "passes": {"untraced": untraced, "traced": traced},
    }


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_model": None, "caches": {}, "git_commit": git_commit()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            info["caches"][label] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def git_commit() -> str | None:
    """Commit of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, deadline: Deadline) -> dict:
    plan = workloads.plan(name, seed, size)
    if trace:
        measured = measure_traced(plan, seconds, deadline)
    else:
        measured = measure_end_to_end(plan, seconds, deadline)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "params": plan.params, "machine": machine(), **measured,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> dict:
    correct = record["failed"] == 0 and not record.get("unsteady_counts")
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": record["units"][k]} for k, v in record["metrics"].items()},
    }


def raw_metrics(record: dict) -> dict:
    """The unscaled end-to-end figures, named ``raw.<name>``."""
    return {f"raw.{k}": {"value": v, "unit": RAW[k]} for k, v in record.get("raw", {}).items()}


def print_metrics(workload: str, metrics: dict) -> None:
    for key, metric in metrics.items():
        print(f"{workload:>10}  {key:<40} {metric['value']:>16.6g} {metric['unit']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke shrinks every input; used by the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "majlab" / "cli.py").is_file():
        print(f"error: no majlab sources under {SRC}; run from the root of a majlab checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        deadline = Deadline(RUN_DEADLINE_S)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size, deadline)
        line = result_line(record)
        print_metrics(args.workload, {**line["metrics"], **raw_metrics(record)})
        print(json.dumps(line))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.size, Deadline(RUN_DEADLINE_S))
        line = result_line(record)
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        line["metrics"].update(raw_metrics(record))
        line["metrics"]["error_rate"] = {"value": line["failed"] / line["attempted"], "unit": "ratio"}
        print_metrics(name, line["metrics"])
        combined["metrics"].update({f"{name}.{k}": m for k, m in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
