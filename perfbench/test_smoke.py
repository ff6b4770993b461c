"""Smoke test: every workload at smoke size, end to end and traced.

Run from the root of the checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from tracer import LAYERS, nesting_problems, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics(workload):
    line = run(workload, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_metrics_and_spans(workload):
    line = run(workload, trace=1)
    assert line["correct"] and line["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want

    workdir = ROOT / ".perfbench" / workload
    report = json.loads((workdir / "trace.json").read_text())
    with np.load(workdir / "spans.npz") as saved:
        for i, traced in enumerate(report["traced"]):
            spans = {k: saved[f"pass{i}_{k}"] for k in ("name", "start", "end", "parent")}
            assert spans["name"].size > 0
            assert nesting_problems(spans) == []
            own = self_times(spans)
            assert own.min() >= -1e-9
            assert own.sum() <= traced["wall_s"]
    names = report["names"]
    assert {n.split(".", 1)[0] for n in names} <= set(LAYERS)
    assert sum(line["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS) > 0


def test_nesting_check_catches_overlap():
    spans = {
        "name": np.zeros(3, dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0]),
        "end": np.array([10.0, 3.0, 4.0]),
        "parent": np.array([-1, 0, 0]),
    }
    assert nesting_problems(spans) == ["1 sibling spans overlap"]
    spans["end"][2] = 11.0
    spans["start"][2] = 3.0
    assert nesting_problems(spans) == ["1 spans leave their parent's interval"]


def test_replay_matches_the_documented_example():
    # majlab's README: edges (0,1) (0,2) (0,3) (1,4) (1,5) (4,6) (4,7).
    parents = np.array([0, 0, 0, 1, 1, 4, 4])
    tau, even, _ = workloads.replay(parents, "+-++--+-")
    assert (tau, even) == (1, "+-++----")
