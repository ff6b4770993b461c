"""What each CLI command imports, and the lazy public names of the package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import majlab
from majlab.cli import main

SRC = str(Path(majlab.__file__).parents[1])

# Runs one command in-process and prints, as the last line of stderr, the
# majlab modules loaded by then, and numpy.ma and the pool modules, which
# no command should load, if they are; stdout is left to the command.
RUN_AND_LIST = """\
import json, sys
import majlab.cli
try:
    code = majlab.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
listed = {"numpy.ma", "concurrent.futures", "multiprocessing"}
loaded = (m for m in sys.modules if m.startswith("majlab.") or m in listed)
print(json.dumps(sorted(loaded)), file=sys.stderr)
sys.exit(code)
"""

ENGINES = {"claims", "probe", "stability", "worstcase", "treegen", "bitsliced"}
POOL = {"concurrent.futures", "multiprocessing"}


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def loaded_modules(argv, cwd, on_one_cpu=False) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("MAJLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
        preexec_fn=one_cpu if on_one_cpu else None,
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("majlab.") for name in json.loads(proc.stderr.splitlines()[-1])}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports")
    assert main(["gen", "--k", "2", "--h", "3", "-o", str(path / "tree.txt")]) == 0
    return path


# each command with the engine modules it must not load
COMMANDS = pytest.mark.parametrize(
    "argv,left_out",
    [
        (["gen", "--k", "2", "--h", "2", "-o", "gen.txt"], ENGINES),
        (["simulate", "--tree", "tree.txt", "-o", "sim.json"], ENGINES),
        (["worst-case", "--tree", "tree.txt", "-o", "wc.json"],
         {"claims", "probe", "stability", "treegen"}),
        (["prob", "--target", "weak", "--height", "1", "--t", "1", "-o", "prob.json"],
         {"claims", "worstcase", "treegen"}),
        (["prob", "--target", "le_t", "--height", "2", "--t", "2", "--method", "mc",
          "--trials", "200", "-o", "prob-mc.json"],
         {"claims", "worstcase", "treegen"}),
        (["mc-tau", "--k", "2", "--h", "3", "--trials", "4", "-o", "mc.json"],
         {"claims", "stability", "worstcase", "treegen"}),
        (["brute-force", "--tree", "tree.txt", "-o", "bf.json"],
         {"claims", "probe", "stability", "treegen"}),
        (["stability", "--tree", "tree.txt", "--kind", "strong", "--vertex", "1", "--t", "2",
          "-o", "stability.json"],
         {"claims", "probe", "worstcase", "treegen"}),
        (["fixed-point", "-o", "fp.json"], {"claims", "stability", "worstcase", "treegen"}),
        (["check-claims", "--instances", "1", "-o", "claims.json"], set()),
    ],
    ids=["gen", "simulate", "worst-case", "prob-exact", "prob-mc", "mc-tau", "brute-force",
         "stability", "fixed-point", "check-claims"],
)


@COMMANDS
def test_a_command_loads_only_what_it_runs(argv, left_out, workdir):
    loaded = loaded_modules(argv, workdir)
    assert not loaded & left_out, sorted(loaded & left_out)
    assert (workdir / argv[-1]).is_file()


@COMMANDS
def test_no_command_loads_numpy_ma(argv, left_out, workdir):
    # numpy.ma takes about 10 ms to import; np.median and np.quantile load it
    assert "numpy.ma" not in loaded_modules(argv, workdir)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="sets the CPU affinity")
@pytest.mark.parametrize(
    "argv,on_one_cpu",
    [
        (["check-claims", "--instances", "1", "-o", "claims-1.json"], True),
        (["check-claims", "--instances", "1", "--suites", "tau_within_budget",
          "-o", "claims-one.json"], False),
        (["check-claims", "--instances", "1", "-o", "claims-all.json"], False),
        # two spans of trials
        (["prob", "--target", "le_t", "--height", "2", "--t", "2", "--method", "mc",
          "--trials", "140000", "-o", "prob-mc-1.json"], True),
        (["prob", "--target", "le_t", "--height", "2", "--t", "2", "--method", "mc",
          "--trials", "140000", "-o", "prob-mc-all.json"], False),
        (["mc-tau", "--k", "2", "--h", "3", "--trials", "130", "--workers", "3",
          "-o", "mc-workers.json"], False),
    ],
    ids=["one-cpu", "one-suite", "usable-cpus", "prob-mc-one-cpu", "prob-mc-usable-cpus",
         "mc-tau-workers"],
)
def test_no_command_loads_the_pool_modules(argv, on_one_cpu, workdir):
    # in its own process or on forked ones, a command forks bare processes
    assert not loaded_modules(argv, workdir, on_one_cpu) & POOL
    assert (workdir / argv[-1]).is_file()


@pytest.mark.parametrize(
    "command",
    [None, "gen", "simulate", "worst-case", "brute-force", "stability", "prob", "mc-tau",
     "fixed-point", "check-claims"],
)
def test_help_exits_zero_and_parses_without_the_engines(command, workdir):
    # the parser reads no constant that lives in an engine module
    argv = ["--help"] if command is None else [command, "--help"]
    assert not loaded_modules(argv, workdir) & ENGINES


def test_import_majlab_loads_no_submodule():
    code = "import sys, majlab; print(sorted(m for m in sys.modules if m.startswith('majlab.')))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_public_names_are_the_defining_modules_objects():
    for name in majlab.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"majlab.{majlab._HOME[name]}")
        assert getattr(majlab, name) is getattr(module, name), name
    namespace = {}
    exec("from majlab import *", namespace)
    assert set(majlab.__all__) <= set(namespace)
    assert set(majlab.__all__) <= set(dir(majlab))
    assert majlab.worstcase is importlib.import_module("majlab.worstcase")
    with pytest.raises(AttributeError, match="no_such_name"):
        majlab.no_such_name
    assert not hasattr(majlab, "no_such_name")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists /proc/self/task")
def test_cli_import_starts_no_thread():
    # majlab calls no BLAS, so the CLI keeps numpy's from starting a thread
    # pool, and the pool's workers fork from a process of one thread
    blas = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    env = {name: value for name, value in os.environ.items() if name not in blas}
    env["PYTHONPATH"] = SRC
    code = "import os, majlab.cli; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads Linux's /proc")
def test_the_tests_run_in_a_one_thread_process():
    # the pool tests fork from this process, as commands fork from a
    # process of one thread
    assert len(os.listdir("/proc/self/task")) == 1
