"""End-to-end command-line behaviour: exit codes, payloads, reproducibility."""

import hashlib
import json
import os

import numpy as np
import pytest

import majlab
import majlab.cli
from majlab.claims import ALL_SUITES
from majlab.cli import main
from majlab.dynamics import OpinionVector, stabilise
from majlab.errors import InvariantViolationError
from majlab.probe import estimate_probability, fixed_point_q
from majlab.stability import is_strongly_t_stable
from majlab.trees import RootedTree, build_perfect_tree, load_tree, save_tree
from majlab.artifacts import save_opinions
from majlab.worstcase import worst_case_tau

HOST_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7)]


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("MAJLAB_SEED", raising=False)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    save_tree(build_perfect_tree(2, 2), path)
    return path


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "-o", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_gen_writes_perfect_tree(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--k", "2", "--h", "2", "-o", str(out)]) == 0
    assert load_tree(out) == build_perfect_tree(2, 2)
    text = out.read_text(encoding="utf-8")
    assert text.startswith(f"# majlab {majlab.__version__}")
    # without -o the tree goes to stdout
    assert main(["gen", "--k", "2", "--h", "1"]) == 0
    assert "tree n=4 root=0" in capsys.readouterr().out


def test_simulate_round_trip(tmp_path, tree_file):
    tree = load_tree(tree_file)
    xi0 = OpinionVector.from_string("+-++-+-++-")
    init = tmp_path / "xi.txt"
    save_opinions(init, xi0)
    trace = tmp_path / "trace.txt"
    payload = run_json(
        ["simulate", "--tree", str(tree_file), "--init", str(init), "--trace", str(trace)],
        tmp_path,
    )
    res = stabilise(tree, xi0, keep_history=True)
    result = payload["result"]
    assert payload["command"] == "simulate"
    assert result["tau"] == res.tau
    assert result["steps_executed"] == res.tau + 2
    assert result["init"] == xi0.to_string()
    assert result["stable_even"] == res.stable_even.to_string()
    assert result["first_flip"] == [int(x) for x in res.first_flip]
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert len(lines) == res.steps_executed + 1
    assert lines[0] == xi0.to_string()
    for s, state in zip(lines, res.history):
        assert OpinionVector.from_string(s).to_signs().tolist() == state.tolist()


def test_simulate_seed_resolution(tmp_path, tree_file, monkeypatch):
    payload = run_json(["simulate", "--tree", str(tree_file)], tmp_path)
    assert payload["seed"] == 0
    want = OpinionVector.random(10, np.random.default_rng(0)).to_string()
    assert payload["result"]["init"] == want

    monkeypatch.setenv("MAJLAB_SEED", "7")
    payload = run_json(["simulate", "--tree", str(tree_file)], tmp_path)
    assert payload["seed"] == 7
    payload = run_json(["simulate", "--tree", str(tree_file), "--seed", "9"], tmp_path)
    assert payload["seed"] == 9

    monkeypatch.setenv("MAJLAB_SEED", "pony")
    assert main(["simulate", "--tree", str(tree_file)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--tree", "{tree}"],
        ["stability", "--tree", "{tree}", "--vertex", "1", "--kind", "one_close"],
        ["prob", "--target", "weak", "--height", "1", "--t", "0", "--method", "mc"],
        ["mc-tau", "--k", "2", "--h", "2", "--trials", "3"],
        ["check-claims", "--instances", "1"],
    ],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_is_one_error_line(
    tmp_path, tree_file, monkeypatch, capsys, argv, source
):
    argv = [arg.format(tree=tree_file) for arg in argv]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("MAJLAB_SEED", "-3")
    assert main([*argv, "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: ")
    assert ("--seed" if source == "flag" else "MAJLAB_SEED") in err[0]
    assert not (tmp_path / "out.json").exists()


def test_worst_case_and_brute_force_cli(tmp_path, tree_file):
    tree = load_tree(tree_file)
    report = worst_case_tau(tree)
    payload = run_json(["worst-case", "--tree", str(tree_file)], tmp_path)
    result = payload["result"]
    assert result["tau"] == report.tau
    assert result["path"] == [int(v) for v in report.argmax.vertices]
    assert result["witness"] == report.witness.to_string()
    assert result["per_vertex_bound"] == {
        str(v): b for v, b in report.per_vertex_bound.items()
    }
    brute = run_json(["brute-force", "--tree", str(tree_file)], tmp_path)
    assert brute["result"]["tau"] == report.tau


def test_stability_cli(tmp_path):
    path = tmp_path / "host.txt"
    save_tree(RootedTree.from_edges(HOST_EDGES), path)
    payload = run_json(
        ["stability", "--tree", str(path), "--kind", "strong", "--vertex", "1",
         "--t", "1", "--seed", "4"],
        tmp_path,
    )
    result = payload["result"]
    xi0 = OpinionVector.from_string(result["init"])
    verdict = is_strongly_t_stable(RootedTree.from_edges(HOST_EDGES), xi0, 1, 1)
    assert result["verdict"] == verdict.verdict
    assert result["method"] == verdict.method
    assert result["kind"] == "strong" and result["vertex"] == 1

    # every kind's success payload must serialize (verdicts are plain bools)
    for kind, t_args in [("weak", ["--t", "2"]), ("le_t", ["--t", "2"]),
                         ("one_close", [])]:
        payload = run_json(
            ["stability", "--tree", str(path), "--kind", kind, "--vertex", "1",
             *t_args, "--seed", "4"],
            tmp_path,
        )
        assert payload["result"]["kind"] == kind
        assert payload["result"]["verdict"] in (True, False)

    assert main(["stability", "--tree", str(path), "--kind", "one_close",
                 "--vertex", "1", "--t", "2"]) == 1
    assert main(["stability", "--tree", str(path), "--kind", "weak",
                 "--vertex", "1"]) == 1


def test_stability_error_codes_on_stderr(tmp_path, capsys):
    path = tmp_path / "host.txt"
    save_tree(RootedTree.from_edges(HOST_EDGES), path)
    assert main(["stability", "--tree", str(path), "--kind", "weak",
                 "--vertex", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BAD_TIME:")
    assert len(err.strip().splitlines()) == 1


def test_prob_cli(tmp_path, capsys):
    payload = run_json(
        ["prob", "--target", "weak", "--height", "2", "--t", "0"], tmp_path
    )
    est = estimate_probability("weak", 2, 0)
    assert payload["result"]["value"] == est.value == 15 / 16
    assert payload["result"]["method"] == "exact"
    assert payload["result"]["unresolved"] is None

    assert main(["prob", "--target", "weak", "--height", "2", "--t", "0",
                 "--xi", "+"]) == 1
    assert capsys.readouterr().err.startswith("ERROR:")


def test_mc_tau_cli_is_worker_invariant(tmp_path):
    def run(workers, seed, tag):
        out = tmp_path / f"mc{tag}.json"
        csv = tmp_path / f"mc{tag}.csv"
        code = main(["mc-tau", "--k", "2", "--h", "3", "--trials", "30",
                     "--seed", str(seed), "--workers", str(workers),
                     "--csv", str(csv), "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        del payload["generated_at"]
        rows = [
            line for line in csv.read_text(encoding="utf-8").splitlines()
            if not line.startswith("# generated_at")
        ]
        return payload, rows

    base = run(1, 42, "a")
    sharded = run(3, 42, "b")
    reseeded = run(1, 43, "c")
    assert base == sharded
    assert base[0]["result"]["taus"] != reseeded[0]["result"]["taus"]
    assert base[1][2] == "trial,seed,tau"
    assert len(base[1]) == 30 + 3  # 2 retained comments + header + rows


def test_fixed_point_cli(tmp_path):
    payload = run_json(["fixed-point"], tmp_path)
    res = fixed_point_q()
    assert payload["result"]["q"] == res.q
    assert payload["result"]["iterations"] == res.iterations
    assert payload["seed"] is None


@pytest.mark.parametrize(
    "flag,value", [("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"), ("--tol", "nan"),
                   ("--lower", "-inf"), ("--upper", "nan")]
)
def test_fixed_point_cli_rejects_a_meaningless_bound(tmp_path, capsys, flag, value):
    out = tmp_path / "fp.json"
    assert main(["fixed-point", f"{flag}={value}", "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: "), err
    assert not out.exists()


@pytest.mark.parametrize(
    "exc", [MemoryError("Unable to allocate 48.0 GiB for an array"), MemoryError()]
)
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc):
    # numpy raises a MemoryError subclass when an allocation fails
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(majlab.probe, "mc_tau", exhausted)
    out = tmp_path / "taus.json"
    assert main(["mc-tau", "--k", "2", "--h", "30", "--trials", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("OUT_OF_MEMORY: "), err
    assert err[0] != "OUT_OF_MEMORY: "
    assert captured.out == "" and not out.exists()


# hosts whose vertex count, at 16 bytes a vertex, is past numpy's index
# range: refused before anything is allocated
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--k", "2", "--h", "61"],
        ["gen", "--k", "2", "--h", "70"],
        ["mc-tau", "--k", "2", "--h", "61", "--trials", "1"],
        ["mc-tau", "--k", "4", "--h", "32", "--trials", "1"],
        ["prob", "--target", "strong", "--height", "61", "--t", "0", "--method", "mc",
         "--trials", "1"],
        # (<= t) builds only its cone, but its exact count is over 2^(2^71 - 1)
        ["prob", "--target", "le_t", "--height", "70", "--t", "2"],
    ],
    ids=["gen-h61", "gen-h70", "mc-tau-k2-h61", "mc-tau-k4-h32", "prob-strong-h61",
         "prob-le_t-exact-h70"],
)
def test_hosts_too_large_to_index_are_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("OUT_OF_MEMORY: "), err
    assert "too large" in err[0]
    assert captured.out == "" and not out.exists()


def test_le_t_samples_a_cone_of_a_host_too_large_to_index(tmp_path):
    payload = run_json(["prob", "--target", "le_t", "--height", "70", "--t", "2",
                        "--method", "mc", "--trials", "100"], tmp_path)
    assert payload["result"]["trials"] == 100


def test_check_claims_cli(tmp_path, capsys):
    out = tmp_path / "claims.json"
    code = main(["check-claims", "--suites", "fixed_point_bracket,tau_within_budget",
                 "--instances", "20", "--seed", "2", "-o", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fixed_point_bracket: pass" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [r["name"] for r in payload["result"]] == [
        "fixed_point_bracket", "tau_within_budget",
    ]
    assert all(r["passed"] for r in payload["result"])

    # an unknown name lists the known ones, which --help leaves out
    assert main(["check-claims", "--suites", "nope,tau_within_budget"]) == 1
    assert capsys.readouterr().err == (
        f"ERROR: unknown suites: nope; known suites: {', '.join(ALL_SUITES)}\n"
    )


@pytest.mark.parametrize(
    "suites,entry",
    [("", 1), ("tau_within_budget,", 2), (",tau_within_budget", 1),
     ("fixed_point_bracket,,tau_within_budget", 2)],
)
def test_check_claims_refuses_an_empty_suite_entry(suites, entry, tmp_path, capsys):
    # an empty entry is a typo, not a request for every suite
    out = tmp_path / "claims.json"
    assert main(["check-claims", "--suites", suites, "--instances", "5", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"ERROR: --suites entry {entry} of {suites!r} is empty\n"


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_check_claims_needs_an_instance(instances, capsys):
    assert main(["check-claims", "--instances", instances]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR:")
    assert len(err.strip().splitlines()) == 1


def test_workers_must_be_positive(tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = ["mc-tau", "--k", "2", "--h", "2", "--trials", "3", "--workers", "0"]
    assert main([*argv, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", "ERROR: workers must be positive, got 0\n")
    assert not out.exists()


def test_an_error_in_a_claims_worker_is_one_error_line(monkeypatch, tmp_path, capsys):
    def broken(instances, rng):
        raise InvariantViolationError(f"raised in process {os.getpid()}")

    monkeypatch.setitem(ALL_SUITES, "tau_within_budget", broken)
    monkeypatch.setattr(majlab.claims, "_usable_cpus", lambda: 2)
    out = tmp_path / "claims.json"
    argv = ["check-claims", "--suites", "fixed_point_bracket,tau_within_budget",
            "--instances", "1", "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("INVARIANT_VIOLATION: raised in process ")
    assert line != f"INVARIANT_VIOLATION: raised in process {os.getpid()}"  # in a worker


def test_an_error_in_a_prob_worker_is_one_error_line(monkeypatch, tmp_path, capsys):
    parent, decide = os.getpid(), majlab.stability._le_t_ok_bits

    def broken(*args):
        if os.getpid() != parent:
            raise InvariantViolationError(f"raised in process {os.getpid()}")
        return decide(*args)

    monkeypatch.setattr(majlab.stability, "_le_t_ok_bits", broken)
    monkeypatch.setattr(majlab.probe, "_usable_cpus", lambda: 2)
    out = tmp_path / "prob.json"
    argv = ["prob", "--target", "le_t", "--height", "2", "--t", "2", "--method", "mc",
            "--trials", "140000", "-o", str(out)]  # two spans of trials
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("INVARIANT_VIOLATION: raised in process ")
    assert line != f"INVARIANT_VIOLATION: raised in process {parent}"  # in a worker


def test_domain_error_exits(tmp_path, tree_file, capsys):
    assert main(["simulate", "--tree", str(tmp_path / "missing.txt")]) == 1
    assert capsys.readouterr().err.startswith("IO_ERROR:")

    short = tmp_path / "short.txt"
    short.write_text("+-+\n", encoding="utf-8")
    assert main(["simulate", "--tree", str(tree_file), "--init", str(short)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("INIT_LENGTH_MISMATCH:")

    assert main(["gen", "--k", "3", "--h", "2"]) == 1
    assert capsys.readouterr().err.startswith("DEGREE_PARITY:")


@pytest.mark.parametrize("k,h,code", [("3", "2", "DEGREE_PARITY"), ("2", "0", "TOO_SMALL")])
def test_mc_tau_cli_rejects_a_bad_host(k, h, code, capsys):
    assert main(["mc-tau", "--k", k, "--h", h]) == 1
    assert capsys.readouterr().err.startswith(f"{code}:")


def test_prob_cli_rejects_an_odd_arity(capsys):
    # the same check, and code, as gen and mc-tau
    assert main(["prob", "--target", "le_t", "--k", "3", "--height", "2",
                 "--t", "2"]) == 1
    assert capsys.readouterr().err.startswith("DEGREE_PARITY:")


@pytest.mark.parametrize(
    "text,code",
    [
        ("tree n=4 root=0\n0 1\n2 0\n1 0\n", "TREE_FORMAT"),
        ("tree n=4 root=0\n0 1\n1 2\n2 3\n", "DEGREE_PARITY"),
        ("tree n=4 root=0\n0 1\n# a comment\n0 2 3\n0 3\n", "TREE_FORMAT"),
        ("tree n=4 root=0\n0 99999999999999999999\n0 1\n0 2\n", "TREE_FORMAT"),
    ],
    ids=["parallel-reversed", "even-degree", "three-fields", "id-beyond-int64"],
)
def test_simulate_rejects_a_malformed_tree(tmp_path, text, code, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--tree", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.split(":")[0] == code
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flag,data,code",
    [
        ("--tree", b"# caf\xe9\ntree n=4 root=0\n0 1\n0 2\n0 3\n", "TREE_FORMAT"),
        ("--init", b"+-\xff+\n", "OPINION_FORMAT"),
    ],
    ids=["tree", "opinions"],
)
def test_a_file_that_is_not_utf8_is_one_error_line(tmp_path, tree_file, flag, data, code, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    argv = {"--tree": ["worst-case", "--tree", str(path)],
            "--init": ["simulate", "--tree", str(tree_file), "--init", str(path)]}[flag]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{code}: {path}: not valid UTF-8 at byte ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text,count", [("", 0), ("+-+-\n\n-+-+\n", 2)], ids=["empty", "two-lines"]
)
def test_an_opinion_file_without_one_line_is_one_error_line(
    tmp_path, tree_file, text, count, capsys
):
    path = tmp_path / "xi.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--tree", str(tree_file), "--init", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"OPINION_FORMAT: {path}: opinion file must hold exactly one non-empty line, got {count}\n"
    )


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"majlab {majlab.__version__}" in capsys.readouterr().out


# -- golden artifact pins -----------------------------------------------------
# sha256 of each artifact's text without its ``generated_at`` line: a change
# to any key, its order or its value shows here, not only between re-runs.

GOLDEN_HOST = ["--tree", "host.txt"]  # gen --k 2 --h 3, written in the cwd
GOLDEN_HOST_K4 = ["--tree", "host-k4.txt"]  # gen --k 4 --h 4, written in the cwd
GOLDEN = {
    "simulate": (
        ["simulate", *GOLDEN_HOST, "--seed", "4"],
        "7cc18c76e51275ad3b0330ddab48e0f0bda2bda646f0f8d2f3000c3415ad7a08",
    ),
    "simulate-trace": (  # the trace path is not configuration: the same digest
        ["simulate", *GOLDEN_HOST, "--seed", "4", "--trace", "trace.txt"],
        "7cc18c76e51275ad3b0330ddab48e0f0bda2bda646f0f8d2f3000c3415ad7a08",
    ),
    "worst-case": (
        ["worst-case", *GOLDEN_HOST],
        "b2ce1296a0f5173f95dd4c08d0ff58d1a1f534c05f24c737ad3b3acb81953379",
    ),
    "worst-case-k4-h4": (
        ["worst-case", *GOLDEN_HOST_K4],
        "45f586acb83f8b1746b816b8c8b42a7016e262a1843b5cefb04c689c34d11730",
    ),
    "brute-force": (
        ["brute-force", *GOLDEN_HOST],
        "d8c8ec15fa0132fed06df68c30da90f30b31641f2db0fbea1e340da15fc5de12",
    ),
    "prob-weak-exact": (
        ["prob", "--target", "weak", "--height", "2", "--t", "0", "--method", "exact"],
        "7d628df7c11f684e915e7911ab4e8a3fa46e13920fc3047fdd64f9e9d28266b9",
    ),
    "prob-strong-mc": (
        ["prob", "--target", "strong", "--height", "3", "--t", "2", "--method", "mc",
         "--trials", "500", "--seed", "3"],
        "79b769fa3197347530a7027901de987120557b0d90326b1a25a51189907ba6c8",
    ),
    "prob-le_t-plus": (
        ["prob", "--target", "le_t", "--height", "2", "--t", "2", "--xi", "+"],
        "8933729a8b14bb1f8b82c9d9a03c01729c90e7ff64b69fc8e6efb2e36e419034",
    ),
    "prob-le_t-k4-minus-mc": (
        ["prob", "--target", "le_t", "--k", "4", "--height", "3", "--t", "4",
         "--method", "mc", "--xi", "-"],
        "6f6c288b20e8b965383714739545fdb5ba1ed7c5ce4bc0c56b7b11587ce17008",
    ),
    # above one span's 2^17 trials: the digests of the draw before trials ran in spans
    "prob-strong-mc-300k": (
        ["prob", "--target", "strong", "--height", "4", "--t", "2", "--method", "mc",
         "--trials", "300000", "--seed", "3"],
        "0b6ac31a3db9f1dd99a299fa054fc86b97109880803f748a92cc8a849fe9a461",
    ),
    "prob-weak-mc-300k": (
        ["prob", "--target", "weak", "--height", "5", "--t", "2", "--method", "mc",
         "--trials", "300000", "--seed", "3"],
        "3634c239c1807fc321add015fb6f01b5330b6968a974e8238a8f8041208d073a",
    ),
    "prob-le_t-k4-minus-mc-300k": (
        ["prob", "--target", "le_t", "--k", "4", "--height", "3", "--t", "4",
         "--method", "mc", "--trials", "300000", "--xi", "-"],
        "ddb3fbb3450f406745e825d4ee3e3b7da36d66fab1785b6932fde323024dc4d2",
    ),
    "prob-one_close": (
        ["prob", "--target", "one_close", "--height", "1"],
        "762f5ce56fa4ef12705d369f3cf781bfff65761fdb8e02330e56bf8ddb56e740",
    ),
    "stability-weak": (
        ["stability", *GOLDEN_HOST, "--kind", "weak", "--vertex", "1", "--t", "2",
         "--seed", "4"],
        "1fcc52445434db93ce50f1133bd3f8dd1795fc70171c89329b6085d16fb368e4",
    ),
    "stability-strong": (
        ["stability", *GOLDEN_HOST, "--kind", "strong", "--vertex", "1", "--t", "1",
         "--seed", "4"],
        "e37b60b4bc1510591b50d4bf0049833465184725eb80f6703badc183a70e044c",
    ),
    "stability-le_t": (
        ["stability", *GOLDEN_HOST, "--kind", "le_t", "--vertex", "2", "--t", "2",
         "--seed", "5"],
        "b36a2ce0447708f739c9058908d0e923753a9351f0fc31d31c1f46433c1b719c",
    ),
    "stability-one_close": (
        ["stability", *GOLDEN_HOST, "--kind", "one_close", "--vertex", "1", "--seed", "4"],
        "92d6e3791c14cc3bbb42825df432bd82380c0d0a01086585adcc0fed4001b3b0",
    ),
    "fixed-point": (
        ["fixed-point"],
        "b4fb22a845073fb430881006c4deeb010626868a44551f3e59bda3145454e6bb",
    ),
    "mc-tau-workers-1": (
        ["mc-tau", "--k", "2", "--h", "5", "--trials", "70", "--seed", "2",
         "--workers", "1"],
        "9433763bd396dd442d1ffcb338f09074e4e598c31aed3a91c776c6193d8c66e4",
    ),
    "mc-tau-workers-3": (
        ["mc-tau", "--k", "2", "--h", "5", "--trials", "70", "--seed", "2",
         "--workers", "3"],
        "9433763bd396dd442d1ffcb338f09074e4e598c31aed3a91c776c6193d8c66e4",
    ),
    # the digest of the run in one process, before suites ran in workers
    "check-claims": (
        ["check-claims", "--instances", "130", "--seed", "3"],
        "a765d248e505f672fe5a2f7aeaf63c95a664e748c8926c86ec51aba952c47ab0",
    ),
}


def _pinned_digest(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_tree(build_perfect_tree(2, 3), tmp_path / "host.txt")
    save_tree(build_perfect_tree(4, 4), tmp_path / "host-k4.txt")
    assert main([*argv, "-o", "out.json"]) == 0
    lines = (tmp_path / "out.json").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.lstrip().startswith('"generated_at"')]
    assert len(kept) == len(lines) - 1
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_its_golden_digest(name, tmp_path, monkeypatch):
    argv, digest = GOLDEN[name]
    assert _pinned_digest(argv, tmp_path, monkeypatch) == digest


@pytest.mark.parametrize("cpus", [1, 3])
def test_check_claims_artifact_does_not_depend_on_the_cpu_count(cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(majlab.claims, "_usable_cpus", lambda: cpus)
    argv, digest = GOLDEN["check-claims"]
    assert _pinned_digest(argv, tmp_path, monkeypatch) == digest


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "name", ["prob-strong-mc-300k", "prob-weak-mc-300k", "prob-le_t-k4-minus-mc-300k"]
)
def test_prob_mc_artifact_does_not_depend_on_the_cpu_count(name, cpus, tmp_path, monkeypatch):
    # three spans of trials: in this process, or here and on two workers
    monkeypatch.setattr(majlab.probe, "_usable_cpus", lambda: cpus)
    argv, digest = GOLDEN[name]
    assert _pinned_digest(argv, tmp_path, monkeypatch) == digest


def test_simulate_trace_matches_its_golden_digest(tmp_path, monkeypatch):
    _pinned_digest(GOLDEN["simulate-trace"][0], tmp_path, monkeypatch)
    trace = (tmp_path / "trace.txt").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == (
        "a9b61d1e5026950250151a04466d2b940d4e470e80d5a5450f2e2b3317f7eeee"
    )


@pytest.mark.parametrize(
    "argv,line",
    [
        (["prob", "--target", "weak", "--height", "2", "--t", "0", "--xi", "+"],
         "ERROR: --xi applies only to --target le_t\n"),
        (["prob", "--target", "le_t", "--height", "2", "--t", "3"],
         "BAD_TIME: (<=t) estimates support even t >= 2 only, got 3\n"),
    ],
    ids=["xi-without-le_t", "le_t-odd-t"],
)
def test_prob_error_paths_are_pinned(argv, line, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", line)
