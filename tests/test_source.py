"""Source-level rules for the package."""

import ast
import inspect
from pathlib import Path

import majlab


def test_no_assert_statements():
    # invariants raise InvariantViolationError: ``python -O`` strips asserts
    modules = sorted(Path(majlab.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in majlab: {found}"


def test_stability_runs_no_single_trajectory_engine():
    # every predicate has one implementation, the batched layer, and weak
    # stability steps its time-t state there too, on the light cone
    path = Path(majlab.__file__).parent / "stability.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"stabilise", "Trajectory", "_step_signs"}


def test_claims_has_one_instance_loop():
    # one tally loop runs every sampled suite's check once per instance
    path = Path(majlab.__file__).parent / "claims.py"
    loops = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node) == "range(instances)"
    ]
    assert len(loops) == 1, f"range(instances) at claims.py lines {loops}"


def _scopes(match, modules: str = "*.py") -> list[str]:
    """The Class.function scope, across the package modules that match the
    glob ``modules``, of each node that ``match`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if match(child):
                found.append(scope)
            visit(child, inner)

    for path in sorted(Path(majlab.__file__).parent.rglob(modules)):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_edges_reach_trees_through_from_edges_only():
    # one graph type, and one edge array checked in one place
    assert not _scopes(lambda node: isinstance(node, ast.ClassDef) and node.name == "GraphView")
    callers = _scopes(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func) == "_validated_edge_arrays"
    )
    assert callers == ["RootedTree.from_edges"]


def test_levels_are_derived_through_the_tree_accessor_only():
    # depth, height and diameter come from one helper, on first read
    helper = "_depth_height_diameter"
    callers = _scopes(lambda node: helper in (getattr(node, "id", 0), getattr(node, "attr", 0)))
    assert callers == ["RootedTree._read_levels"], callers


def test_path_scores_is_two_passes_over_lists():
    # leaves up, then root down, over the parent pointers and BFS order:
    # no child lists, built per call or sliced from the tree per vertex
    path = Path(majlab.__file__).parent / "worstcase.py"
    module = ast.parse(path.read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and node.name == "_path_scores"
    ]
    loops = [stmt.lineno for stmt in func.body if isinstance(stmt, ast.For)]
    assert len(loops) == 2, f"top-level for statements at worstcase.py lines {loops}"

    def reads(node, names):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} & names

    assert not reads(func, {"children", "neighbours"})


_NAME_FIELDS = {
    ast.Name: "id",
    ast.Attribute: "attr",
    ast.FunctionDef: "name",
    ast.ClassDef: "name",
    ast.alias: "name",
    ast.keyword: "arg",
}


def _names(node) -> set[str]:
    """The identifiers a node spells: a name, attribute, definition,
    import, keyword argument or string constant."""
    if type(node) in _NAME_FIELDS:
        return {getattr(node, _NAME_FIELDS[type(node)])}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_trees_hold_one_adjacency():
    # a tree is its adjacency CSR and its rooting: no module stores, builds
    # or reads a second, child-only CSR
    banned = {"child_flat", "child_offsets", "_child_csr"}
    found = _scopes(lambda node: _names(node) & banned)
    assert not found, f"child CSR named in {found}"


def test_subtrees_and_light_cones_are_walked_in_one_loop():
    # one BFS over the adjacency, ``trees._walk``, gives the subtree mask,
    # the subtree that (<= t)-stability enumerates around, and both halves
    # of every pinned light cone; stability and probe slice no neighbour row
    callers = _scopes(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "_walk"
    )
    assert sorted(callers) == [
        "RootedTree.subtree_mask",
        "_PinnedSubtree.__init__",
        "_PinnedSubtree.__init__",
        "is_le_t_stable",
    ], callers
    path = Path(majlab.__file__).parent / "stability.py"
    stability = ast.parse(path.read_text(encoding="utf-8"))
    (pinned,) = [
        node
        for node in stability.body
        if isinstance(node, ast.ClassDef) and node.name == "_PinnedSubtree"
    ]
    (init,) = [
        node
        for node in pinned.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(init))
    adjacency = {"neighbours", "children", "adj_flat", "adj_offsets"}
    probe = ast.parse((path.parent / "probe.py").read_text(encoding="utf-8"))
    for module in (stability, probe):
        assert not set().union(*map(_names, ast.walk(module))) & adjacency


def test_claims_steps_trajectories_through_one_seam():
    # every sampled trajectory runs in one forest per chunk and is read
    # through views of that run, not a per-instance result; weak verdicts
    # come from the recorded history, not a re-run of the host
    path = Path(majlab.__file__).parent / "claims.py"
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            top = isinstance(child, (ast.FunctionDef, ast.ClassDef)) and not scope
            inner = child.name if top else scope
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                calls.append((child.func.id, inner))
            visit(child, inner)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    visit(tree, "")
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "is_weakly_t_stable" not in imported
    assert not [scope for name, scope in calls if name == "is_weakly_t_stable"]
    callers = [scope for name, scope in calls if name == "stabilise"]
    assert callers == ["_stabilise_each"], f"stabilise called from {callers}"
    assert "StabilisationResult" not in set().union(*map(_names, ast.walk(tree)))


def _imported_names(module: str) -> set[str]:
    path = Path(majlab.__file__).parent / module
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_extensions_are_laid_out_in_one_place():
    # every enumeration of a subject's extensions runs on ``_Extensions``:
    # it alone builds the outside's truth-table columns, probe and claims
    # rebuild no extension vector, and probe decides no pattern through a
    # public decider
    callers = _scopes(
        lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "tt_column",
        "bitsliced.py",
    )
    assert callers == ["_Extensions.__init__"], callers
    deleted = {"_extension_batch", "_extension_vector", "_enumerated_verdict", "_enumerated_flips"}
    deciders = {
        name for name in majlab._EXPORTS["stability"] if name.startswith("is_") or name.endswith("_runs")
    }
    assert not (_imported_names("probe.py") | _imported_names("claims.py")) & deleted
    assert not _imported_names("probe.py") & deciders



def test_runs_are_built_in_two_layouts():
    # one BatchRun constructor, called by the two layouts alone: every
    # exhaustive enumeration (brute force included) lays its lanes out
    # through ``_Extensions``, and truth-table columns come from it and
    # from the probes' exhaustive pattern columns
    def called(name):
        return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name

    assert sorted(_scopes(called("BatchRun"))) == ["_Extensions.run", "_PinnedSubtree.run"]
    assert sorted(_scopes(called("tt_column"))) == ["_Extensions.__init__", "_pattern_cols"]
    assert not _scopes(
        lambda node: isinstance(node, ast.FunctionDef) and node.name in {"over", "_begin"}
    )


def test_stream_positions_are_reckoned_in_one_scope():
    # the Monte Carlo probes read the generator's uint64 stream by position:
    # only the pattern columns skip along it, and only they and the 1-close
    # span draw take uint64 words from it
    def advance(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("bit_generator.advance")

    def uint64_draw(node):
        return (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith(".integers")
            and any(ast.unparse(kw.value) == "np.uint64" for kw in node.keywords)
        )

    assert _scopes(advance) == ["_pattern_cols"]
    assert sorted(_scopes(uint64_draw)) == ["_one_close_count", "_pattern_cols"]


def test_one_scope_forks_a_pool():
    # check-claims, mc-tau and prob fork their workers through one helper,
    # on bare os.fork: no module names a pool module
    def fork(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "fork"

    def imports_a_pool_module(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] in {"concurrent", "multiprocessing"}
        return isinstance(node, ast.alias) and node.name.split(".")[0] in {
            "concurrent", "multiprocessing"
        }

    assert _scopes(fork) == ["_fork_map"]
    assert not _scopes(imports_a_pool_module)


def test_one_scope_sizes_the_pool():
    # every pooled command hands _fork_map its jobs alone, and it alone
    # reads the usable CPUs
    def reads_cpus(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "_usable_cpus"

    def pooled(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "_fork_map"

    assert _scopes(reads_cpus) == ["_fork_map"]
    assert sorted(_scopes(pooled)) == ["_probability", "mc_tau", "run_claim_suites"]
    assert list(inspect.signature(majlab.probe._fork_map).parameters) == ["fn", "jobs"]


def test_cli_writes_result_types_without_restating_them():
    # prob, stability and fixed-point write their result type's fields, so
    # no key that only a result type defines is spelled out in the CLI
    path = Path(majlab.__file__).parent / "cli.py"
    strings = {
        node.value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    fields = {"ci_halfwidth", "denominator", "unresolved", "residual",
              "iterations", "tolerance", "checked", "certificate"}
    assert not strings & fields
    # and prob reaches the probe through one call path
    assert not _imported_names("cli.py") & {"estimate_probability", "le_t_positive_check"}


def test_witness_reuses_the_tree_rooting():
    # the witness walks the tree's own parent chain, not a second BFS
    assert not _imported_names("worstcase.py") & {"_bfs_tree", "_child_csr"}


def test_generated_trees_skip_the_generic_build():
    # random_odd_tree builds its arrays from its own parent draws: no
    # generated tree falls back onto edge checks, the CSR sorts or the BFS
    path = Path(majlab.__file__).parent / "treegen.py"
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Attribute, ast.Name))
    } | _imported_names("treegen.py")
    assert not names & {"from_edges", "_bfs_tree", "_build_csr", "_child_csr", "_finish"}


def test_bitsliced_has_one_majority_step_loop():
    # BatchRun holds its passive vertices inside the one step loop,
    # ``batch_step``, which it calls once a step: the hold is never a
    # second, forked copy of the majority step
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def calls(node, name):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == name

    def majority_loop(node):
        return isinstance(node, loops) and any(calls(n, "bit_majority") for n in ast.walk(node))

    assert _scopes(majority_loop) == ["batch_step"]
    assert _scopes(lambda node: calls(node, "bit_majority")) == ["batch_step"]
    assert _scopes(lambda node: calls(node, "batch_step")) == ["BatchRun.advance"]


def test_class_codes_compare_with_plain_ints():
    # numpy probes an IntEnum member's type for array methods on every
    # comparison with an int8 array, so code arrays meet plain ints only
    compared = [
        f"{name}:{node.lineno}"
        for name in ("worstcase.py", "claims.py")
        for node in ast.walk(ast.parse((Path(majlab.__file__).parent / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for side in [node.left, *node.comparators]
        if ast.unparse(side).startswith("VertexClass.")
    ]
    assert not compared, compared


def test_each_fact_is_stated_once():
    # ``majlab._EXPORTS`` is the one list of public names, and claims reads
    # a binary host's subtrees from its record, not from a fresh walk or a
    # tree-only accessor
    package = Path(majlab.__file__).parent
    assigned = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert not assigned, f"__all__ assigned in {assigned}"
    claims = ast.parse((package / "claims.py").read_text(encoding="utf-8"))
    spelled = set().union(*map(_names, ast.walk(claims)))
    assert not spelled & {"subtree_mask", "_binary_host"}


def test_sources_parse_as_python_3_10():
    # Python 3.10 is the floor: no ``except*``, ``type`` alias or PEP 695
    # generic, which 3.11 and later would parse
    root = Path(__file__).resolve().parents[1]
    paths = sorted(path for top in ("src", "tests", "perfbench") for path in (root / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
