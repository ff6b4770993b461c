"""majlab: synchronous majority dynamics on odd-degree trees.

Exact worst-case stabilisation analysis with constructive witnesses,
stability predicates with certificates, and probability estimation by
exhaustive enumeration, Monte Carlo, and fixed-point bisection.

Public names resolve on first access (PEP 562), so ``import majlab`` loads
no submodule, and a CLI command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines, which ``majlab.<name>``
# and ``from majlab import <name>`` reach; every submodule is also reachable
# as ``majlab.<submodule>``.  This is the one list of public names: no
# submodule sets ``__all__``.
_EXPORTS = {
    "artifacts": (),
    "bitsliced": ("EXTENSION_BUDGET",),
    "claims": (
        "ALL_SUITES", "ClaimReport", "STRUCTURAL_SUITES", "run_claim_suites",
        "weak_definition_sweep",
    ),
    "cli": (),
    "dynamics": (
        "OpinionVector", "StabilisationResult", "is_stable_partition", "is_t_stable",
        "stabilise", "step", "step_budget",
    ),
    "errors": (
        "BadHostError", "BadPathError", "BadTimeError", "BadVertexError",
        "BudgetExceededError", "DegreeParityError", "InvariantViolationError",
        "LengthMismatchError", "MajlabError", "NotATreeError", "OpinionFormatError",
        "PartitionError", "TooSmallError", "TreeFormatError",
    ),
    "probe": (
        "FixedPointResult", "McSummary", "ProbEstimate", "estimate_probability",
        "fixed_point_q", "mc_tau", "trial_seed",
    ),
    "stability": (
        "StabilityVerdict", "is_le_t_stable", "is_one_close_to_stability",
        "is_strongly_t_stable", "is_weakly_t_stable",
    ),
    "treegen": ("random_even_size", "random_odd_tree"),
    "trees": (
        "RootedTree", "VertexClass", "build_perfect_tree", "classify_all",
        "classify_vertex", "load_tree", "reroot", "save_tree", "tree_from_text",
        "tree_to_text",
    ),
    "worstcase": (
        "BRUTE_FORCE_BUDGET", "CandidatePath", "WorstCaseReport", "active_path_bounds",
        "brute_force_tau", "worst_case_tau", "worst_case_witness",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
