"""Graph pebbling toolkit: exact solvers, flow and weight-function bounds,
closed-form formulas, zero-sum constructions, and model-checker emission.

``import pebbling`` loads no submodule.  The first use of an exported name
imports the module that defines it (PEP 562).  Every access reads the
module's current attribute, nothing is cached here, so a name replaced in
its module (a tracer, ``monkeypatch``) is what ``pebbling.<name>`` returns.
"""

import importlib

# The public surface: each submodule and the names it exports.
_EXPORTS = {
    # configurations: building, parsing, printing and enumerating them
    "configs": (
        "Config",
        "config_from_json",
        "config_from_pairs",
        "config_from_text",
        "config_to_text",
        "enumerate_configs",
        "enumerate_configs_with_support",
        "extract_blocks",
        "extract_single_block",
        "reduced_size",
        "size",
        "support",
        "support_count",
    ),
    # the one error every bad input raises
    "errors": ("PebblingError",),
    # the flow decider and its certificates
    "flows": (
        "PebbleFlow",
        "flow_from_steps",
        "flow_from_text",
        "flow_to_text",
        "is_feasible",
        "is_realized",
        "realize",
        "solve_via_flow",
        "unidirectional",
    ),
    # closed forms, the tests' oracles
    "formulas": (
        "classify_diameter2",
        "config_count",
        "diameter2_bound",
        "max_path_partition",
        "pi_complete",
        "pi_complete_bipartite",
        "pi_cycle",
        "pi_grid",
        "pi_instar",
        "pi_tree",
        "pi_weighted_hypercube",
    ),
    # graphs, named families, products and homomorphisms
    "graphs": (
        "Graph",
        "Homomorphism",
        "arrow_divisor_hom",
        "arrow_graph",
        "cartesian_product",
        "complete_bipartite_graph",
        "complete_graph",
        "cycle_graph",
        "divisor_lattice",
        "graph_from_text",
        "grid_graph",
        "hypercube_graph",
        "instar_graph",
        "lemke_graph",
        "make_family",
        "path_graph",
        "petersen_graph",
        "pullback_config",
        "pushforward_steps",
        "star_graph",
        "validate_homomorphism",
    ),
    # model-checker input
    "smv": ("emit_2pp_model", "emit_pebbling_model"),
    # the configuration-space decider and the exhaustive walks over it
    "solver": (
        "SolveResult",
        "apply_step",
        "has_2pp",
        "is_solvable",
        "optimal_pebbling_number",
        "pebbling_number",
        "pebbling_number_graph",
        "replay",
        "verify_tau",
    ),
    # weight functions and the exact simplex behind their bounds
    "weights": (
        "LinearProgram",
        "WeightFunction",
        "covering_bound",
        "cycle_weight_functions",
        "lp_bound",
        "random_weight_function",
        "simplex_max",
        "validate_weight_function",
        "wfl_solve",
    ),
    # zero-sum subsets replayed along lattice solutions
    "zerosum": (
        "divisor_zero_sum",
        "erdos_lemke",
        "gcd_zero_sum",
        "pebbling_construction",
        "zero_sum_mod",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
_SUBMODULES = {*_EXPORTS, "cli"}


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:  # importing it binds it here, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
