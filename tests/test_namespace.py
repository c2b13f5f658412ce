"""The package namespace: the exported names, where each one lives, and
that ``pebbling.<name>`` always reads the defining module's attribute."""

import importlib

import pytest

import pebbling
from pebbling import solver

# The public surface, frozen: module -> the names ``pebbling`` exports from it.
EXPORTS = {
    "configs": [
        "Config", "config_from_json", "config_from_pairs", "config_from_text",
        "config_to_text", "enumerate_configs", "enumerate_configs_with_support",
        "extract_blocks", "extract_single_block", "reduced_size", "size", "support",
        "support_count",
    ],
    "errors": ["PebblingError"],
    "flows": [
        "PebbleFlow", "flow_from_steps", "flow_from_text", "flow_to_text", "is_feasible",
        "is_realized", "realize", "solve_via_flow", "unidirectional",
    ],
    "formulas": [
        "classify_diameter2", "config_count", "diameter2_bound", "max_path_partition",
        "pi_complete", "pi_complete_bipartite", "pi_cycle", "pi_grid", "pi_instar",
        "pi_tree", "pi_weighted_hypercube",
    ],
    "graphs": [
        "Graph", "Homomorphism", "arrow_divisor_hom", "arrow_graph", "cartesian_product",
        "complete_bipartite_graph", "complete_graph", "cycle_graph", "divisor_lattice",
        "graph_from_text", "grid_graph", "hypercube_graph", "instar_graph", "lemke_graph",
        "make_family", "path_graph", "petersen_graph", "pullback_config",
        "pushforward_steps", "star_graph", "validate_homomorphism",
    ],
    "smv": ["emit_2pp_model", "emit_pebbling_model"],
    "solver": [
        "SolveResult", "apply_step", "has_2pp", "is_solvable", "optimal_pebbling_number",
        "pebbling_number", "pebbling_number_graph", "replay", "verify_tau",
    ],
    "weights": [
        "LinearProgram", "WeightFunction", "covering_bound", "cycle_weight_functions",
        "lp_bound", "random_weight_function", "simplex_max", "validate_weight_function",
        "wfl_solve",
    ],
    "zerosum": [
        "divisor_zero_sum", "erdos_lemke", "gcd_zero_sum", "pebbling_construction",
        "zero_sum_mod",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_the_surface_has_eighty_names():
    assert len(NAMES) == len(set(NAMES)) == 80


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in EXPORTS.items() for n in names], ids=NAMES
)
def test_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"pebbling.{module}")
    assert getattr(pebbling, name) is getattr(home, name)


def test_star_import_binds_exactly_the_surface():
    scope = {}
    exec("from pebbling import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == sorted(NAMES)
    assert sorted(pebbling.__all__) == sorted(NAMES)


def test_dir_lists_the_surface():
    assert set(NAMES) <= set(dir(pebbling))


def test_submodule_names_resolve_to_the_submodules():
    assert pebbling.solver is importlib.import_module("pebbling.solver")
    assert pebbling.cli is importlib.import_module("pebbling.cli")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pebbling.no_such_name  # noqa: B018
    assert not hasattr(pebbling, "solvable_quick")  # in solver, not exported


def test_a_name_replaced_in_its_module_is_what_the_package_returns(monkeypatch):
    original = solver.is_solvable

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "is_solvable", replacement)
    assert pebbling.is_solvable is replacement
    monkeypatch.undo()
    assert pebbling.is_solvable is original
    assert "is_solvable" not in vars(pebbling)
