"""Bad input fails with PebblingError at the library boundary, naming
what is wrong, instead of a bare ValueError, an IndexError or a wrong
answer."""

import random
from fractions import Fraction

import pytest

from pebbling.cli import _load_steps
from pebbling.configs import config_from_json, config_from_pairs, config_from_text
from pebbling.errors import PebblingError
from pebbling.flows import PebbleFlow, flow_from_text, solve_via_flow
from pebbling.formulas import pi_tree
from pebbling.graphs import (
    Graph,
    Homomorphism,
    bfs_distances,
    cycle_graph,
    graph_from_text,
    make_family,
    path_graph,
)
from pebbling.solver import (
    apply_step,
    find_unsolvable,
    is_solvable,
    pebbling_number,
    replay,
    verify_tau,
)
from pebbling.weights import (
    WeightFunction,
    cycle_weight_functions,
    random_weight_function,
    weight_function_from_text,
    wfl_solve,
)
from pebbling.zerosum import pebbling_construction


def _steps_file(tmp_path, text):
    path = tmp_path / "steps.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "call, message",
    [
        # a malformed number in each of the five line readers
        (lambda tmp: graph_from_text("vertices x\n"),
         "malformed number in graph line: 'vertices x'"),
        (lambda tmp: config_from_text("pebbles 0 x\n", 3),
         "malformed number in configuration line: 'pebbles 0 x'"),
        (lambda tmp: flow_from_text(path_graph(3), "flow 0 1 x\n"),
         "malformed number in flow line: 'flow 0 1 x'"),
        (lambda tmp: weight_function_from_text("target 0\nw 1 x\n", 4),
         "malformed number in weight line: 'w 1 x'"),
        (lambda tmp: _load_steps(_steps_file(tmp, "step 0 x\n")),
         "malformed number in step line: 'step 0 x'"),
        # JSON that does not decode, cut short or nested past the parser
        (lambda tmp: config_from_json("[1, 2", 2), "malformed JSON configuration"),
        (lambda tmp: config_from_json("[" * 100_000, 2), "malformed JSON configuration"),
        # a configuration shorter than the vertex count
        (lambda tmp: replay(path_graph(3), (4, 0), [(0, 1)]),
         "configuration has 2 entries for 3 vertices"),
        (lambda tmp: apply_step(path_graph(3), (4,), 0, 1),
         "configuration has 1 entries for 3 vertices"),
        (lambda tmp: wfl_solve(cycle_graph(4), cycle_weight_functions(4, 0)[0], (0, 4)),
         "configuration has 2 entries for 4 vertices"),
        # a family descriptor with the wrong number of arguments
        (lambda tmp: make_family("cycle:3"), "cycle takes 2 arguments, got 'cycle:3'"),
        (lambda tmp: make_family("arrow"), "arrow takes 1 argument, got 'arrow'"),
        (lambda tmp: make_family("petersen:3"),
         "petersen takes 0 arguments, got 'petersen:3'"),
    ],
)
def test_bad_input_raises_pebbling_error(tmp_path, call, message):
    with pytest.raises(PebblingError) as info:
        call(tmp_path)
    assert message in str(info.value)


def test_negative_pebble_count_is_rejected():
    # Firing vertex 4 twice would reach the target, but c is no configuration.
    g = cycle_graph(5)
    c = (-1, 0, 0, 0, 9)
    for call in (
        lambda: is_solvable(g, c, 0, 1),
        lambda: solve_via_flow(g, c, 0, 1),
        lambda: PebbleFlow(g, c, {}),
    ):
        with pytest.raises(PebblingError, match="non-negative integers"):
            call()


def _union(u, v, sets):
    return frozenset().union(*sets)


# (entry, vertex count, call with the vertex id): every public entry that
# takes a vertex.  Each is called with -1 and with the vertex count.
VERTEX_ENTRIES = [
    ("is_solvable", 3, lambda v: is_solvable(path_graph(3), (1, 1, 1), v, 1)),
    ("solve_via_flow", 3, lambda v: solve_via_flow(path_graph(3), (1, 1, 1), v, 1)),
    ("find_unsolvable", 3, lambda v: find_unsolvable(path_graph(3), v, 1, 2)),
    ("pebbling_number", 3, lambda v: pebbling_number(path_graph(3), v)),
    ("verify_tau", 3, lambda v: verify_tau(path_graph(3), v, 1, 2, 3, 1)),
    ("Graph", 3, lambda v: Graph(3, ((0, v, 2),))),
    ("Graph.cost_to", 3, lambda v: path_graph(3).cost_to(v)),
    ("bfs_distances", 3, lambda v: bfs_distances(path_graph(3), v)),
    ("config_from_pairs", 3, lambda v: config_from_pairs(3, [(0, 1), (v, 1)])),
    ("WeightFunction", 3, lambda v: WeightFunction(v, (Fraction(0),) * 3)),
    ("cycle_weight_functions", 4, lambda v: cycle_weight_functions(4, v)),
    ("weight_function_from_text target", 4,
     lambda v: weight_function_from_text(f"target {v}\nw 1 1\n", 4)),
    ("weight_function_from_text w", 4,
     lambda v: weight_function_from_text(f"target 0\nw {v} 1\n", 4)),
    ("random_weight_function", 5,
     lambda v: random_weight_function(cycle_graph(5), v, random.Random(1))),
    ("pi_tree", 3, lambda v: pi_tree(path_graph(3), v)),
    ("Homomorphism", 2, lambda v: Homomorphism(path_graph(2), path_graph(2), (0, v))),
    ("pebbling_construction target", 2,
     lambda v: pebbling_construction(path_graph(2), v, [0, 0], _union, [(0, 1)])),
    ("pebbling_construction starts", 2,
     lambda v: pebbling_construction(path_graph(2), 1, [0, v], _union, [])),
]


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize(
    "nv, call", [entry[1:] for entry in VERTEX_ENTRIES], ids=[e[0] for e in VERTEX_ENTRIES]
)
def test_vertex_outside_graph_raises_pebbling_error(nv, call, side):
    # One message shape from configs.check_vertices: the id and the range.
    v = -1 if side == "below" else nv
    with pytest.raises(PebblingError, match=rf" {v} is not a vertex \(0\.\.{nv - 1}\)$"):
        call(v)


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        (2, ((0, 1, 2.5),)),  # was a TypeError inside math.lcm
        (2, ((0.0, 1, 2),)),  # was "list indices must be integers"
        (2, ((0, True, 2),)),
        (2.0, ((0, 1, 2),)),  # was "can't multiply sequence"
        (True, ()),
    ],
)
def test_graph_rejects_fields_that_are_not_ints(vertex_count, edges):
    with pytest.raises(PebblingError, match="int"):
        Graph(vertex_count, edges)
