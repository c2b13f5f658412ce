"""Bad input fails with PebblingError at the library boundary, naming
what is wrong, instead of a bare ValueError, an IndexError or a wrong
answer."""

import random
import re
from fractions import Fraction

import pytest

from pebbling.cli import _load_steps
from pebbling.configs import (
    config_from_json,
    config_from_pairs,
    config_from_text,
    enumerate_configs,
    enumerate_configs_with_support,
    extract_blocks,
    extract_single_block,
    reduced_size,
)
from pebbling.errors import PebblingError
from pebbling.flows import PebbleFlow, flow_from_steps, flow_from_text, solve_via_flow
from pebbling.formulas import (
    classify_diameter2,
    config_count,
    pi_complete,
    pi_complete_bipartite,
    pi_cycle,
    pi_grid,
    pi_instar,
    pi_tree,
    pi_weighted_hypercube,
)
from pebbling.graphs import (
    Graph,
    Homomorphism,
    arrow_divisor_hom,
    arrow_graph,
    bfs_distances,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    divisor_lattice,
    graph_from_text,
    grid_graph,
    hypercube_graph,
    instar_graph,
    least_prime_factor,
    make_family,
    path_graph,
    pullback_config,
    pushforward_steps,
    star_graph,
    validate_homomorphism,
)
from pebbling.smv import emit_2pp_model, emit_pebbling_model
from pebbling.solver import (
    apply_step,
    find_unsolvable,
    has_2pp,
    is_solvable,
    pebbling_number,
    pebbling_number_graph,
    replay,
    verify_tau,
)
from pebbling.weights import (
    WeightFunction,
    cycle_weight_functions,
    lp_bound,
    random_weight_function,
    weight_function_from_text,
    wfl_solve,
)
from pebbling.zerosum import (
    divisor_zero_sum,
    erdos_lemke,
    gcd_zero_sum,
    pebbling_construction,
    zero_sum_mod,
)


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
        # one row for each input check that no other test reaches
        (lambda tmp: make_family("cycle:a:2"), "bad size: 'a'"),
        (lambda tmp: extract_single_block((3, 0), 1, 2), "block size n must not exceed k"),
        (lambda tmp: config_from_json('{"a": 1}', 2), "JSON configuration must be a list"),
        (lambda tmp: pi_tree(Graph(4, complete_graph(3).edges), 0),
         "tree skeleton must be connected"),
        (lambda tmp: pi_grid([]), "grid needs at least one dimension"),
        (lambda tmp: grid_graph([]), "grid needs at least one dimension"),
        (lambda tmp: Homomorphism(path_graph(3), path_graph(3), (0, 1)),
         "mapping must cover every source vertex"),
        (lambda tmp: pullback_config(Homomorphism(path_graph(2), path_graph(3), (0, 1)), (1, 1, 1)),
         "pullback needs a surjective homomorphism"),
        (lambda tmp: WeightFunction(0, (0, -1)), "weights must be non-negative"),
        (lambda tmp: wfl_solve(path_graph(3), WeightFunction(0, (0, 0, 1)), (0, 0, 4)),
         "invalid weight function"),
    ],
)
def test_bad_input_raises_pebbling_error(tmp_path, call, message):
    with pytest.raises(PebblingError) as info:
        call(tmp_path)
    assert message in str(info.value)


def test_homomorphism_with_a_weight_mismatch_is_not_valid():
    # The edge 0 -> 1 has weight 2 in the source and 3 in the target.
    assert not validate_homomorphism(Homomorphism(path_graph(2), path_graph(2, 3), (0, 1)))


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
    ("lp_bound", 4, lambda v: lp_bound(cycle_graph(4), v, list(cycle_weight_functions(4, 0)))),
    ("pi_tree", 3, lambda v: pi_tree(path_graph(3), v)),
    ("Homomorphism", 2, lambda v: Homomorphism(path_graph(2), path_graph(2), (0, v))),
    ("pebbling_construction target", 2,
     lambda v: pebbling_construction(path_graph(2), v, [0, 0], _union, [(0, 1)])),
    ("pebbling_construction starts", 2,
     lambda v: pebbling_construction(path_graph(2), 1, [0, v], _union, [])),
    # every step end and flow key goes through Graph.weight
    ("apply_step", 3, lambda v: apply_step(path_graph(3), (0, 4, 0), v, 2)),
    ("replay", 3, lambda v: replay(path_graph(3), (4, 0, 0), [(0, v)])),
    ("flow_from_steps", 3, lambda v: flow_from_steps(path_graph(3), (0, 4, 0), [(v, 2)])),
    ("pebbling_construction steps", 2,
     lambda v: pebbling_construction(path_graph(2), 1, [0, 0], _union, [(0, v)])),
    ("pushforward_steps", 2,
     lambda v: pushforward_steps(Homomorphism(path_graph(2), path_graph(2), (0, 1)), [(v, 1)])),
    ("PebbleFlow", 3, lambda v: PebbleFlow(path_graph(3), (4, 0, 0), {(0, v): 1})),
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


def _cost_to_after_a_hit(v):
    g = path_graph(3)
    g.cost_to(1)  # a cached target must not let an equal non-int through
    return g.cost_to(v)


# Entries whose vertex ids come from a text line are parsed as ints.
TYPED_VERTEX_ENTRIES = [e for e in VERTEX_ENTRIES if "from_text" not in e[0]] + [
    ("Graph.cost_to cached", 3, _cost_to_after_a_hit),
]


@pytest.mark.parametrize("v", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "nv, call",
    [entry[1:] for entry in TYPED_VERTEX_ENTRIES],
    ids=[e[0] for e in TYPED_VERTEX_ENTRIES],
)
def test_vertex_that_is_not_an_int_raises_pebbling_error(nv, call, v):
    # 1.0 and True equal the vertex 1, which every graph here has.
    with pytest.raises(PebblingError, match=rf" {v} is not a vertex \(0\.\.{nv - 1}\)$"):
        call(v)


# (entry, what the message names, minimum, a valid value, call with the
# value): every public entry that takes an integer other than a vertex id.
INT_ENTRIES = [
    ("reduced_size k", "k", 1, 2, lambda x: reduced_size((1, 2), x)),
    ("extract_blocks k", "k", 1, 1, lambda x: extract_blocks((2, 1), x, 1)),
    ("extract_blocks n", "n", 0, 1, lambda x: extract_blocks((2, 1), 1, x)),
    ("extract_single_block k", "k", 1, 1, lambda x: extract_single_block((2, 0), x, 0)),
    ("extract_single_block n", "n", 0, 0, lambda x: extract_single_block((0, 0), 2, x)),
    ("enumerate_configs vertex_count", "vertex count", 1, 2,
     lambda x: list(enumerate_configs(x, 1))),
    ("enumerate_configs total", "size", 0, 1, lambda x: list(enumerate_configs(2, x))),
    ("enumerate_configs_with_support vertex_count", "vertex count", 1, 2,
     lambda x: list(enumerate_configs_with_support(x, 1, 1))),
    ("enumerate_configs_with_support support_size", "support size", 0, 1,
     lambda x: list(enumerate_configs_with_support(2, 1, x))),
    ("config_from_pairs vertex_count", "vertex count", 1, 2,
     lambda x: config_from_pairs(x, [(0, 1)])),
    ("config_from_pairs count", "pebble count", 0, 1, lambda x: config_from_pairs(2, [(0, x)])),
    ("config_from_json vertex_count", "vertex count", 1, 2,
     lambda x: config_from_json("[1, 0]", x)),
    ("is_solvable n", "n", 0, 1, lambda x: is_solvable(path_graph(3), (4, 0, 0), 2, x)),
    ("solve_via_flow n", "n", 0, 1, lambda x: solve_via_flow(path_graph(3), (4, 0, 0), 2, x)),
    ("find_unsolvable n", "n", 0, 1, lambda x: find_unsolvable(path_graph(3), 0, x, 2)),
    ("find_unsolvable p", "size p", 0, 2, lambda x: find_unsolvable(path_graph(3), 0, 1, x)),
    ("find_unsolvable jobs", "jobs", 1, 1,
     lambda x: find_unsolvable(path_graph(3), 0, 1, 2, jobs=x)),
    ("pebbling_number n", "n", 1, 1, lambda x: pebbling_number(path_graph(3), 0, x)),
    ("pebbling_number jobs", "jobs", 1, 1,
     lambda x: pebbling_number(path_graph(3), 0, 1, jobs=x)),
    ("pebbling_number_graph jobs", "jobs", 1, 1,
     lambda x: pebbling_number_graph(path_graph(3), jobs=x)),
    ("has_2pp pi", "pebbling number", 1, 4, lambda x: has_2pp(path_graph(3), x)),
    ("verify_tau n", "n", 0, 1, lambda x: verify_tau(path_graph(3), 0, x, 2, 3, 1)),
    ("verify_tau k", "k", 1, 2, lambda x: verify_tau(path_graph(3), 0, 1, x, 3, 1)),
    ("verify_tau p", "p", -1, 3, lambda x: verify_tau(path_graph(3), 0, 1, 2, x, 1)),
    ("verify_tau m_max", "m_max", 0, 1, lambda x: verify_tau(path_graph(3), 0, 1, 2, 3, x)),
    ("pi_complete n", "n", 1, 3, lambda x: pi_complete(x, 2)),
    ("pi_complete k", "k", 1, 2, lambda x: pi_complete(3, x)),
    ("pi_tree k", "k", 2, 2, lambda x: pi_tree(path_graph(3), 0, x)),
    ("pi_tree n", "n", 1, 1, lambda x: pi_tree(path_graph(3), 0, 2, x)),
    ("pi_cycle", "cycle size", 3, 4, pi_cycle),
    ("pi_weighted_hypercube", "weight", 2, 2, lambda x: pi_weighted_hypercube([2, x])),
    ("pi_grid size", "size", 1, 2, lambda x: pi_grid([(x, 2)])),
    ("pi_grid weight", "weight", 2, 2, lambda x: pi_grid([(2, x)])),
    ("pi_complete_bipartite m", "m", 2, 2, lambda x: pi_complete_bipartite(x, 2)),
    ("pi_complete_bipartite n", "n", 2, 2, lambda x: pi_complete_bipartite(2, x)),
    ("pi_instar n", "n", 1, 2, lambda x: pi_instar(x, 2)),
    ("pi_instar k", "k", 2, 2, lambda x: pi_instar(2, x)),
    ("config_count n", "n", 1, 2, lambda x: config_count(x, 2)),
    ("config_count k", "k", 0, 2, lambda x: config_count(2, x)),
    ("classify_diameter2 jobs", "jobs", 1, 1,
     lambda x: classify_diameter2(cycle_graph(5), jobs=x)),
    ("Graph vertex_count", "vertex count", 1, 2, lambda x: Graph(x, ((0, 1, 2),))),
    ("Graph weight", "edge (0,1) weight", 2, 2, lambda x: Graph(2, ((0, 1, x),))),
    ("complete_graph n", "size", 1, 2, complete_graph),
    ("complete_graph k", "weight", 2, 2, lambda x: complete_graph(1, x)),
    ("cycle_graph m", "size", 3, 3, cycle_graph),
    ("cycle_graph k", "weight", 2, 2, lambda x: cycle_graph(3, x)),
    ("path_graph n", "size", 1, 2, path_graph),
    ("path_graph k", "weight", 2, 2, lambda x: path_graph(1, x)),
    ("star_graph leaves", "leaves", 1, 2, star_graph),
    ("star_graph k", "weight", 2, 2, lambda x: star_graph(1, x)),
    ("instar_graph leaves", "leaves", 1, 2, lambda x: instar_graph(x, 2)),
    ("instar_graph k", "edge (1,0) weight", 2, 2, lambda x: instar_graph(1, x)),
    ("arrow_graph k", "edge (0,1) weight", 2, 2, arrow_graph),
    ("complete_bipartite_graph m", "m", 1, 1, lambda x: complete_bipartite_graph(x, 1)),
    ("complete_bipartite_graph n", "n", 1, 1, lambda x: complete_bipartite_graph(1, x)),
    ("complete_bipartite_graph k", "weight", 2, 2,
     lambda x: complete_bipartite_graph(1, 1, x)),
    ("divisor_lattice", "n", 1, 6, divisor_lattice),
    ("least_prime_factor", "n", 2, 6, least_prime_factor),
    ("arrow_divisor_hom", "n", 2, 6, arrow_divisor_hom),
    ("hypercube_graph", "weight", 2, 2, lambda x: hypercube_graph([2, x])),
    ("grid_graph size", "size", 1, 2, lambda x: grid_graph([(2, 2), (x, 2)])),
    ("grid_graph weight", "weight", 2, 2, lambda x: grid_graph([(2, 2), (2, x)])),
    ("emit_pebbling_model", "pebble count", 0, 2,
     lambda x: emit_pebbling_model(path_graph(2), x)),
    ("emit_2pp_model", "pebbling number", 1, 2, lambda x: emit_2pp_model(path_graph(2), x)),
    ("zero_sum_mod", "modulus", 1, 2, lambda x: zero_sum_mod([1, 1], x)),
    ("divisor_zero_sum n", "n", 1, 2, lambda x: divisor_zero_sum(x, [1, 1])),
    ("gcd_zero_sum n", "n", 1, 2, lambda x: gcd_zero_sum(x, [1, 1])),
    ("erdos_lemke n", "n", 1, 2, lambda x: erdos_lemke(x, 2, [1, 1])),
    ("cycle_weight_functions", "cycle size", 3, 4, lambda x: cycle_weight_functions(x, 0)),
    ("weight_function_from_text vertex_count", "vertex count", 1, 2,
     lambda x: weight_function_from_text("target 0\n", x)),
    ("PebbleFlow count", "flow count", 0, 1,
     lambda x: PebbleFlow(path_graph(3), (4, 0, 0), {(0, 1): x})),
]


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize(
    "what, minimum, valid, call", [e[1:] for e in INT_ENTRIES], ids=[e[0] for e in INT_ENTRIES]
)
def test_integer_that_is_not_an_int_or_too_small_raises_pebbling_error(
    what, minimum, valid, call, kind
):
    # One message shape from configs.check_int.  The valid value passes,
    # so the error is the argument's; a float equal to it does not.
    call(valid)
    x = {"float": float(valid), "bool": True, "below": minimum - 1}[kind]
    message = rf"^{re.escape(what)} must be an int >= {minimum}, got {re.escape(repr(x))}$"
    with pytest.raises(PebblingError, match=message):
        call(x)


@pytest.mark.parametrize(
    "call, message",
    [
        # without the checks each of these returns an answer
        (lambda: find_unsolvable(path_graph(3), 0, 1, 2.5), "size p must be an int >= 0"),
        (lambda: is_solvable(path_graph(3), (4, 0, 0), 2, 1.5), "n must be an int >= 0"),
        (lambda: is_solvable(path_graph(3), (4, 0, 0), True, 1), "target True is not a vertex"),
        (lambda: pi_cycle(4.5), "cycle size must be an int >= 3"),
        (lambda: extract_single_block((0, 0), 2, -1), "n must be an int >= 0"),
        (lambda: verify_tau(path_graph(3), 0, 1, 1, -3, 0), "p must be an int >= -1"),
        (lambda: config_from_pairs(3, [(0, 1.5)]), "pebble count must be an int >= 0"),
        (lambda: list(enumerate_configs_with_support(2, 1.5, 1)), "size must be an int >= 0"),
        (lambda: list(enumerate_configs_with_support(2, True, 1)), "size must be an int >= 0"),
        (lambda: divisor_zero_sum(2, [1, 1.0]), "1.0 is not a divisor of 2"),
        (lambda: erdos_lemke(4, 2.0, [1, 1]), "2.0 is not a divisor of 4"),
        (lambda: erdos_lemke(4, 3, [1, 1, 1]), "3 is not a divisor of 4"),
        # divisors are checked once per distinct value, after a type pass:
        # in a set True merges with 1 and 2.0 with 2
        (lambda: divisor_zero_sum(2, [1, True]), "True is not a divisor of 2"),
        (lambda: divisor_zero_sum(4, [2, 2.0, 1, 1]), "2.0 is not a divisor of 4"),
        (lambda: divisor_zero_sum(2, [1, 0]), "0 is not a divisor of 2"),
        (lambda: divisor_zero_sum(2, [-1, 1]), "-1 is not a divisor of 2"),
        (lambda: divisor_zero_sum(6, [1, 2, 3, 6, 4, 5]), "4 is not a divisor of 6"),
        (lambda: erdos_lemke(6, 6, [1, 2, 3, 6, True, 0]), "True is not a divisor of 6"),
        (lambda: erdos_lemke(12, 6, [1, 2, 3, 6, 12, 5]), "5 is not a divisor of 12"),
        (lambda: gcd_zero_sum(2, [1.0, 1]), "entries must be positive ints"),
        (lambda: zero_sum_mod([True, True, True], 3), "entries must be ints"),
        # an AssertionError from the pigeonhole
        (lambda: zero_sum_mod([0.5, 0.5, 0.5], 3), "entries must be ints"),
        (lambda: apply_step(path_graph(3), (0, 4, 0), True, 2),
         "edge endpoint True is not a vertex"),
        (lambda: PebbleFlow(path_graph(3), (4, 0, 0), {(0, 1): 1.5}),
         "flow count must be an int >= 0"),
        # configuration checks: reduced_size returned -3 for the first,
        # and the rest ended in a TypeError
        (lambda: reduced_size((3, -5), 2), "pebble counts must be non-negative integers"),
        (lambda: reduced_size((1, "1", 0), 2), "pebble counts must be non-negative integers"),
        (lambda: extract_blocks((3, None), 2, 1), "pebble counts must be non-negative integers"),
        (lambda: extract_single_block((3, None), 2, 1),
         "pebble counts must be non-negative integers"),
        (lambda: is_solvable(path_graph(3), iter((4, 0, 0)), 2, 1),
         "configuration must be a tuple or list, got tuple_iterator"),
        (lambda: replay(path_graph(3), iter((4, 0, 0)), [(0, 1)]),
         "configuration must be a tuple or list, got tuple_iterator"),
        (lambda: solve_via_flow(path_graph(3), iter((4, 0, 0)), 2, 1),
         "configuration must be a tuple or list, got tuple_iterator"),
        (lambda: PebbleFlow(path_graph(3), iter((4, 0, 0)), {}),
         "configuration must be a tuple or list, got tuple_iterator"),
        # a dict of pebble counts has a length and int keys
        (lambda: is_solvable(path_graph(3), {0: 4, 1: 0, 2: 0}, 2, 1),
         "configuration must be a tuple or list, got dict"),
        # and each of these ends in a TypeError
        (lambda: pebbling_number(path_graph(3), 0, 1.5), "n must be an int >= 1"),
        (lambda: cycle_graph(3.0), "size must be an int >= 3"),
        (lambda: divisor_zero_sum(2.0, [1, 1]), "n must be an int >= 1"),
        (lambda: bfs_distances(path_graph(3), 1.0), "target 1.0 is not a vertex"),
        (lambda: apply_step(path_graph(3), (4, 0, 0), 0.0, 1), "edge endpoint 0.0 is not a vertex"),
        (lambda: zero_sum_mod(["a", 1, 2], 3), "entries must be ints"),
        (lambda: zero_sum_mod([None, 1, 2], 3), "entries must be ints"),
        # each builder checks its own minimums, which the family table once held
        (lambda: make_family("cycle:2:2"), "size must be an int >= 3, got 2"),
        (lambda: make_family("path:1:1"), "weight must be an int >= 2, got 1"),
        (lambda: make_family("grid:2:2:0:2"), "size must be an int >= 1, got 0"),
    ],
)
def test_answers_and_tracebacks_from_bad_integers_are_pebbling_errors(call, message):
    with pytest.raises(PebblingError, match=f"^{re.escape(message)}"):
        call()


def test_zero_sum_mod_takes_any_int():
    assert zero_sum_mod([-1, 0, 5], 3) == frozenset({2})
    assert zero_sum_mod([-2, 5, 7, 9], 3) == frozenset({1, 2})


def test_one_shot_starts_are_read_once():
    starts = (v for v in [0, 0])
    assert pebbling_construction(path_graph(2), 1, starts, _union, [(0, 1)]) == {1, 2}


def test_flows_from_a_list_and_a_tuple_are_equal():
    g = path_graph(3)
    assert solve_via_flow(g, [4, 0, 0], 2, 1) == solve_via_flow(g, (4, 0, 0), 2, 1)
    assert PebbleFlow(g, [4, 0, 0], {}).config == (4, 0, 0)


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
