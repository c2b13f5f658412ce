import itertools
import random

import pytest

from pebbling.errors import PebblingError
from pebbling.graphs import cycle_graph, path_graph
from pebbling.smv import emit_2pp_model, emit_pebbling_model
from pebbling.solver import has_2pp, is_solvable, pebbling_number
from pebbling.configs import enumerate_configs
from oracles import model_reachable, random_connected_graph

GOLDEN_P3 = """\
MODULE main
DEFINE n := 4;
VAR c : array 1..3 of 0..n;
INIT c[1] + c[2] + c[3] = n

TRANS
( c[1]>1 & next(c[1])=c[1]-2 & next(c[2])=c[2]+1 & next(c[3])=c[3] ) |
( c[2]>1 & next(c[1])=c[1]+1 & next(c[2])=c[2]-2 & next(c[3])=c[3] ) |
( c[2]>1 & next(c[1])=c[1] & next(c[2])=c[2]-2 & next(c[3])=c[3]+1 ) |
( c[3]>1 & next(c[1])=c[1] & next(c[2])=c[2]+1 & next(c[3])=c[3]-2 ) |
  ( next(c[1])=c[1] & next(c[2])=c[2] & next(c[3])=c[3] )

SPEC EF c[1] > 0
SPEC EF c[2] > 0
SPEC EF c[3] > 0
"""

GOLDEN_2PP_P3 = """\
MODULE main
DEFINE n := 3; p := 3;
VAR c : array 1..n of 0..2*p;

INIT
  c[1] + c[2] + c[3] = 2*p + 1 -
  count(c[1]>0, c[2]>0, c[3]>0)

TRANS
( c[1]>1 & next(c[1])=c[1]-2 & next(c[2])=c[2]+1 & next(c[3])=c[3] ) |
( c[2]>1 & next(c[1])=c[1]+1 & next(c[2])=c[2]-2 & next(c[3])=c[3] ) |
( c[2]>1 & next(c[1])=c[1] & next(c[2])=c[2]-2 & next(c[3])=c[3]+1 ) |
( c[3]>1 & next(c[1])=c[1] & next(c[2])=c[2]+1 & next(c[3])=c[3]-2 ) |
  ( next(c[1])=c[1] & next(c[2])=c[2] & next(c[3])=c[3] )

SPEC EF c[1] > 1
SPEC EF c[2] > 1
SPEC EF c[3] > 1
"""


def test_golden_path3():
    assert emit_pebbling_model(path_graph(3), 4) == GOLDEN_P3


def test_golden_2pp_path3():
    assert emit_2pp_model(path_graph(3), 3) == GOLDEN_2PP_P3


def test_emission_is_deterministic():
    g = cycle_graph(5, 3)
    assert emit_pebbling_model(g, 9) == emit_pebbling_model(g, 9)
    assert emit_2pp_model(g, 9) == emit_2pp_model(g, 9)


def test_emit_validates():
    with pytest.raises(PebblingError):
        emit_pebbling_model(path_graph(2), -1)
    with pytest.raises(PebblingError):
        emit_2pp_model(path_graph(2), 0)


def test_transition_relation_matches_solver():
    # explicit-state search over the emitted TRANS block agrees with the
    # solver on every configuration of every small graph
    rng = random.Random(4)
    graphs = [path_graph(3), cycle_graph(3), cycle_graph(4, 3)]
    graphs += [random_connected_graph(rng, rng.randint(2, 4)) for _ in range(5)]
    for g in graphs:
        model = emit_pebbling_model(g, 6)
        for total in range(0, 6):
            for c in enumerate_configs(g.vertex_count, total):
                reached = model_reachable(model, c)
                for t in range(g.vertex_count):
                    via_model = any(s[t] >= 1 for s in reached)
                    assert via_model == is_solvable(g, c, t, 1).solvable


def test_2pp_model_agrees_with_direct_check():
    # every SPEC in the 2PP model holds for C4 exactly when has_2pp does:
    # all initial configurations (size 2*pi + 1 - occupied) reach 2 pebbles
    g = cycle_graph(4)
    pi = pebbling_number(g, 0).value
    model = emit_2pp_model(g, pi)
    ok, _ = has_2pp(g, pi)
    assert ok
    nv = g.vertex_count
    for c in itertools.chain.from_iterable(
        enumerate_configs(nv, s) for s in range(0, 2 * pi + 2)
    ):
        occupied = sum(1 for x in c if x)
        if sum(c) != 2 * pi + 1 - occupied:
            continue
        reached = model_reachable(model, c)
        for t in range(nv):
            assert any(s[t] >= 2 for s in reached)


def test_2pp_model_header_shape():
    text = emit_2pp_model(cycle_graph(4), 4)
    assert "DEFINE n := 4; p := 4;" in text
    assert "VAR c : array 1..n of 0..2*p;" in text
    assert "= 2*p + 1 -" in text
    assert "count(c[1]>0, c[2]>0, c[3]>0, c[4]>0)" in text
    assert text.count("SPEC EF") == 4
