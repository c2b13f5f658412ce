import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from pebbling.errors import PebblingError
from pebbling.flows import (
    PebbleFlow,
    flow_from_steps,
    flow_from_text,
    flow_to_text,
    is_feasible,
    is_realized,
    realize,
    solve_via_flow,
    unidirectional,
)
from pebbling.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    divisor_lattice,
    hypercube_graph,
    path_graph,
)
from pebbling.solver import is_solvable, replay
from oracles import random_config, random_connected_graph, random_legal_steps, realize_oracle


def test_excess_is_final_count():
    g = path_graph(3)
    f = flow_from_steps(g, (4, 0, 0), [(0, 1), (0, 1), (1, 2)])
    assert f.excess_vector() == (0, 0, 1)
    assert is_feasible(f) and not is_realized(f)


def test_flow_validation():
    g = path_graph(2)
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0), {(0, 0): 1})  # missing edge
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0), {(0, 1): -1})  # negative count
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0, 0), {(0, 1): 1})  # configuration size


def test_flow_from_steps_checks_legality():
    g = path_graph(2)
    with pytest.raises(PebblingError):
        flow_from_steps(g, (1, 0), [(0, 1)])


def test_unidirectional_cancels_and_preserves_feasibility():
    g = cycle_graph(4)
    f = PebbleFlow(g, (4, 2, 0, 0), {(0, 1): 2, (1, 0): 1, (1, 2): 1})
    u = unidirectional(f)
    assert u.count(0, 1) == 1 and u.count(1, 0) == 0
    for a, b, _ in g.edges:
        assert min(u.count(a, b), u.count(b, a)) == 0
    for v in range(4):
        assert u.excess(v) >= f.excess(v)


def test_realize_produces_legal_steps_dominating_excess():
    g = path_graph(3)
    f = PebbleFlow(g, (4, 0, 0), {(0, 1): 2, (1, 2): 1})
    steps, final = realize(g, f)
    assert replay(g, f.config, steps) == final
    assert all(final[v] >= f.excess(v) for v in range(3))
    assert len(steps) == f.total_count()


def test_realize_skips_cyclic_remainder():
    g = cycle_graph(3)
    f = PebbleFlow(g, (2, 1, 1), {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    # The pure cycle is feasible but can never fire; the excess it induces
    # is already dominated by the starting configuration, so no steps run.
    assert is_feasible(f)
    steps, final = realize(g, f)
    assert all(final[v] >= f.excess(v) for v in range(3))


def test_realize_rejects_infeasible():
    g = path_graph(2)
    with pytest.raises(PebblingError):
        realize(g, PebbleFlow(g, (1, 0), {(0, 1): 1}))


def test_text_round_trip():
    g = path_graph(3)
    f = PebbleFlow(g, (4, 0, 0), {(0, 1): 2, (1, 2): 1})
    back = flow_from_text(g, flow_to_text(f))
    assert back.config == f.config and back.flow == f.flow
    with pytest.raises(PebblingError):
        flow_from_text(g, "what 1 2\n")


def test_solve_via_flow_examples():
    g = hypercube_graph([2, 2, 2])
    heavy = tuple(8 if v == 0 else 0 for v in range(8))
    f = solve_via_flow(g, heavy, 7, 1)
    assert f is not None and f.excess(7) >= 1
    light = tuple(7 if v == 0 else 0 for v in range(8))
    assert solve_via_flow(g, light, 7, 1) is None


def test_solve_via_flow_divisor_lattice():
    g = divisor_lattice(60)
    c = tuple(60 if v == 0 else 0 for v in range(g.vertex_count))
    f = solve_via_flow(g, c, g.vertex_count - 1, 1)
    assert f is not None and is_feasible(f)
    steps, final = realize(g, f)
    assert final[g.vertex_count - 1] >= 1


def test_branch_and_bound_on_many_edges():
    # K33 has 1056 directed edges, one search level each; three single
    # pebbles cannot reach the target.
    g = complete_graph(33)
    c = (0, 1, 1, 1) + (0,) * 29
    start = time.perf_counter()
    assert solve_via_flow(g, c, 0, 1) is None
    assert time.perf_counter() - start < 2.0


def test_flow_conservation_random_steps():
    rng = random.Random(3)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 5))
        c = random_config(rng, g.vertex_count, rng.randint(0, 10))
        steps, _ = random_legal_steps(rng, g, c, rng.randint(0, 6))
        f = flow_from_steps(g, c, steps)
        assert is_feasible(f)
        assert f.excess_vector() == replay(g, c, steps)
        # x(v) = c(v) + inflow - weighted outflow, summed edge by edge
        for h in (f, unidirectional(f)):
            expected = [
                c[v]
                + sum(h.count(a, b) for a, b, _ in g.edges if b == v)
                - sum(w * h.count(a, b) for a, b, w in g.edges if a == v)
                for v in range(g.vertex_count)
            ]
            assert h.excess_vector() == tuple(expected)
            assert [h.excess(v) for v in range(g.vertex_count)] == expected
        assert sum(f.inflow(v) for v in range(g.vertex_count)) == f.total_count()
        assert sum(f.outflow(v) for v in range(g.vertex_count)) == f.total_count()
        u = unidirectional(f)
        assert is_feasible(u)
        again, final = realize(g, u)
        assert all(final[v] >= u.excess(v) for v in range(g.vertex_count))


def test_solve_via_flow_agrees_with_is_solvable():
    rng = random.Random(9)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 4))
        c = random_config(rng, g.vertex_count, rng.randint(0, 6))
        t = rng.randrange(g.vertex_count)
        f = solve_via_flow(g, c, t, 1)
        assert (f is None) == (not is_solvable(g, c, t, 1).solvable)


@st.composite
def feasible_flows(draw):
    """A graph and a feasible flow.  Either ``solve_via_flow``'s flow on
    the divisor lattice of some n <= 120 with n pebbles on random divisors
    and the target n (always solvable), or on a random digraph with 2-6
    vertices, weights 2-4, up to 12 pebbles per vertex and n in 1..3; or
    the counted steps of a random legal sequence on such a digraph, where
    a vertex often fires several out-edges."""
    kind = draw(st.sampled_from(("lattice", "solved", "steps")))
    if kind == "lattice":
        n = draw(st.integers(1, 120))
        g = divisor_lattice(n)
        nv = g.vertex_count
        counts = [0] * nv
        for v in draw(st.lists(st.integers(0, nv - 1), min_size=n, max_size=n)):
            counts[v] += 1
        f = solve_via_flow(g, tuple(counts), nv - 1, 1)
        return g, f
    nv = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    weights = draw(
        st.lists(st.sampled_from((0, 2, 3, 4)), min_size=len(pairs), max_size=len(pairs))
    )
    g = Graph(nv, tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))
    c = tuple(draw(st.lists(st.integers(0, 12), min_size=nv, max_size=nv)))
    if kind == "steps":
        rng = random.Random(draw(st.integers(0, 10**6)))
        steps, _ = random_legal_steps(rng, g, c, draw(st.integers(0, 20)))
        return g, flow_from_steps(g, c, steps)
    f = solve_via_flow(g, c, draw(st.integers(0, nv - 1)), draw(st.integers(1, 3)))
    assume(f is not None)
    return g, f


@settings(max_examples=300, deadline=None)
@given(feasible_flows())
def test_realize_matches_the_plain_loop(instance):
    g, f = instance
    assert realize(g, f) == realize_oracle(g, f)
