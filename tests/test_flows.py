import functools
import hashlib
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
    lemke_graph,
    make_family,
    path_graph,
    petersen_graph,
)
from pebbling.solver import _pre_search, is_solvable, replay, solvable_quick
from oracles import (
    random_config,
    random_connected_graph,
    random_legal_steps,
    realize_oracle,
    solve_via_flow_oracle,
)


def test_excess_is_final_count():
    g = path_graph(3)
    f = flow_from_steps(g, (4, 0, 0), [(0, 1), (0, 1), (1, 2)])
    assert f.excess_vector() == (0, 0, 1)
    assert is_feasible(f) and not is_realized(f)


def test_flow_from_steps_reads_an_iterator_once():
    steps = [(0, 1), (0, 1), (1, 2)]
    f = flow_from_steps(path_graph(3), (4, 0, 0), iter(steps))
    assert f.flow == {(0, 1): 2, (1, 2): 1}
    assert f == flow_from_steps(path_graph(3), (4, 0, 0), steps)


def test_flow_validation():
    g = path_graph(2)
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0), {(0, 0): 1})  # missing edge
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0), {(0, 1): -1})  # negative count
    with pytest.raises(PebblingError):
        PebbleFlow(g, (2, 0, 0), {(0, 1): 1})  # configuration size


def test_flow_keeps_its_own_map():
    # A count put into the caller's map later is not one the checks saw.
    counts = {(0, 1): 1}
    f = PebbleFlow(path_graph(2), (2, 0), counts)
    counts[(0, 1)] = 5
    assert f.flow == {(0, 1): 1} and f.excess_vector() == (0, 1)


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


def test_realize_moves_back_to_a_lower_vertex_that_firing_made_fireable():
    # Vertex 1 fires first, as vertex 0's inflow still covers its outflow;
    # the step into vertex 0 makes it fireable, so it fires before 3.
    g = Graph(4, ((1, 0, 2), (0, 2, 2), (3, 2, 2)))
    f = PebbleFlow(g, (1, 2, 0, 2), {(1, 0): 1, (0, 2): 1, (3, 2): 1})
    assert realize(g, f) == realize_oracle(g, f)
    assert realize(g, f) == (((1, 0), (0, 2), (3, 2)), (0, 0, 2, 0))


def test_realize_on_an_equal_graph_object():
    # A graph equal to the flow's own but built apart: the flow is checked
    # against it, and the steps are the same.
    f = PebbleFlow(path_graph(3), (4, 0, 0), {(0, 1): 2, (1, 2): 1})
    other = path_graph(3)
    assert other == f.graph and other is not f.graph
    assert realize(other, f) == realize(f.graph, f)


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


def test_flow_text_rejects_each_negative_line():
    # Lines on one edge add up, but each count must be non-negative on
    # its own, as ``pebbles`` lines must.
    g = path_graph(3)
    for text in (
        "pebbles 0 4\nflow 0 1 -1\nflow 0 1 2\n",
        "pebbles 0 4\nflow 0 1 3\nflow 0 1 -3\n",
    ):
        with pytest.raises(PebblingError, match="flow count must be an int >= 0, got -"):
            flow_from_text(g, text)
    f = flow_from_text(g, "pebbles 0 4\nflow 0 1 1\nflow 0 1 1\nflow 1 2 0\n")
    assert f.flow == {(0, 1): 2, (1, 2): 0}


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


def _random_digraph(rng: random.Random, nv: int) -> Graph:
    """Each ordered pair an edge of weight 2, 3 or 4 with probability 3/5,
    so some vertices often cannot reach a given target."""
    return Graph(nv, tuple(
        (u, v, w)
        for u in range(nv)
        for v in range(nv)
        if u != v and (w := rng.choice((0, 0, 2, 3, 4)))
    ))


def _sparse_config(rng: random.Random, nv: int, size: int):
    """size pebbles on two or three random vertices: concentrated
    configurations, which the quick bounds often leave open."""
    support = rng.sample(range(nv), min(nv, rng.randint(2, 3)))
    counts = [0] * nv
    for _ in range(size):
        counts[rng.choice(support)] += 1
    return tuple(counts)


def test_solve_via_flow_agrees_with_is_solvable():
    # 40 instances that the quick bounds leave open per n in 1..3 on random
    # connected graphs, and as many on random digraphs with an edge from a
    # vertex that reaches t into one that does not (potential weight 0).
    rng = random.Random(9)
    solvable = 0
    for n in (1, 2, 3):
        for digraph in (False, True):
            found = 0
            while found < 40:
                nv = rng.randint(3, 6)
                g = _random_digraph(rng, nv) if digraph else random_connected_graph(rng, nv)
                t = rng.randrange(nv)
                cost = g.cost_to(t)
                if digraph and not any(
                    cost[u] is not None and cost[v] is None for u, v, _ in g.edges
                ):
                    continue
                c = _sparse_config(rng, nv, rng.randint(n, 4 * n + 4))
                if solvable_quick(g, c, t, n) is not None:
                    continue
                found += 1
                f = solve_via_flow(g, c, t, n)
                assert (f is None) == (not is_solvable(g, c, t, n).solvable)
                if f is not None:
                    solvable += 1
                    assert is_feasible(f) and f.excess(t) >= n
    assert solvable == 130


def _golden_flow_instances():
    """Instances (g, c, t, n) that ``solvable_quick`` leaves open: six per
    graph and n in {1, 2} on C8-C10, Petersen, Q3 and Lemke, with sizes
    in the third below pi + (n - 1) * max cost, then 60 on random
    digraphs at n = 1..3."""
    rng = random.Random(13)
    named = [
        (cycle_graph(8), 16),
        (cycle_graph(9), 21),
        (cycle_graph(10), 32),
        (petersen_graph(), 10),
        (hypercube_graph([2, 2, 2]), 8),
        (lemke_graph(), 8),
    ]
    out = []
    for g, pi in named:
        nv = g.vertex_count
        for n in (1, 2):
            found = 0
            while found < 6:
                t = rng.randrange(nv)
                top = pi + (n - 1) * max(g.cost_to(t))
                c = _sparse_config(rng, nv, rng.randint(top - top // 3, top - 1))
                if solvable_quick(g, c, t, n) is None:
                    out.append((g, c, t, n))
                    found += 1
    while len(out) < 132:
        nv = rng.randint(2, 6)
        g = _random_digraph(rng, nv)
        c = tuple(rng.randint(0, 8) for _ in range(nv))
        t = rng.randrange(nv)
        n = rng.randint(1, 3)
        if solvable_quick(g, c, t, n) is None:
            out.append((g, c, t, n))
    return out


def test_solve_via_flow_golden():
    # The flows pinned from the branch and bound that pruned with the
    # pebble budget alone.  The potential budget and the slack/reach check
    # cut only subtrees without a feasible leaf, the interval walk skips
    # only the counts that check would cut, and an edge left out for a cap
    # of 0 could only carry 0, so the first leaf found is the same.
    results = []
    for g, c, t, n in _golden_flow_instances():
        f = solve_via_flow(g, c, t, n)
        results.append(None if f is None else sorted(f.flow.items()))
    assert sum(r is None for r in results) == 23
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "6b395e14155aa112efda75c29a0d01f05ab2dbc874439553e91659b3dc653237"
    )


def test_is_solvable_golden():
    # Answers, witnesses and final configurations of the public search,
    # which starts from an empty memo whatever the walks share, pinned
    # before the walks shared one.
    results = []
    for g, c, t, n in _golden_flow_instances():
        r = is_solvable(g, c, t, n)
        results.append((r.solvable, r.witness, r.final))
    assert sum(not r[0] for r in results) == 23
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "536594050604841132b99cd28b8159a68a2907bebccf0d8f1d929763e37cc0ae"
    )


def test_solve_via_flow_q4_two_stacks():
    # Neither stack reaches t = 10 alone (6 pebbles at cost 16, 7 at cost
    # 8), so the greedy has no witness and the branch and bound decides.
    start = time.perf_counter()
    g = make_family("hypercube:2:2:2:2")
    c = tuple({5: 6, 13: 7}.get(v, 0) for v in range(16))
    assert is_solvable(g, c, 10, 1).solvable
    f = solve_via_flow(g, c, 10, 1)
    assert f is not None and f.flow == {
        (1, 0): 1, (5, 1): 2, (5, 13): 1, (8, 10): 1, (9, 8): 2, (13, 9): 4,
    }
    steps, final = realize(g, f)
    assert replay(g, c, steps) == final and final[10] >= 1
    assert time.perf_counter() - start < 20.0


def test_solve_via_flow_petersen_n26():
    # The ROADMAP instance on the flow route: unsolvable, proved by the
    # branch and bound.  Only the flow side is pinned: is_solvable keeps
    # every failed configuration in an unbounded set and raises
    # MemoryError here.
    start = time.perf_counter()
    c = (5, 10, 11, 5, 5, 1, 5, 11, 7, 9)
    assert solve_via_flow(petersen_graph(), c, 3, 26) is None
    assert time.perf_counter() - start < 10.0


@st.composite
def random_digraphs(draw):
    """A digraph with 2-6 vertices, each ordered pair an edge of weight 2,
    3 or 4 or no edge."""
    nv = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    weights = draw(
        st.lists(st.sampled_from((0, 2, 3, 4)), min_size=len(pairs), max_size=len(pairs))
    )
    return Graph(nv, tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))


@settings(max_examples=500, deadline=None)
@given(
    random_digraphs(),
    st.lists(st.one_of(st.just(0), st.integers(0, 12)), min_size=6, max_size=6),
)
def test_solve_via_flow_matches_the_per_value_loop(g, counts):
    # Up to 12 pebbles per vertex, about half of the vertices empty so
    # that the quick opening leaves some instances to the branch and
    # bound; every target at n = 1..3.
    c = tuple(counts[: g.vertex_count])
    for t in range(g.vertex_count):
        for n in (1, 2, 3):
            f = solve_via_flow(g, c, t, n)
            expected = solve_via_flow_oracle(g, c, t, n)
            if expected is None:
                assert f is None
            else:
                assert f is not None and list(f.flow.items()) == list(expected.flow.items())


@functools.cache
def _searched_flows():
    """The flows of the golden instances that the shared opening leaves to
    the branch and bound and that it finds feasible."""
    out = []
    for g, c, t, n in _golden_flow_instances():
        if _pre_search(g, c, t, n) is None:
            f = solve_via_flow(g, c, t, n)
            if f is not None:
                out.append((g, f))
    return out


@st.composite
def feasible_flows(draw):
    """A graph and a feasible flow.  Either ``solve_via_flow``'s flow on
    the divisor lattice of some n <= 120 with n pebbles on random divisors
    and the target n (always solvable), or on a random digraph with 2-6
    vertices, weights 2-4, up to 12 pebbles per vertex (about half of the
    vertices empty) and n in 1..3; or the counted steps of a random legal
    sequence on such a digraph, where a vertex often fires several
    out-edges; or one of the branch and bound's flows (``_searched_flows``),
    which the other kinds almost never give."""
    kind = draw(st.sampled_from(("lattice", "solved", "steps", "searched")))
    if kind == "searched":
        return draw(st.sampled_from(_searched_flows()))
    if kind == "lattice":
        n = draw(st.integers(1, 120))
        g = divisor_lattice(n)
        nv = g.vertex_count
        counts = [0] * nv
        for v in draw(st.lists(st.integers(0, nv - 1), min_size=n, max_size=n)):
            counts[v] += 1
        f = solve_via_flow(g, tuple(counts), nv - 1, 1)
        return g, f
    g = draw(random_digraphs())
    nv = g.vertex_count
    counts = st.one_of(st.just(0), st.integers(0, 12))
    c = tuple(draw(st.lists(counts, min_size=nv, max_size=nv)))
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
