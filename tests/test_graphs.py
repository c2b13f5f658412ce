import pytest
from hypothesis import given, strategies as st

from pebbling.errors import PebblingError
from pebbling.graphs import (
    Graph,
    Homomorphism,
    arrow_divisor_hom,
    arrow_graph,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    diameter,
    divisor_lattice,
    graph_from_text,
    grid_graph,
    hypercube_graph,
    instar_graph,
    lemke_graph,
    make_family,
    path_graph,
    petersen_graph,
    pullback_config,
    pushforward_steps,
    star_graph,
    validate_homomorphism,
)


def test_validation_rejects_bad_edges():
    with pytest.raises(PebblingError):
        Graph(2, ((0, 1, 1),))  # weight below 2
    with pytest.raises(PebblingError):
        Graph(2, ((0, 0, 2),))  # self loop
    with pytest.raises(PebblingError):
        Graph(2, ((0, 1, 2), (0, 1, 3)))  # duplicate edge
    with pytest.raises(PebblingError):
        Graph(2, ((0, 2, 2),))  # endpoint out of range


def test_arrow_graph():
    g = arrow_graph(3)
    assert g.vertex_count == 2
    assert g.edges == ((0, 1, 3),)


def test_divisor_lattice_12():
    g = divisor_lattice(12)
    assert g.labels == (1, 2, 3, 4, 6, 12)
    assert len(g.edges) == 12
    assert g.weight(g.labels.index(2), g.labels.index(6)) == 3


def test_divisor_lattice_1():
    g = divisor_lattice(1)
    assert g.vertex_count == 1
    assert g.edges == ()


def test_cost_to_is_cheapest_weight_product():
    g = cycle_graph(5)
    assert g.cost_to(0) == (1, 2, 4, 4, 2)
    d = divisor_lattice(12)
    # cost of vertex labeled a toward 12 is 12/a regardless of the path
    assert all(
        cost == 12 // a for a, cost in zip(d.labels, d.cost_to(5))
    )


def test_text_round_trip():
    # A graph is its vertex count and edges: the text form loses nothing.
    for spec in (
        "complete:3:3", "cycle:5:2", "path:4:3", "star:3:2", "instar:3:2",
        "arrow:3", "petersen", "lemke", "divisor_lattice:12",
        "hypercube:2:3", "grid:3:2:2:3", "cycle:3:2 x path:3:2",
    ):
        g = make_family(spec)
        assert graph_from_text(g.to_text()) == g, spec


def test_graphs_with_equal_edges_are_equal():
    assert cycle_graph(3) == complete_graph(3)
    assert hash(cycle_graph(3)) == hash(complete_graph(3))


def test_petersen_shape():
    g = petersen_graph()
    assert g.vertex_count == 10
    assert len(g.edges) == 30  # 15 undirected edges
    assert diameter(g) == 2


def test_lemke_shape():
    g = lemke_graph()
    assert g.vertex_count == 8
    assert len(g.edges) == 24
    assert diameter(g) == 3


def test_complete_bipartite():
    g = complete_bipartite_graph(2, 3)
    assert g.vertex_count == 5
    assert len(g.edges) == 12
    assert diameter(g) == 2


def test_diameter_unreachable_and_single_vertex():
    assert diameter(arrow_graph(2)) is None  # vertex 1 cannot reach 0
    assert diameter(instar_graph(3, 2)) is None  # leaves reach only the centre
    assert diameter(Graph(1, ())) == 0


def test_product_counts():
    g = cartesian_product(cycle_graph(3), path_graph(3))
    assert g.vertex_count == 9
    assert len(g.edges) == len(cycle_graph(3).edges) * 3 + len(path_graph(3).edges) * 3


def test_make_family_product_matches_iterated():
    via_dsl = make_family("cycle:3:2 x path:3:2")
    direct = cartesian_product(cycle_graph(3), path_graph(3))
    assert via_dsl.edges == direct.edges


def test_make_family_grid_matches_paths():
    assert make_family("grid:3:2:2:2").edges == grid_graph([(3, 2), (2, 2)]).edges


def test_hypercube_is_a_grid_of_two_vertex_paths():
    assert make_family("hypercube:2:3:4") == make_family("grid:2:2:2:3:2:4")
    for ks in ([2], [3, 2], [2, 2, 2], [2, 3, 4]):
        assert hypercube_graph(ks) == grid_graph([(2, k) for k in ks])
    with pytest.raises(PebblingError, match="hypercube"):
        hypercube_graph([])


def test_make_family_rejects_garbage():
    for bad in ("", "blorp:3", "cycle:2", "cycle:3:1", "grid:3"):
        with pytest.raises(PebblingError):
            make_family(bad)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 30, 60])
def test_arrow_divisor_hom_valid_and_surjective(n):
    h = arrow_divisor_hom(n)
    assert validate_homomorphism(h)
    assert h.is_surjective()


def test_pullback_preserves_size_and_support():
    h = arrow_divisor_hom(12)
    c = (3, 0, 1, 0, 2, 1)
    back = pullback_config(h, c)
    assert sum(back) == sum(c)
    assert sum(1 for x in back if x) == sum(1 for x in c if x)


def test_pushforward_checks_edges():
    h = arrow_divisor_hom(6)
    with pytest.raises(PebblingError):
        pushforward_steps(h, [(0, 0)])


def test_pushforward_reads_an_iterator_once():
    h = arrow_divisor_hom(6)
    steps = [(u, v) for u, v, _ in h.source.edges[:3]]
    assert pushforward_steps(h, iter(steps)) == pushforward_steps(h, steps)
    assert len(pushforward_steps(h, iter(steps))) == 3


def test_star_center_is_vertex_zero():
    g = star_graph(4)
    assert all(g.has_edge(0, v) for v in range(1, 5))
    assert not g.has_edge(1, 2)


@given(st.integers(3, 9), st.integers(2, 4))
def test_cycle_cost_symmetry(m, k):
    g = cycle_graph(m, k)
    cost = g.cost_to(0)
    assert cost[0] == 1
    for i in range(1, m):
        assert cost[i] == cost[m - i] == k ** min(i, m - i)


def test_homomorphism_from_a_list_equals_one_from_a_tuple():
    a = Homomorphism(path_graph(2), path_graph(2), [0, 1])
    b = Homomorphism(path_graph(2), path_graph(2), (0, 1))
    assert a.mapping == (0, 1)
    assert a == b and hash(a) == hash(b)
