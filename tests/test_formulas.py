import math

import pytest

from pebbling.errors import PebblingError
from pebbling.formulas import (
    classify_diameter2,
    config_count,
    diameter2_bound,
    max_path_partition,
    pi_complete,
    pi_complete_bipartite,
    pi_cycle,
    pi_grid,
    pi_instar,
    pi_tree,
    pi_weighted_hypercube,
)
from pebbling.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    instar_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from pebbling.solver import pebbling_number
from oracles import all_path_partition_sizes, labeled_trees, tree_pi_oracle


def test_pi_complete():
    assert pi_complete(1, 2) == 1
    assert pi_complete(4, 2) == 4
    assert pi_complete(3, 4) == 7
    for n in range(1, 5):
        for k in range(2, 5):
            assert pebbling_number(complete_graph(n, k), 0).value == pi_complete(n, k)


def test_pi_cycle_small_match_solver():
    for m in range(3, 8):
        assert pebbling_number(cycle_graph(m), 0).value == pi_cycle(m)
    assert pi_cycle(8) == 16
    assert pi_cycle(9) == 2 * (32 // 3) + 1


def test_pi_tree_examples():
    # path P4 with weight 2: single path of length 3 -> 2^3 = 8
    assert pi_tree(path_graph(4), 0) == 8
    # star with 3 leaves rooted at the center: sizes (1, 1, 1) -> 4
    assert pi_tree(star_graph(3), 0) == 4
    # star rooted at a leaf: sizes (2, 1) -> 4 + 2 - 2 + 1
    assert pi_tree(star_graph(3), 1) == 5
    assert pebbling_number(star_graph(3), 1).value == 5
    # single vertex
    assert pi_tree(path_graph(1), 0, 2, 3) == 3


def test_pi_tree_rejects_non_trees():
    with pytest.raises(PebblingError):
        pi_tree(cycle_graph(4), 0)
    with pytest.raises(PebblingError):
        pi_tree(instar_graph(2, 2), 0)  # directed edges only
    with pytest.raises(PebblingError):
        pi_tree(path_graph(3), 0, 1)
    for root in (3, -1):  # not a vertex
        with pytest.raises(PebblingError):
            pi_tree(path_graph(3), root)


def test_max_path_partition_shape():
    paths = max_path_partition(star_graph(3), 1)
    assert [len(p) for p in paths] == [2, 1]
    covered = sorted(v for p in paths for v in p)
    assert covered == [0, 2, 3]  # every vertex except the root, once each


def test_max_path_partition_of_a_deep_path():
    assert max_path_partition(path_graph(1500), 0) == (tuple(range(1499, 0, -1)),)


def test_max_path_partition_is_lex_maximal():
    # The greedy bottom-up construction must dominate every partition the
    # exhaustive oracle can produce, on all labeled trees with <= 6 vertices.
    for nv in range(2, 7):
        for g in labeled_trees(nv, 2):
            for r in range(nv):
                best = max(all_path_partition_sizes(g, r))
                assert tuple(len(p) for p in max_path_partition(g, r)) == best


def test_pi_tree_matches_independent_dp():
    for nv in range(1, 7):
        for k in (2, 3):
            for g in labeled_trees(nv, k):
                for r in range(nv):
                    for n in (1, 2):
                        assert pi_tree(g, r, k, n) == tree_pi_oracle(g, r, k, n)


def test_pi_weighted_hypercube():
    assert pi_weighted_hypercube([2, 2, 2]) == 8
    assert pi_weighted_hypercube([3, 4]) == 12
    with pytest.raises(PebblingError):
        pi_weighted_hypercube([])
    with pytest.raises(PebblingError):
        pi_weighted_hypercube([2, 1])
    for ks in ([2], [3, 2], [2, 3, 4], [5, 2, 2, 3]):
        assert pi_weighted_hypercube(ks) == pi_grid([(2, k) for k in ks])
    # against the solver for small weight products
    for ks in ([2], [3], [2, 2], [2, 3], [3, 2], [2, 2, 3]):
        g = hypercube_graph(ks)
        assert pebbling_number(g, 0).value == pi_weighted_hypercube(ks)
        assert pebbling_number(g, g.vertex_count - 1).value == pi_weighted_hypercube(ks)


def test_pi_grid():
    assert pi_grid([(3, 2), (2, 2)]) == 8
    for dims in ([(3, 2)], [(2, 3)], [(3, 2), (2, 2)], [(2, 2), (2, 2)]):
        g = grid_graph(dims)
        assert pebbling_number(g, 0).value == pi_grid(dims)
    with pytest.raises(PebblingError):
        pi_grid([(0, 2)])


def test_pi_complete_bipartite():
    for m in range(2, 4):
        for n in range(m, 5 - m + 2):
            if m + n > 6:
                continue
            g = complete_bipartite_graph(m, n)
            assert pebbling_number(g, 0).value == pi_complete_bipartite(m, n)
            assert pebbling_number(g, m).value == pi_complete_bipartite(m, n)
    with pytest.raises(PebblingError):
        pi_complete_bipartite(1, 3)


def test_pi_instar():
    for n in range(1, 5):
        for k in (2, 3, 4):
            g = instar_graph(n, k)
            assert pebbling_number(g, 0).value == pi_instar(n, k)


def test_diameter2_bound_and_classes():
    assert diameter2_bound(petersen_graph()) == 11
    with pytest.raises(PebblingError):
        diameter2_bound(path_graph(4))  # diameter 3
    with pytest.raises(PebblingError):
        diameter2_bound(cycle_graph(4, 3))  # wrong weights

    bound, actual, label = classify_diameter2(cycle_graph(4))
    assert (bound, actual, label) == (5, 4, "Class-0")
    bound, actual, label = classify_diameter2(star_graph(3))
    assert (bound, actual, label) == (5, 5, "Class-1")
    bound, actual, label = classify_diameter2(complete_bipartite_graph(2, 2))
    assert label == "Class-0"


def test_config_count():
    assert config_count(3, 2) == 6
    assert config_count(1, 5) == 1
    assert config_count(4, 0) == 1
    assert config_count(5, 3) == math.comb(7, 4)
    with pytest.raises(PebblingError):
        config_count(0, 1)
