"""Acceptance gate: one test per headline result, each with a pinned wall
clock budget.  Run with -v to get one pass/fail line per criterion."""

import itertools
import random
import time
from contextlib import contextmanager

from pebbling.configs import enumerate_configs, support_count
from pebbling.flows import (
    flow_from_steps,
    is_feasible,
    realize,
    solve_via_flow,
    unidirectional,
)
from pebbling.formulas import (
    config_count,
    pi_complete,
    pi_cycle,
    pi_grid,
    pi_tree,
    pi_weighted_hypercube,
)
from pebbling.graphs import (
    Graph,
    arrow_graph,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    divisor_lattice,
    grid_graph,
    hypercube_graph,
    lemke_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from pebbling.smv import emit_pebbling_model
from pebbling.solver import (
    find_unsolvable,
    has_2pp,
    is_solvable,
    pebbling_number,
    pebbling_number_graph,
    verify_tau,
)
from pebbling.weights import covering_bound, cycle_weight_functions, lp_bound
from pebbling.zerosum import divisor_zero_sum, erdos_lemke
from oracles import (
    labeled_trees,
    random_config,
    random_connected_graph,
    random_legal_steps,
    tree_pi_oracle,
)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


def test_01_complete_graph_weight3():
    with budget(1):
        assert pebbling_number(complete_graph(4, 3), 0).value == 7
        assert pi_complete(4, 3) == 7


def test_02_petersen():
    with budget(300):
        assert pebbling_number_graph(petersen_graph(), jobs=4) == 10


def test_03_complete_bipartite_2_3():
    with budget(10):
        assert pebbling_number_graph(complete_bipartite_graph(2, 3)) == 5


def test_04_small_cycles():
    with budget(120):
        for m in range(3, 9):
            assert pebbling_number_graph(cycle_graph(m)) == pi_cycle(m)
        assert pi_cycle(7) == 11


def test_05_star_and_prism():
    with budget(60):
        assert pebbling_number_graph(star_graph(3)) == 5
        prism = cartesian_product(cycle_graph(3), path_graph(3))
        assert pebbling_number(prism, 0).value == 9


def test_06_cube_with_witness():
    with budget(30):
        g = hypercube_graph([2, 2, 2])
        out = pebbling_number(g, 0)
        assert out.value == 8
        w = out.witness_unsolvable
        assert sum(w) == 7
        assert not is_solvable(g, w, 0, 1).solvable


def test_07_weighted_arrow_products():
    with budget(60):
        g = cartesian_product(arrow_graph(2), arrow_graph(3))
        assert pebbling_number(g, 3).value == 6  # both coordinates at the head
        h = hypercube_graph([3, 4])
        assert pebbling_number(h, 3).value == 12
        assert pi_weighted_hypercube([3, 4]) == 12


def test_08_grid_3x2():
    with budget(60):
        g = grid_graph([(3, 2), (2, 2)])
        assert pebbling_number_graph(g) == 8
        assert pi_grid([(3, 2), (2, 2)]) == 8


def test_09_divisor_lattices():
    with budget(120):
        for n in range(2, 13):
            g = divisor_lattice(n)
            t = g.labels.index(n)
            assert find_unsolvable(g, t, 1, n) is None  # pi(D_n, n) <= n


def test_10_lemke_lacks_2pp():
    with budget(600):
        g = lemke_graph()
        assert pebbling_number_graph(g) == 8
        holds, ce = has_2pp(g, 8)
        assert not holds and ce is not None
        c, t = ce
        assert sum(c) == 2 * 8 - support_count(c) + 1
        assert not is_solvable(g, c, t, 2).solvable


def test_11_tree_formula_vs_independent_dp():
    with budget(600):
        for nv in range(1, 8):
            for k in (2, 3):
                for g in labeled_trees(nv, k):
                    for r in range(nv):
                        for n in (1, 2):
                            assert pi_tree(g, r, k, n) == tree_pi_oracle(g, r, k, n)
        # spot-check the oracle itself against the exhaustive solver
        for k in (2, 3):
            for g in itertools.islice(labeled_trees(4, k), 0, None, 3):
                for r in range(4):
                    assert tree_pi_oracle(g, r, k, 1) == pebbling_number(g, r).value


def test_12_tau_certificate():
    with budget(10):
        g = hypercube_graph([3, 4])
        assert verify_tau(g, 3, 2, 3, 24, 20)


def test_13_cycle_weight_bounds():
    with budget(60):
        for m in range(4, 11):
            g = cycle_graph(m)
            ws = list(cycle_weight_functions(m, 0))
            assert covering_bound(g, ws) == pi_cycle(m)
            assert lp_bound(g, 0, ws) == pi_cycle(m)


def _connected(nv, pairs):
    adj = {v: set() for v in range(nv)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def test_14_flow_solver_equivalence():
    with budget(600):
        # exhaustive: every connected undirected graph on <= 4 vertices with
        # edge weights in {2, 3}, every |c| <= 6, every target
        for nv in range(1, 5):
            all_pairs = list(itertools.combinations(range(nv), 2))
            for ws in itertools.product((0, 2, 3), repeat=len(all_pairs)):
                pairs = [(p, w) for p, w in zip(all_pairs, ws) if w]
                if not _connected(nv, [p for p, _ in pairs]):
                    continue
                edges = []
                for (u, v), w in pairs:
                    edges += [(u, v, w), (v, u, w)]
                g = Graph(nv, tuple(edges))
                for s in range(0, 7):
                    for c in enumerate_configs(nv, s):
                        for t in range(nv):
                            direct = is_solvable(g, c, t, 1).solvable
                            via_flow = solve_via_flow(g, c, t, 1) is not None
                            assert direct == via_flow, (g.edges, c, t)
        # randomized: larger graphs, larger configurations
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_connected_graph(rng, rng.randint(5, 6))
            c = random_config(rng, g.vertex_count, rng.randint(0, 8))
            t = rng.randrange(g.vertex_count)
            n = rng.randint(1, 2)
            direct = is_solvable(g, c, t, n).solvable
            via_flow = solve_via_flow(g, c, t, n) is not None
            assert direct == via_flow, (g.edges, c, t, n)


def test_15_flow_property_suite():
    with budget(600):
        rng = random.Random(99)
        for _ in range(10_000):
            g = random_connected_graph(rng, rng.randint(2, 6))
            c = random_config(rng, g.vertex_count, rng.randint(0, 10))
            steps, final = random_legal_steps(rng, g, c, rng.randint(0, 8))
            f = flow_from_steps(g, c, steps)
            nv = g.vertex_count
            # excess is exactly the configuration after firing the steps
            assert f.excess_vector() == final
            # balance: every step is one unit out of its tail, one into its head
            assert sum(f.inflow(v) for v in range(nv)) == f.total_count()
            assert sum(f.outflow(v) for v in range(nv)) == f.total_count()
            u = unidirectional(f)
            for a, b, _ in g.edges:
                assert min(u.count(a, b), u.count(b, a)) == 0
            assert all(u.excess(v) >= f.excess(v) for v in range(nv))
            assert is_feasible(u)
            fired, end = realize(g, u)
            assert len(fired) <= sum(c)
            assert all(end[v] >= u.excess(v) for v in range(nv))


def test_16_erdos_lemke():
    with budget(600):
        for n in range(1, 11):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            for seq in itertools.combinations_with_replacement(divisors, n):
                chosen = divisor_zero_sum(n, list(seq))
                assert sum(seq[i - 1] for i in chosen) == n
                chosen = erdos_lemke(n, n, list(seq))
                total = sum(seq[i - 1] for i in chosen)
                assert total % n == 0 and 0 < total <= n
    with budget(60):
        seq = [1] * 29 + [2] * 15 + [3] * 10 + [5] * 6
        chosen = erdos_lemke(60, 60, seq)
        assert sum(seq[i - 1] for i in chosen) == 60


def test_17_config_count_matches_enumeration():
    with budget(10):
        for n in range(1, 6):
            for k in range(0, 9):
                assert config_count(n, k) == len(list(enumerate_configs(n, k)))


def test_18_smv_golden():
    from test_smv import GOLDEN_P3

    first = emit_pebbling_model(path_graph(3), 4)
    assert first == GOLDEN_P3
    assert first == emit_pebbling_model(path_graph(3), 4)  # deterministic
