import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pebbling import solver
from pebbling.configs import enumerate_configs
from pebbling.errors import PebblingError
from pebbling.flows import solve_via_flow
from pebbling.formulas import pi_complete
from pebbling.graphs import (
    Graph,
    arrow_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    make_family,
    path_graph,
    star_graph,
)
from pebbling.solver import (
    _pre_search,
    _scan_stride,
    _tau_subconfig_exists,
    _walk_decision,
    apply_step,
    find_unsolvable,
    has_2pp,
    is_solvable,
    optimal_pebbling_number,
    pebbling_number,
    pebbling_number_graph,
    replay,
    verify_tau,
)
from oracles import random_config, random_connected_graph, tau_oracle, two_pp_oracle


def test_apply_step_basics():
    g = path_graph(2, 3)
    assert apply_step(g, (3, 0), 0, 1) == (0, 1)
    with pytest.raises(PebblingError):
        apply_step(g, (2, 0), 0, 1)  # not enough pebbles
    with pytest.raises(PebblingError):
        apply_step(path_graph(3), (2, 0, 0), 0, 2)  # missing edge


def test_step_conserves_all_but_weight_minus_one():
    g = cycle_graph(4, 3)
    c = (5, 1, 0, 0)
    out = apply_step(g, c, 0, 1)
    assert sum(out) == sum(c) - 2


def test_trivially_solvable_has_empty_witness():
    g = path_graph(3)
    out = is_solvable(g, (0, 0, 2), 2, 1)
    assert out.solvable and out.witness == ()


def test_cube_eight_vs_seven():
    g = hypercube_graph([2, 2, 2])
    heavy = tuple(8 if v == 0 else 0 for v in range(8))
    out = is_solvable(g, heavy, 7, 1)
    assert out.solvable
    assert replay(g, heavy, out.witness)[7] >= 1
    light = tuple(7 if v == 0 else 0 for v in range(8))
    assert not is_solvable(g, light, 7, 1).solvable


def test_witnesses_replay(subtests=None):
    rng = random.Random(7)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 5))
        c = random_config(rng, g.vertex_count, rng.randint(0, 7))
        t = rng.randrange(g.vertex_count)
        n = rng.randint(1, 2)
        out = is_solvable(g, c, t, n)
        if out.solvable:
            final = replay(g, c, out.witness)
            assert final == out.final
            assert final[t] >= n


def test_pebbling_number_examples():
    assert pebbling_number(path_graph(3), 0).value == 4
    assert pebbling_number(cycle_graph(7), 0).value == 11
    for n in range(1, 6):  # one vertex: no scan finds anything
        out = pebbling_number(Graph(1, ()), 0, n)
        assert (out.value, out.witness_unsolvable) == (n, (n - 1,))


def test_pebbling_number_witness_is_unsolvable():
    out = pebbling_number(cycle_graph(5), 0, 2)
    w = out.witness_unsolvable
    assert sum(w) == out.value - 1
    assert not is_solvable(cycle_graph(5), w, 0, 2).solvable


def test_pebbling_number_unreachable_target():
    g = Graph(2, ((0, 1, 2),))  # nothing can reach vertex 0
    with pytest.raises(PebblingError):
        pebbling_number(g, 0)


def test_pebbling_number_graph_examples():
    assert pebbling_number_graph(star_graph(3)) == 5


def test_complete_graphs_match_formula():
    for n in range(1, 5):
        for k in range(2, 5):
            g = complete_graph(n, k)
            assert pebbling_number(g, 0).value == pi_complete(n, k)


def test_weight2_pebbling_number_at_least_vertex_count():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 5), weights=(2,))
        assert pebbling_number_graph(g) >= g.vertex_count


def test_lower_bound_all_singletons():
    # #V + n - 1 is a universal lower bound: the all-singleton witness
    # plus n - 1 pebbles on the target is never n-fold solvable.
    for g in (path_graph(4), cycle_graph(5), star_graph(3)):
        for n in (1, 2, 3):
            assert pebbling_number(g, 0, n).value >= g.vertex_count + n - 1


def test_unsolvable_witness():
    w = find_unsolvable(cycle_graph(6), 0, 1, 7)
    assert w is not None and sum(w) == 7
    assert not is_solvable(cycle_graph(6), w, 0, 1).solvable
    assert find_unsolvable(path_graph(2), 0, 1, 2) is None
    assert find_unsolvable(Graph(1, ()), 0, 2, 3) is None


def test_singleton_witness_up_to_vertex_count_plus_n_minus_two():
    # Up to p = #V + n - 2 the answer is min(n - 1, p) pebbles on t and
    # one on each of the lowest other vertices, found before any scan.
    for g in (path_graph(4), cycle_graph(5), star_graph(3)):
        for t, n in ((0, 1), (g.vertex_count - 1, 2), (1, 3)):
            for p in range(g.vertex_count + n - 1):
                w = find_unsolvable(g, t, n, p)
                others = [x for v, x in enumerate(w) if v != t]
                assert sum(w) == p and w[t] == min(n - 1, p)
                assert others == sorted(others, reverse=True) and set(others) <= {0, 1}
                assert solve_via_flow(g, w, t, n) is None


def test_has_2pp_trivial_and_small():
    assert has_2pp(Graph(1, ()), 1)[0]
    assert has_2pp(complete_graph(3), 3)[0]
    assert has_2pp(cycle_graph(4), 4)[0]
    assert has_2pp(cycle_graph(4), 4, variant="odd")[0]
    with pytest.raises(PebblingError):
        has_2pp(arrow_graph(2), 2)  # vertex 1 cannot reach target 0
    with pytest.raises(PebblingError):
        has_2pp(complete_graph(3), 3, variant="weird")
    for pi in (0, -3):  # a non-positive pi would "fail" on the zero config
        with pytest.raises(PebblingError):
            has_2pp(cycle_graph(4), pi)


def test_verify_tau_small():
    # tau_{1,2}(P2, far end) <= 3 but not <= 2: the configuration (1, 2)
    # has no solvable subconfiguration whose residual keeps reduced size 2.
    g = path_graph(2)
    assert verify_tau(g, 1, 1, 2, 3, 8)
    assert not verify_tau(g, 1, 1, 2, 2, 8)


def test_verify_tau_rejects_bad_bounds():
    for m_max, k, message in (
        (-1, 2, "m_max must be an int >= 0, got -1"),
        (1, 0, "k must be an int >= 1, got 0"),
    ):
        with pytest.raises(PebblingError, match=message):
            verify_tau(path_graph(2), 1, 1, k, 3, m_max)


def test_verify_tau_on_one_vertex_matches_brute_force():
    # With no other vertex, each size's walk is the one empty tuple.
    g = Graph(1, ())
    answers = set()
    for n, k, p, m_max in itertools.product(range(4), range(1, 4), range(-1, 6), range(4)):
        answer = verify_tau(g, 0, n, k, p, m_max)
        assert answer == tau_oracle(g, 0, n, k, p, m_max), (n, k, p, m_max)
        answers.add(answer)
    assert answers == {True, False}


def test_verify_tau_matches_brute_force():
    # n runs over 0..3, so the walk meets c(t) = n, c(t) > n and, at
    # n = 0, only c(t) >= n: every place where it skips what the fast
    # path certifies.
    rng = random.Random(2024)
    families = (
        "path:2:2",
        "path:3:2",
        "cycle:3:2",
        "cycle:4:2",
        "star:3:2",
        "hypercube:2:3",
        "arrow:2",
    )
    answers = []
    ns = set()
    for _ in range(300):
        family = rng.choice(families)
        g = make_family(family)
        t = rng.randrange(g.vertex_count)
        n, k = rng.randint(0, 3), rng.randint(1, 3)
        args = (t, n, k, rng.randint(-1, 8), rng.randint(0, 4))  # t n k p m_max
        answer = verify_tau(g, *args)
        assert answer == tau_oracle(g, *args), (family, args)
        answers.append(answer)
        ns.add(n)
    assert True in answers and False in answers
    assert ns == {0, 1, 2, 3}


def test_tau_subconfig_matches_every_subconfiguration():
    # The fast path's O(1) residual sizes and the fallback's minimal
    # residuals against trying every c* <= c.  Only the fallback calls the
    # walk decision there, so counting its calls tells which draws get past
    # the fast path.
    decisions = []

    def counted(unsolvable):
        def decide(c):
            decisions.append(c)
            return unsolvable(c)

        return decide

    rng = random.Random(5)
    families = (
        "path:2:2",
        "path:3:2",
        "cycle:4:2",
        "star:3:2",
        "arrow:2",
        "hypercube:2:3",
        "hypercube:3:4",
        "petersen",
    )
    draws = []
    for _ in range(2000):
        family = rng.choice(families)
        nv = make_family(family).vertex_count
        c = random_config(rng, nv, rng.randint(0, 9))
        t = rng.randrange(nv)
        draws.append((family, c, t, rng.randint(0, 3), rng.randint(1, 3), rng.randint(-1, 12)))
    # Cases where only a residual over all of c's support works (rare in
    # random draws): one pebble off each stack, at k = 1.
    draws += [
        ("cycle:4:2", (5, 0, 3, 0), 1, 3, 1, 2),
        ("petersen", (3, 3, 0, 0, 3, 0, 0, 0, 3, 2), 5, 2, 1, 10),
    ]
    answers = []
    fallback_answers = []
    for family, c, t, n, k, m in draws:
        g = make_family(family)
        expected = any(
            sum(c) - sum(cs) - (k - 1) * (sum(a > b for a, b in zip(c, cs)) - 1) >= m
            and is_solvable(g, cs, t, n).solvable
            for cs in itertools.product(*(range(x + 1) for x in c))
        )
        q = sum(1 for x in c if x)
        decisions.clear()
        unsolvable = counted(_walk_decision(g, t, n))
        answer = _tau_subconfig_exists(g, c, t, n, k, m, sum(c), q, unsolvable)
        assert answer == expected, (family, c, t, n, k, m)
        answers.append(answer)
        if decisions:
            fallback_answers.append(answer)
    assert True in answers and False in answers
    # At least an eighth of the draws reach the fallback, with both answers.
    assert len(fallback_answers) >= 250, len(fallback_answers)
    assert True in fallback_answers and False in fallback_answers


def test_optimal_pebbling():
    assert optimal_pebbling_number(path_graph(3))[0] == 2
    size, c = optimal_pebbling_number(cycle_graph(5))
    assert size == 4
    for t in range(5):
        assert is_solvable(cycle_graph(5), c, t, 1).solvable


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solvability_monotone_under_adding_pebbles(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_graph(rng, rng.randint(2, 4))
    c = random_config(rng, g.vertex_count, rng.randint(0, 6))
    t = rng.randrange(g.vertex_count)
    if is_solvable(g, c, t, 1).solvable:
        v = rng.randrange(g.vertex_count)
        bigger = tuple(x + (1 if i == v else 0) for i, x in enumerate(c))
        assert is_solvable(g, bigger, t, 1).solvable


def test_bad_instances_raise():
    with pytest.raises(PebblingError):
        is_solvable(path_graph(3), (1, 2), 0, 1)  # configuration too short
    with pytest.raises(PebblingError):
        is_solvable(path_graph(3), (1, 2, 0), 3, 1)
    with pytest.raises(PebblingError):
        solve_via_flow(path_graph(3), (1, 2, 0, 0), 0, 1)
    with pytest.raises(PebblingError):
        pebbling_number(path_graph(3), 9)
    with pytest.raises(PebblingError, match="size p must be an int >= 0, got -1"):
        find_unsolvable(path_graph(3), 0, 1, -1)


def test_worker_count_below_one_raises():
    # With no worker the strided scan would decide nothing and answer None.
    for jobs in (0, -3):
        with pytest.raises(PebblingError, match="jobs must be an int >= 1"):
            find_unsolvable(cycle_graph(8), 0, 1, 15, jobs=jobs)
        with pytest.raises(PebblingError, match="jobs must be an int >= 1"):
            pebbling_number(path_graph(3), 0, jobs=jobs)
        with pytest.raises(PebblingError, match="jobs must be an int >= 1"):
            pebbling_number_graph(path_graph(3), jobs=jobs)


def test_import_leaves_the_process_pool_out():
    # Only find_unsolvable with jobs > 1 needs a pool; a fresh interpreter
    # that imports the package and its CLI loads no multiprocessing.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, pebbling, pebbling.cli; print('multiprocessing' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_nothing_is_zero_fold_unsolvable():
    assert find_unsolvable(path_graph(3), 0, 0, 1) is None


def test_deep_witness_replays():
    # Every witness takes about 3m steps, deeper than the recursion limit;
    # the greedy concentration finds one without searching.
    m = 600
    g = path_graph(3)
    c = (4 * m + 3, 1, 0)
    out = is_solvable(g, c, 2, m + 1)
    assert out.solvable and len(out.witness) >= 3 * m
    assert replay(g, c, out.witness) == out.final and out.final[2] >= m + 1


def test_target_already_full_gives_tuple_final():
    # c(t) >= n before any step: no steps, and the final configuration is
    # a tuple even when c is given as a list.
    g = path_graph(3)
    c = [0, 1, 3]
    assert _pre_search(g, c, 2, 3) == solver.SolveResult(True, (), (0, 1, 3))
    out = is_solvable(g, c, 2, 3)
    assert out == solver.SolveResult(True, (), (0, 1, 3))
    assert type(out.final) is tuple


def test_deep_search_without_greedy_replays():
    # The greedy stalls with 2 pebbles on vertex 2; the search then takes
    # one lossy step (2, 1) and needs 1202 steps in all, past the
    # recursion limit.
    g = Graph(3, ((1, 0, 2), (2, 0, 3), (2, 1, 2)))
    c, n = (0, 1, 3602), 1201
    assert _pre_search(g, c, 0, n) is None
    out = is_solvable(g, c, 0, n)
    assert out.solvable
    assert replay(g, c, out.witness) == out.final and out.final[0] >= n


def test_box_scan_pins_cycle_witness():
    # The structured pass finds the support-two witness at p = 20; the
    # box scan at p = 21 must find nothing.
    out = pebbling_number(cycle_graph(9), 0)
    assert (out.value, out.witness_unsolvable) == (21, (0, 0, 0, 0, 9, 11, 0, 0, 0))
    # Other graphs and targets: pi is #V, so the box scan at p = pi must
    # find nothing, and the witness is the singleton one.
    for family, t, value, witness in [
        ("petersen", 0, 10, (0, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        *(("lemke", t, 8, tuple(int(v != t) for v in range(8))) for t in range(8)),
        ("hypercube:2:2:2", 0, 8, (0, 1, 1, 1, 1, 1, 1, 1)),
    ]:
        out = pebbling_number(make_family(family), t)
        assert (out.value, out.witness_unsolvable) == (value, witness), (family, t)


def test_strided_scan_finds_the_first_unsolvable_configuration():
    # Every unsolvable configuration lies in t's box, so at every stride
    # the least of the strides' first hits is the first configuration of
    # the whole size-p walk that the flow route cannot solve.  Sizes with
    # more than 6,000 configurations are skipped to keep the oracle quick.
    rng = random.Random(3)
    found = set()
    for _ in range(40):
        g = _strong_digraph(rng, rng.randint(2, 5))
        nv = g.vertex_count
        for t, n in itertools.product(range(nv), (1, 2)):
            pi = pebbling_number(g, t, n).value
            for p in range(pi - 2, pi + 1):
                if math.comb(p + nv - 1, nv - 1) > 6000:
                    continue
                first = next(
                    (c for c in enumerate_configs(nv, p) if solve_via_flow(g, c, t, n) is None),
                    None,
                )
                found.add(first is None)
                for jobs in (1, 2, 3, 5):
                    hits = [_scan_stride(g, t, n, p, jobs, i) for i in range(jobs)]
                    assert min(filter(None, hits), default=None) == first, (g, t, n, p, jobs)
    assert found == {True, False}


@pytest.mark.parametrize(
    "family, n",
    [
        ("cycle:8:2", 1),
        ("petersen", 1),
        ("lemke", 1),
        ("hypercube:2:2:2", 1),
        ("hypercube:3:4", 1),
        # The scan, not the structured pass, finds these witnesses.
        ("star:4:2", 1),
        ("star:4:2", 2),
        ("complete:4:2", 2),
    ],
)
def test_pebbling_number_independent_of_jobs(family, n):
    # Through the pool: the same value and witness at 1, 2 and 3 workers,
    # at target 0 (where a split on c[0] had one chunk) and the last vertex.
    g = make_family(family)
    for t in (0, g.vertex_count - 1):
        serial = pebbling_number(g, t, n)
        for jobs in (2, 3):
            assert pebbling_number(g, t, n, jobs=jobs) == serial, (t, jobs)


@pytest.mark.parametrize(
    "affinity, count, workers",
    [({0, 1}, 4, [2]), ({0}, 4, []), (None, 3, [3]), (None, None, [])],
    ids=["two-usable", "one-usable", "three-counted", "none-counted"],
)
def test_jobs_start_at_most_one_worker_per_cpu(monkeypatch, affinity, count, workers):
    # A serial stand-in for the pool records its size and starts no process;
    # at one CPU no pool is built.  64 jobs give the answer and witness of 1.
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    g = cycle_graph(7)
    serial = pebbling_number(g, 0)
    assert pebbling_number(g, 0, jobs=64) == serial
    assert set(started) == set(workers)


def _strong_digraph(rng, nv):
    """A random strongly connected digraph: a directed cycle through all
    vertices plus random extra arcs, each arc of weight 2 or 3."""
    order = rng.sample(range(nv), nv)
    arcs = {(order[i], order[(i + 1) % nv]) for i in range(nv)}
    for _ in range(rng.randint(0, nv * (nv - 1))):
        arcs.add(tuple(rng.sample(range(nv), 2)))
    return Graph(nv, tuple((u, v, rng.choice((2, 3))) for u, v in sorted(arcs)))


def _memo_walks(seed):
    """Seeded walks toward (g, t, n) on strong digraphs at n = 1..3: every
    configuration of the sizes pi - 1 down to pi - 4, so later, smaller
    configurations can already be in the memo of the earlier searches.
    Walks longer than 10,000 configurations are skipped to keep it quick."""
    rng = random.Random(seed)
    for _ in range(24):
        g = _strong_digraph(rng, rng.randint(2, 5))
        t = rng.randrange(g.vertex_count)
        n = rng.randint(1, 3)
        pi = pebbling_number(g, t, n).value
        sizes = range(pi - 1, max(pi - 5, -1), -1)
        walk = [c for s in sizes for c in enumerate_configs(g.vertex_count, s)]
        if len(walk) <= 10_000:
            yield g, t, n, walk


def _memos_searched(monkeypatch):
    """Record (n, memo) for each ``_search`` call, in order."""
    memos = []
    search = solver._search

    def spy(rec, c, t, n, failed):
        memos.append((n, failed))
        return search(rec, c, t, n, failed)

    monkeypatch.setattr(solver, "_search", spy)
    return memos


def _walk_with_one_memo(g, t, n, walk):
    """Decide a walk with one walk decision against fresh searches; returns
    how many decisions its memo held up front and how often it shrank.  The
    memo is the one set the decision hands to every search."""
    fresh = [not is_solvable(g, c, t, n) for c in walk]
    with pytest.MonkeyPatch.context() as mp:
        memos = _memos_searched(mp)
        unsolvable = _walk_decision(g, t, n)
        known = cleared = 0
        for c, expected in zip(walk, fresh):
            memo = memos[-1][1] if memos else set()
            known += c in memo
            before = len(memo)
            assert unsolvable(c) == expected, (g, c, t, n)
            cleared += len(memo) < before
    assert all(memo is memos[0][1] for _, memo in memos)
    for c in memos[0][1] if memos else ():
        assert solve_via_flow(g, c, t, n) is None, (g, c, t, n)
    return known, cleared


def test_one_memo_per_walk_gives_the_fresh_answers(monkeypatch):
    # A configuration joins the memo only once its whole subtree failed
    # toward the same (g, t, n), so sharing it along a walk changes no
    # answer, and whatever it holds the flow route cannot solve.  At a cap
    # of 3 the same walks clear it before most searches.
    runs = [_walk_with_one_memo(*walk) for walk in _memo_walks(8)]
    assert sum(known for known, _ in runs) > 0
    assert sum(cleared for _, cleared in runs) == 0
    monkeypatch.setattr(solver, "MEMO_CAP", 3)
    runs = [_walk_with_one_memo(*walk) for walk in _memo_walks(8)]
    assert sum(known for known, _ in runs) > 0
    assert sum(cleared for _, cleared in runs) > 0


def test_walks_toward_two_n_keep_separate_memos():
    # Walk decisions toward (t, 2) and (t, 1) on the Petersen graph decide
    # its size-6 configurations in turn.  The (t, 2) memo comes to hold
    # 1-solvable configurations, and one memo shared by both would answer
    # 54 of them unsolvable toward (t, 1); each decision keeps its own and
    # gives is_solvable's answers.
    g, t = make_family("petersen"), 0
    walk = list(enumerate_configs(g.vertex_count, 6))
    fresh = {n: [not is_solvable(g, c, t, n) for c in walk] for n in (2, 1)}
    with pytest.MonkeyPatch.context() as mp:
        memos = _memos_searched(mp)
        walks = {n: _walk_decision(g, t, n) for n in (2, 1)}
        answers = {n: [] for n in walks}
        for c in walk:
            for n, unsolvable in walks.items():
                answers[n].append(unsolvable(c))
    assert answers == fresh
    memo = {n: failed for n, failed in memos}
    assert set(memo) == {1, 2} and memo[1] is not memo[2]
    assert all(failed is memo[n] for n, failed in memos)
    assert any(is_solvable(g, c, t, 1) for c in memo[2])
    assert not any(is_solvable(g, c, t, 2) for c in memo[2])
    assert not any(is_solvable(g, c, t, 1) for c in memo[1])


def test_2pp_matches_every_pair_loop():
    # The per-target box walks on the lower edge of the 2PP window, merged
    # on (c, t), give the plain loop's answer and first counterexample.
    # Graphs with a cost above 8 are skipped to keep the plain loop quick;
    # pi is drawn from the true pebbling number - 2 to + 2 (at least 1), so
    # both outcomes occur and the walk also runs past the sizes where every
    # configuration is 2-solvable.
    rng = random.Random(77)
    outcomes = set()
    tried = 0
    while tried < 80:
        g = _strong_digraph(rng, rng.randint(2, 6))
        if max(max(g.cost_to(t)) for t in range(g.vertex_count)) > 8:
            continue
        tried += 1
        pi = max(pebbling_number_graph(g) + rng.randint(-2, 2), 1)
        for variant in ("support", "odd"):
            answer = has_2pp(g, pi, variant)
            assert answer == two_pp_oracle(g, pi, variant), (g, pi, variant)
            outcomes.add(answer[0])
    assert outcomes == {True, False}


def test_2pp_pins_named_graphs():
    # Answers of the plain loop over every (c, t) pair (two_pp_oracle);
    # Lemke through the CLI at --jobs 2 is
    # test_cli::test_2pp_output_independent_of_jobs.
    lemke_fails = {
        "support": (False, ((0, 0, 0, 1, 1, 1, 1, 8), 0)),
        "odd": (False, ((0, 0, 0, 1, 1, 1, 1, 9), 0)),
    }
    for family, pi in [
        ("lemke", 8),
        ("cycle:6:2", 8),
        ("cycle:7:2", 11),
        ("grid:3:2:2:2", 8),
        ("hypercube:2:2:2", 8),
    ]:
        g = make_family(family)
        for variant in ("support", "odd"):
            expected = lemke_fails[variant] if family == "lemke" else (True, None)
            assert has_2pp(g, pi, variant) == expected, (family, variant)


@st.composite
def undecided_instances(draw):
    """A random digraph on 2-5 vertices with weights 2-5, a configuration
    of up to 60 pebbles, and n above what independent delivery reaches but
    not above the potential, so neither quick bound decides."""
    nv = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    weights = draw(
        st.lists(st.sampled_from((0, 2, 3, 4, 5)), min_size=len(pairs), max_size=len(pairs))
    )
    g = Graph(nv, tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))
    c = tuple(draw(st.lists(st.integers(0, 12), min_size=nv, max_size=nv)))
    t = draw(st.integers(0, nv - 1))
    cost = g.cost_to(t)
    lo = 1 + sum(x // cv for x, cv in zip(c, cost) if cv)
    hi = int(sum(Fraction(x, cv) for x, cv in zip(c, cost) if cv))
    return g, c, t, draw(st.integers(lo, max(lo, hi)))


@settings(max_examples=150, deadline=None)
@given(undecided_instances())
def test_greedy_replays_and_deciders_agree(instance):
    g, c, t, n = instance
    greedy = _pre_search(g, c, t, n)
    if greedy:  # solved by the greedy, not refused by the potential
        assert greedy.final == replay(g, c, greedy.witness) and greedy.final[t] >= n
    out = is_solvable(g, c, t, n)
    assert out.solvable == (solve_via_flow(g, c, t, n) is not None)
    if out.solvable:
        assert replay(g, c, out.witness) == out.final and out.final[t] >= n


@st.composite
def deliverable_instances(draw):
    """A random digraph on 2-6 vertices with weights 2-5, a configuration
    of up to 60 pebbles, and n at most what independent delivery reaches."""
    nv = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    weights = draw(
        st.lists(st.sampled_from((0, 2, 3, 4, 5)), min_size=len(pairs), max_size=len(pairs))
    )
    g = Graph(nv, tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))
    c = tuple(draw(st.lists(st.integers(0, 10), min_size=nv, max_size=nv)))
    t = draw(st.integers(0, nv - 1))
    delivered = sum(x // cv for x, cv in zip(c, g.cost_to(t)) if cv)
    return g, c, t, draw(st.integers(min(1, delivered), delivered))


@settings(max_examples=300, deadline=None)
@given(deliverable_instances())
def test_greedy_does_no_worse_than_independent_delivery(instance):
    g, c, t, n = instance
    greedy = _pre_search(g, c, t, n)
    assert greedy is not None and greedy.solvable
    assert replay(g, c, greedy.witness)[t] >= n


def test_no_decision_needs_the_delivery_bound(monkeypatch):
    # Every decider and walk opens with the potential and the greedy only;
    # with solvable_quick unusable they give the answers they gave when the
    # walks still ran its delivery test first.
    def unusable(*args):
        raise AssertionError("solvable_quick called")

    monkeypatch.setattr(solver, "solvable_quick", unusable)
    lemke, petersen = make_family("lemke"), make_family("petersen")
    q3 = make_family("hypercube:3:4")
    decisions = [
        ("cycle:7:2", (0, 0, 0, 5, 5, 0, 0), 0, 1, None),
        ("cycle:7:2", (0, 0, 0, 5, 6, 0, 0), 0, 1, (1, 0, 0, 0, 0, 0, 0)),
        ("petersen", (0, 0, 0, 0, 0, 0, 9, 0, 0, 0), 0, 2, (2, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
        ("petersen", (0, 1, 1, 1, 1, 1, 1, 1, 1, 1), 0, 1, None),
        ("lemke", (0, 0, 0, 1, 1, 1, 1, 8), 0, 2, None),
        ("lemke", (0, 0, 0, 1, 1, 1, 1, 8), 0, 1, (1, 0, 0, 1, 1, 1, 1, 0)),
    ]
    for family, c, t, n, final in decisions:
        g = make_family(family)
        assert is_solvable(g, c, t, n).final == final, (family, c, t, n)
        assert (solve_via_flow(g, c, t, n) is None) == (final is None), (family, c, t, n)
    numbers = [
        (cycle_graph(7), 0, 1, (11, (0, 0, 0, 5, 5, 0, 0))),
        (cycle_graph(7), 3, 2, (19, (5, 0, 0, 0, 0, 0, 13))),
        (petersen, 0, 1, (10, (0, 1, 1, 1, 1, 1, 1, 1, 1, 1))),
        (lemke, 0, 1, (8, (0, 1, 1, 1, 1, 1, 1, 1))),
        (lemke, 0, 2, (16, (0, 0, 0, 0, 0, 0, 0, 15))),
    ]
    for g, t, n, expected in numbers:
        out = pebbling_number(g, t, n)
        assert (out.value, out.witness_unsolvable) == expected, (g, t, n)
    assert has_2pp(lemke, 8) == (False, ((0, 0, 0, 1, 1, 1, 1, 8), 0))
    assert has_2pp(lemke, 8, "odd") == (False, ((0, 0, 0, 1, 1, 1, 1, 9), 0))
    assert verify_tau(q3, 3, 2, 3, 24, 2)
    assert not verify_tau(q3, 3, 2, 3, 22, 2)
    assert optimal_pebbling_number(cycle_graph(7)) == (5, (0, 0, 1, 2, 0, 0, 2))
    assert optimal_pebbling_number(petersen) == (4, (0, 0, 0, 0, 0, 0, 0, 0, 0, 4))
