import hashlib
import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pebbling import zerosum
from pebbling.errors import PebblingError
from pebbling.graphs import Graph, path_graph
from pebbling.zerosum import (
    divisor_zero_sum,
    erdos_lemke,
    gcd_zero_sum,
    pebbling_construction,
    zero_sum_mod,
)
from oracles import (
    gcd_zero_sum_oracle,
    pebbling_construction_oracle,
    random_legal_steps,
    zero_mod_subset_exists,
)


def divisors_of(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_zero_sum_mod_exhaustive_small():
    for n in range(1, 6):
        for seq in itertools.product(range(6), repeat=n):
            out = zero_sum_mod(list(seq), n)
            idx = sorted(out)
            assert idx and idx == list(range(idx[0], idx[-1] + 1))  # contiguous
            assert sum(seq[i - 1] for i in out) % n == 0


def test_zero_sum_mod_errors():
    with pytest.raises(PebblingError):
        zero_sum_mod([1, 2], 3)
    with pytest.raises(PebblingError):
        zero_sum_mod([], 0)


def test_pebbling_construction_rejects_empty_merge():
    g = path_graph(2)
    with pytest.raises(PebblingError, match="non-empty subset"):
        pebbling_construction(
            g, 1, [0, 0], lambda u, v, sets: frozenset(), [(0, 1)]
        )


def test_pebbling_construction_rejects_badly_placed_start():
    # Each start payload is checked as it is placed, in index order, so
    # of the two bad starts (indices 2 and 3) index 2 is reported.
    g = path_graph(3)

    def well_placed(v, s):
        return v == 0

    with pytest.raises(
        PebblingError, match="vertex 2 is not well-placed: \\[2\\]"
    ):
        pebbling_construction(
            g, 2, [0, 2, 1], lambda u, v, sets: sets[0], [], well_placed
        )


def test_pebbling_construction_checks_steps_and_combiner():
    g = path_graph(2)
    placements = [0, 0]

    def union(u, v, sets):
        return frozenset().union(*sets)

    out = pebbling_construction(g, 1, placements, union, [(0, 1)])
    assert out == frozenset({1, 2})
    with pytest.raises(PebblingError, match="needs 2 pebbles"):
        pebbling_construction(g, 1, [0], union, [(0, 1)])
    with pytest.raises(PebblingError, match="deliver"):
        pebbling_construction(g, 1, placements, union, [])
    with pytest.raises(PebblingError, match="combiner"):
        pebbling_construction(
            g, 1, placements, lambda u, v, sets: frozenset({99}), [(0, 1)]
        )


@pytest.mark.parametrize(
    "t, placements, steps",
    [
        (-1, [0, 0], [(0, 1)]),  # would read vertex 1's payload
        (7, [0, 0], [(0, 1)]),
        (1, [0, 5], []),
        (1, [0, -1], []),  # would land on vertex 1
    ],
)
def test_pebbling_construction_checks_its_vertices(t, placements, steps):
    def union(u, v, sets):
        return frozenset().union(*sets)

    with pytest.raises(PebblingError, match="not a vertex"):
        pebbling_construction(path_graph(2), t, placements, union, steps)


def test_replay_rejects_badly_placed_merge_at_its_step():
    # Four singletons on vertex 0 of the path 0 -> 1 -> 2; the second
    # combine returns a set that the placement rule rejects at vertex 1.
    g = path_graph(3)
    placements = [0] * 4
    calls = []

    def combiner(u, v, sets):
        calls.append((u, v))
        merged = frozenset().union(*sets)
        return merged if len(calls) != 2 else frozenset({min(merged)})

    def well_placed(v, s):
        return len(s) == 2**v

    steps = [(0, 1), (0, 1), (1, 2)]
    with pytest.raises(PebblingError, match="vertex 1 is not well-placed: \\[3\\]"):
        pebbling_construction(g, 2, placements, combiner, steps, well_placed)
    assert len(calls) == 2


def test_divisor_zero_sum_small_exhaustive():
    for n in (1, 2, 3, 4, 6):
        ds = divisors_of(n)
        for seq in itertools.product(ds, repeat=n):
            out = divisor_zero_sum(n, list(seq))
            assert out
            assert sum(seq[i - 1] for i in out) == n


def test_divisor_zero_sum_validates_input():
    with pytest.raises(PebblingError):
        divisor_zero_sum(4, [1, 2, 3, 4])  # 3 does not divide 4
    with pytest.raises(PebblingError):
        divisor_zero_sum(4, [1, 2])  # wrong length


def test_zero_sum_rejects_non_positive_input():
    with pytest.raises(PebblingError, match="n must be an int >= 1, got 0"):
        divisor_zero_sum(0, [])
    for seq in ([0, 1], [1, -2]):
        with pytest.raises(PebblingError, match="entries must be positive"):
            gcd_zero_sum(2, seq)


def test_gcd_zero_sum_random():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 12)
        seq = [rng.randint(1, 30) for _ in range(n)]
        out = gcd_zero_sum(n, seq)
        assert out and out <= set(range(1, n + 1))
        assert sum(seq[i - 1] for i in out) % n == 0
        assert sum(gcd(n, seq[i - 1]) for i in out) <= n


def test_gcd_zero_sum_matches_existence_oracle():
    # the returned subset is one of those the brute-force oracle knows exist
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 8)
        seq = [rng.randint(1, 20) for _ in range(n)]
        assert zero_mod_subset_exists(seq, n)
        gcd_zero_sum(n, seq)


def test_erdos_lemke_exhaustive_tiny():
    for n in (2, 4, 6, 12):
        for d in divisors_of(n):
            ds = divisors_of(n)
            for seq in itertools.product(ds, repeat=d):
                if d > 3 and n > 6:
                    break  # keep the exhaustive part tiny
                out = erdos_lemke(n, d, list(seq))
                total = sum(seq[i - 1] for i in out)
                assert total % d == 0 and total <= n


def test_erdos_lemke_validates():
    with pytest.raises(PebblingError):
        erdos_lemke(6, 4, [1, 1, 1, 1])  # 4 does not divide 6
    with pytest.raises(PebblingError):
        erdos_lemke(6, 3, [1, 5, 1])  # 5 does not divide 6


def test_erdos_lemke_structured_60():
    seq = [1] * 29 + [2] * 15 + [3] * 10 + [5] * 6
    out = erdos_lemke(60, 60, seq)
    total = sum(seq[i - 1] for i in out)
    assert total % 60 == 0 and 0 < total <= 60


def _golden_zero_sums():
    """Subsets returned on 20 seeded inputs each of ``divisor_zero_sum``
    and ``erdos_lemke`` (d = n) at n in {60, 120, 360, 720}, with entries
    drawn from the divisors <= 6; the ROADMAP Erdos-Lemke sequence; and
    300 seeded ``gcd_zero_sum`` inputs with n in 1..40."""
    rng = random.Random(14)
    out = []
    for n in (60, 120, 360, 720):
        small = [d for d in range(1, 7) if n % d == 0]
        for _ in range(20):
            seq = [rng.choice(small) for _ in range(n)]
            out.append(sorted(divisor_zero_sum(n, seq)))
            seq = [rng.choice(small) for _ in range(n)]
            out.append(sorted(erdos_lemke(n, n, seq)))
    seq = [1] * 29 + [2] * 15 + [3] * 10 + [5] * 6
    out.append(sorted(erdos_lemke(60, 60, seq)))
    for _ in range(300):
        n = rng.randint(1, 40)
        seq = [rng.randint(1, 100) for _ in range(n)]
        out.append(sorted(gcd_zero_sum(n, seq)))
    return out


def test_zero_sum_golden():
    # A change to the replay or to the lattice set-up must return these
    # same subsets, not merely valid ones.
    results = _golden_zero_sums()
    assert len(results) == 461
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "5d7333e6903c86d0fc9e66d534c337c2ad7e670f5b1480b887e3e4c601e91b80"
    )


@pytest.mark.parametrize("kind", [list, tuple, iter])
def test_zero_sum_entry_points_read_their_sequence_once(kind):
    # A tuple of divisors also takes the divisor path of gcd_zero_sum,
    # whose test compares entry by entry.
    seq = [1, 2, 3, 6, 1, 1]
    assert zero_sum_mod(kind([4, 1, 2]), 3) == frozenset({2, 3})
    assert divisor_zero_sum(6, kind(seq)) == divisor_zero_sum(6, seq)
    assert gcd_zero_sum(6, kind(seq)) == divisor_zero_sum(6, seq)
    assert gcd_zero_sum(6, kind([7, 1, 1, 1, 1, 1])) == gcd_zero_sum_oracle(
        6, [7, 1, 1, 1, 1, 1]
    )
    assert erdos_lemke(6, 6, kind(seq)) == divisor_zero_sum(6, seq)
    assert erdos_lemke(6, 3, kind([2, 3, 6])) == erdos_lemke(6, 3, [2, 3, 6])


def test_gcd_zero_sum_on_divisors_is_the_divisor_construction():
    # Every sequence of divisors for n <= 6, then seeded ones at the
    # benchmark's sizes, with entries from the small divisors or from all.
    cases = [
        (n, list(seq))
        for n in range(1, 7)
        for seq in itertools.product(divisors_of(n), repeat=n)
    ]
    rng = random.Random(24)
    for n in (60, 120, 360, 720):
        small = [d for d in range(1, 7) if n % d == 0]
        for pool in (small, divisors_of(n)):
            cases += [(n, [rng.choice(pool) for _ in range(n)]) for _ in range(4)]
    for n, seq in cases:
        out = gcd_zero_sum(n, seq)
        assert out == gcd_zero_sum_oracle(n, seq) == divisor_zero_sum(n, seq)


def test_gcd_zero_sum_general_path_matches_oracle():
    # Inputs with an entry that does not divide n, half of them with every
    # entry at most n.
    rng = random.Random(25)
    tried = 0
    while tried < 300:
        n = rng.randint(2, 40)
        top = n if tried % 2 else 100
        seq = [rng.randint(1, top) for _ in range(n)]
        if all(n % a == 0 for a in seq):
            continue
        tried += 1
        assert gcd_zero_sum(n, seq) == gcd_zero_sum_oracle(n, seq)


def test_erdos_lemke_below_n_matches_the_gcd_oracle():
    # At d < n erdos_lemke is gcd_zero_sum(d, seq).  The entries divide n,
    # and in about half the inputs one does not divide d, so both the
    # divisor path and the general path of gcd_zero_sum are taken.
    rng = random.Random(26)
    paths = set()
    for _ in range(200):
        n = rng.choice([12, 24, 30, 36, 48, 60, 72, 90, 120])
        ds = divisors_of(n)
        d = rng.choice(ds[:-1])
        pool = divisors_of(d) if rng.random() < 0.5 else ds
        seq = [rng.choice(pool) for _ in range(d)]
        paths.add(all(d % a == 0 for a in seq))
        assert erdos_lemke(n, d, seq) == gcd_zero_sum_oracle(d, seq)
    assert paths == {False, True}


def test_bulk_start_check_names_the_first_misplaced_start(monkeypatch):
    # The divisor construction checks its starts in one pass; given a
    # lattice solution whose start vertices are wrong at indices 2 and 4,
    # it reports index 2 with the message the engine gives, checking the
    # starts one by one with the same rule.
    seq = [1, 2, 4, 1]
    g, verts, t, steps = zerosum._lattice_solution(4, seq)
    verts[1], verts[3] = verts[3], verts[1]
    monkeypatch.setattr(
        zerosum, "_lattice_solution", lambda n, starts: (g, verts, t, steps)
    )
    message = r"^payload at vertex 0 is not well-placed: \[2\]$"
    with pytest.raises(PebblingError, match=message):
        divisor_zero_sum(4, seq)

    def well_placed(v, s):
        return sum(seq[i - 1] for i in s) == g.labels[v]

    with pytest.raises(PebblingError, match=message):
        pebbling_construction(g, t, verts, None, steps, well_placed)


@st.composite
def replays(draw):
    """A digraph of 2-5 vertices with weights 2-4, starts, a legal random
    step list (now and then one more step that may be illegal), a target
    (mostly the last step's head), a combiner kind, a seed and a
    placement modulus."""
    nv = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(nv) for v in range(nv) if u != v]
    weights = draw(
        st.lists(st.sampled_from((0, 2, 3, 4)), min_size=len(pairs), max_size=len(pairs))
    )
    g = Graph(nv, tuple((u, v, w) for (u, v), w in zip(pairs, weights) if w))
    starts = draw(st.lists(st.integers(0, nv - 1), min_size=4, max_size=30))
    c = [0] * nv
    for v in starts:
        c[v] += 1
    rng = random.Random(draw(st.integers(0, 10**6)))
    steps, _ = random_legal_steps(rng, g, c, draw(st.integers(1, 12)))
    if g.edges and draw(st.sampled_from((False, False, False, True))):
        steps.append(rng.choice(g.edges)[:2])
    t = draw(st.integers(0, nv - 1))
    if steps and draw(st.sampled_from((True, True, True, False))):
        t = steps[-1][1]
    return (
        g,
        t,
        starts,
        steps,
        draw(st.sampled_from(("union", "first", "subset", "outside"))),
        draw(st.integers(0, 10**6)),
        draw(st.sampled_from((None, None, 4, 40, 400))),
    )


def _logged_replay(engine, g, t, starts, steps, kind, seed, modulus):
    """The engine's answer or error message, and every combiner and
    placement call it made, in order."""
    log = []
    rng = random.Random(seed)

    def combiner(u, v, sets):
        log.append(("combine", u, v, list(sets)))
        union = sorted(frozenset().union(*sets))
        if kind == "union":
            return union
        if kind == "first":
            return sets[0]
        if kind == "outside":
            return {*union, 0}
        return rng.sample(union, rng.randint(1, len(union)))

    def well_placed(v, s):
        log.append(("place", v, s))
        return (v + sum(s)) % modulus != 0

    try:
        out = engine(
            g, t, starts, combiner, steps, None if modulus is None else well_placed
        )
    except PebblingError as exc:
        out = str(exc)
    return out, log


@settings(max_examples=400, deadline=None)
@given(replays())
def test_replay_matches_the_deque_engine(instance):
    assert _logged_replay(pebbling_construction, *instance) == _logged_replay(
        pebbling_construction_oracle, *instance
    )
