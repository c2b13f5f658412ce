import itertools
import random
from math import gcd

import pytest

from pebbling.errors import PebblingError
from pebbling.graphs import path_graph
from pebbling.zerosum import (
    PayloadState,
    divisor_zero_sum,
    erdos_lemke,
    gcd_zero_sum,
    pebbling_construction,
    zero_sum_mod,
)
from oracles import zero_mod_subset_exists


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


def test_payload_state_invariants():
    s = PayloadState(2)
    s.place(0, frozenset({1}))
    s.place(1, frozenset({2}))
    s.check()
    s.place(0, frozenset({2}))  # overlaps the set at vertex 1
    with pytest.raises(PebblingError, match="overlapping"):
        s.check()
    s2 = PayloadState(1)
    s2.place(0, frozenset())
    with pytest.raises(PebblingError, match="empty"):
        s2.check()


def test_pebbling_construction_checks_steps_and_combiner():
    g = path_graph(2)
    placements = {1: 0, 2: 0}

    def union(u, v, sets):
        return frozenset().union(*sets)

    out = pebbling_construction(g, 1, placements, union, [(0, 1)])
    assert out == frozenset({1, 2})
    with pytest.raises(PebblingError, match="needs 2 pebbles"):
        pebbling_construction(g, 1, {1: 0}, union, [(0, 1)])
    with pytest.raises(PebblingError, match="deliver"):
        pebbling_construction(g, 1, placements, union, [])
    with pytest.raises(PebblingError, match="combiner"):
        pebbling_construction(
            g, 1, placements, lambda u, v, sets: frozenset({99}), [(0, 1)]
        )


def test_replay_rejects_badly_placed_merge_at_its_step():
    # Four singletons on vertex 0 of the path 0 -> 1 -> 2; the second
    # combine returns a set that the placement rule rejects at vertex 1.
    g = path_graph(3)
    placements = {i: 0 for i in range(1, 5)}
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
