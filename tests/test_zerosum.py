import hashlib
import itertools
import random
from math import gcd

import pytest

from pebbling.errors import PebblingError
from pebbling.graphs import path_graph
from pebbling.zerosum import (
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
