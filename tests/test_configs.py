import math

import pytest
from hypothesis import given, settings, strategies as st

from pebbling.configs import (
    add,
    bounded_configs,
    config_from_json,
    config_from_pairs,
    config_from_text,
    config_to_text,
    enumerate_configs,
    enumerate_configs_with_support,
    extract_blocks,
    extract_single_block,
    is_subconfig,
    reduced_size,
    size,
    subtract,
    support,
    support_count,
)
from pebbling.errors import PebblingError

configs3 = st.tuples(*[st.integers(0, 4)] * 3)


def test_reduced_size_examples():
    assert reduced_size((15, 0, 0), 3) == 15
    assert reduced_size((13, 13), 3) == 24
    assert reduced_size((0, 0), 5) == 4  # literal formula on empty support


def test_reduced_size_single_support_equals_size():
    for k in range(1, 5):
        assert reduced_size((0, 7, 0), k) == 7


def test_extract_blocks_examples():
    extraction, residual = extract_blocks((7,), 2, 3)
    assert extraction == {0: 3} and residual == (1,)
    extraction, residual = extract_blocks((1, 1, 1), 2, 0)
    assert extraction == {} and residual == (1, 1, 1)
    extraction, residual = extract_blocks((3, 3), 2, 2)
    assert sum(extraction.values()) == 2
    assert all(x >= 0 for x in residual)


def test_extract_blocks_insufficient():
    with pytest.raises(PebblingError, match="insufficient reduced size"):
        extract_blocks((1, 1, 1), 2, 2)  # r_2 = 1 < 4


def test_extract_single_block():
    v, residual = extract_single_block((5,), 4, 4)
    assert v == 0 and residual == (1,)
    with pytest.raises(PebblingError):
        extract_single_block((2, 2), 3, 3)  # r_3 = 2 < 3
    v, residual = extract_single_block((3, 2), 3, 3)
    assert residual == (0, 2)
    assert reduced_size(residual, 3) >= reduced_size((3, 2), 3) - 3


def test_extraction_matches_brute_force_capacity():
    # Whenever the reduced-size bound admits n blocks, a simple per-vertex
    # count shows they physically exist, and the greedy extraction agrees.
    from oracles import max_extractable_blocks

    for c in enumerate_configs(3, 8):
        for k in (2, 3):
            for n in range(0, 5):
                if reduced_size(c, k) >= n * k:
                    assert max_extractable_blocks(c, k) >= n
                    extraction, residual = extract_blocks(c, k, n)
                    assert sum(extraction.values()) == n
                    assert all(x >= 0 for x in residual)
                    assert sum(residual) == size(c) - n * k


def test_enumerate_counts():
    for n in range(1, 6):
        for k in range(0, 9):
            items = list(enumerate_configs(n, k))
            assert len(items) == math.comb(k + n - 1, n - 1)
            assert len(set(items)) == len(items)
            assert items == sorted(items)
            assert all(sum(c) == k for c in items)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.integers(0, 4),
    st.integers(0, 14),
    st.integers(-2, 7),
    st.one_of(st.none(), st.integers(-2, 7)),
)
def test_bounded_configs_is_the_filtered_enumeration(cost, n, p, q_lo, q_hi):
    # The window may be empty (q_lo > q_hi) or lie partly or wholly
    # outside 0..len(cost).
    cost = tuple(cost)
    expected = [
        c
        for c in enumerate_configs(len(cost), p)
        if sum(x // w for x, w in zip(c, cost)) < n
    ]
    assert list(bounded_configs(p, cost, n - 1)) == expected
    hi = len(cost) if q_hi is None else q_hi
    windowed = [c for c in expected if q_lo <= support_count(c) <= hi]
    assert list(bounded_configs(p, cost, n - 1, q_lo, q_hi)) == windowed


def test_enumerate_with_support_partitions_by_support():
    for n in range(1, 5):
        for k in range(-1, 7):
            whole = sorted(enumerate_configs(n, k)) if k >= 0 else []
            split = sorted(
                c
                for q in range(n + 1)
                for c in enumerate_configs_with_support(n, k, q)
            )
            assert whole == split
            for q in range(n + 1):
                assert all(
                    support_count(c) == q
                    for c in enumerate_configs_with_support(n, k, q)
                )


@given(configs3, configs3)
def test_superadditivity(c1, c2):
    # Combining loses at most one support merge: r(c1+c2) is at least
    # r(c1) + r(c2) - (k-1), and is truly superadditive when the supports
    # share a vertex (the merged support is then strictly smaller than the
    # disjoint union).
    for k in range(1, 5):
        r1, r2 = reduced_size(c1, k), reduced_size(c2, k)
        total = reduced_size(add(c1, c2), k)
        assert total >= r1 + r2 - (k - 1)
        if set(support(c1)) & set(support(c2)):
            assert total >= r1 + r2


@given(configs3, configs3)
def test_add_subtract_round_trip(c1, c2):
    total = add(c1, c2)
    assert subtract(total, c2) == c1
    assert is_subconfig(c1, total)


def test_subtract_requires_subconfig():
    with pytest.raises(PebblingError):
        subtract((1, 0), (0, 1))


def test_support_helpers():
    assert support((0, 2, 0, 1)) == (1, 3)
    assert support_count((0, 2, 0, 1)) == 2
    assert size((0, 2, 0, 1)) == 3


def test_text_round_trip():
    c = (0, 4, 0, 1)
    assert config_from_text(config_to_text(c), 4) == c
    assert config_from_text("# empty\n", 3) == (0, 0, 0)


def test_json_and_pairs():
    assert config_from_json("[1, 0, 2]", 3) == (1, 0, 2)
    with pytest.raises(PebblingError):
        config_from_json("[1, -1]", 2)
    assert config_from_pairs(3, [(0, 1), (0, 2)]) == (3, 0, 0)
    with pytest.raises(PebblingError):
        config_from_pairs(2, [(5, 1)])


def test_json_rejects_booleans():
    # bool is a subclass of int, but true is not a pebble count.
    with pytest.raises(PebblingError):
        config_from_json("[true, 0, 0]", 3)
