"""The benchmark's answer checks accept real answers and reject tampered ones.

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pebbling import (  # noqa: E402
    cycle_graph,
    cycle_weight_functions,
    divisor_zero_sum,
    erdos_lemke,
    is_solvable,
    lemke_graph,
    pebbling_number,
    realize,
    solve_via_flow,
)
from pebbling.weights import lp_bound_details  # noqa: E402


def flow_says_unsolvable(g, t, n=1):
    return lambda c: solve_via_flow(g, tuple(c), t, n) is None


def test_closed_forms():
    assert [checks.pi_cycle(m) for m in range(4, 11)] == [4, 5, 8, 11, 16, 21, 32]
    assert checks.pi_weighted_hypercube((2, 2, 2)) == 8
    assert checks.pi_weighted_hypercube((3, 4)) == 12
    assert checks.pi_complete(4, 3) == 7


def test_pi_accepts_real_answer_and_rejects_tampering():
    g = cycle_graph(8)
    out = pebbling_number(g, 0)
    unsolvable = flow_says_unsolvable(g, 0)
    checks.check_pi(out.value, out.witness_unsolvable, 16, 8, unsolvable)
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_pi(15, out.witness_unsolvable, 16, 8, unsolvable)
    with pytest.raises(CheckFailed, match="size"):
        checks.check_pi(16, (0, 0, 0, 0, 14, 0, 0, 0), 16, 8, unsolvable)
    # Same size, but 7 + 8 pebbles two steps out reach the target.
    with pytest.raises(CheckFailed, match="solvable"):
        checks.check_pi(16, (0, 0, 0, 0, 7, 8, 0, 0), 16, 8, unsolvable)


def test_certificate_replay_rejects_bad_steps():
    g = cycle_graph(4)
    c = (0, 0, 4, 0)
    found = is_solvable(g, c, 0, 1)
    checks.check_certificate(g.edges, c, 0, 1, found.witness, found.final)
    with pytest.raises(CheckFailed, match="uses no edge"):
        checks.check_certificate(g.edges, c, 0, 1, ((2, 0),), (1, 0, 2, 0))
    with pytest.raises(CheckFailed, match="needs 2"):
        checks.check_certificate(g.edges, c, 0, 1, ((2, 1), (1, 0), (1, 0)), (2, 0, 2, 0))
    with pytest.raises(CheckFailed, match="answer says"):
        checks.check_certificate(g.edges, c, 0, 1, found.witness, (1, 0, 1, 0))
    with pytest.raises(CheckFailed, match="on target"):
        checks.check_certificate(g.edges, c, 0, 2, found.witness, found.final)


def test_decision_requires_agreement_and_replay():
    g = cycle_graph(5)
    c = (0, 0, 3, 2, 0)
    found = is_solvable(g, c, 0, 1)
    flow = solve_via_flow(g, c, 0, 1)
    dfs = (found.solvable, found.witness, found.final)
    checks.check_decision(g.edges, c, 0, 1, dfs, realize(g, flow))
    with pytest.raises(CheckFailed, match="disagree"):
        checks.check_decision(g.edges, c, 0, 1, dfs, None)
    steps, final = realize(g, flow)
    with pytest.raises(CheckFailed):
        checks.check_decision(g.edges, c, 0, 1, dfs, (steps[1:], final))


def test_lp_certificate_rejects_broken_duals():
    g = cycle_graph(8)
    ws = list(cycle_weight_functions(8, 0))
    bound, optimum, primal, dual = lp_bound_details(g, 0, ws)
    weights = [w.weights for w in ws]
    checks.check_lp_certificate(weights, 0, bound, optimum, primal, dual)
    half = [y / 2 for y in dual]
    with pytest.raises(CheckFailed, match="infeasible"):
        checks.check_lp_certificate(weights, 0, bound, optimum, primal, half)
    negative = [-dual[0]] + list(dual[1:])
    with pytest.raises(CheckFailed, match="negative"):
        checks.check_lp_certificate(weights, 0, bound, optimum, primal, negative)
    larger = [y * 2 for y in dual]
    with pytest.raises(CheckFailed, match="dual value"):
        checks.check_lp_certificate(weights, 0, bound, optimum, primal, larger)
    with pytest.raises(CheckFailed, match="floor"):
        checks.check_lp_certificate(weights, 0, bound + 1, optimum, primal, dual)
    bigger = [x + Fraction(1, 2) for x in primal]
    with pytest.raises(CheckFailed, match="primal"):
        checks.check_lp_certificate(weights, 0, bound, optimum, bigger, dual)


def test_zero_sum_rejects_wrong_sums():
    seq = [1] * 29 + [2] * 15 + [3] * 10 + [5] * 6
    subset = divisor_zero_sum(60, seq)
    checks.check_divisor_zero_sum(60, seq, subset)
    with pytest.raises(CheckFailed, match="sums to"):
        checks.check_divisor_zero_sum(60, seq, set(sorted(subset)[1:]))
    with pytest.raises(CheckFailed, match="empty"):
        checks.check_divisor_zero_sum(60, seq, set())
    with pytest.raises(CheckFailed, match="out of range"):
        checks.check_divisor_zero_sum(60, seq, set(subset) | {61})
    subset = erdos_lemke(60, 60, seq)
    checks.check_erdos_lemke(60, 60, seq, subset)
    with pytest.raises(CheckFailed, match="divisible"):
        checks.check_erdos_lemke(60, 60, seq, set(sorted(subset)[1:]))
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_erdos_lemke(60, 1, seq, set(range(1, 61)))


def test_2pp_counterexample_checks_size_and_both_deciders():
    g = lemke_graph()
    deciders = [
        ("is_solvable", lambda c: not is_solvable(g, c, 0, 2).solvable),
        ("solve_via_flow", flow_says_unsolvable(g, 0, 2)),
    ]
    checks.check_2pp_counterexample(8, (0, 0, 0, 1, 1, 1, 1, 8), deciders)
    with pytest.raises(CheckFailed, match="size"):
        checks.check_2pp_counterexample(8, (0, 0, 0, 1, 1, 1, 1, 9), deciders)
    # Right size for q = 3, but 2-solvable.
    with pytest.raises(CheckFailed, match="2-solvable"):
        checks.check_2pp_counterexample(8, (0, 4, 5, 0, 0, 0, 0, 5), deciders)
