"""Answer checks for the benchmark, written apart from the program.

Each check takes plain data (edge lists, configurations, step lists,
rationals) and raises ``CheckFailed`` when an answer is wrong.  Nothing here
calls into ``pebbling`` except through the decider callables a caller passes
in, so a fault in the program cannot vouch for its own answer: pebbling
numbers are compared with closed forms, step lists are replayed by
``apply_steps`` below, and LP bounds are re-derived from their primal and
dual vectors in exact rationals.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(AssertionError):
    """An answer of the program failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- closed forms -----------------------------------------------------------


def pi_even_cycle(m: int) -> int:
    """pi(C_2k) = 2^k."""
    return 2 ** (m // 2)


def pi_odd_cycle(m: int) -> int:
    """pi(C_2k+1) = 2 * floor(2^(k+1) / 3) + 1."""
    k = m // 2
    return 2 * (2 ** (k + 1) // 3) + 1


def pi_cycle(m: int) -> int:
    return pi_even_cycle(m) if m % 2 == 0 else pi_odd_cycle(m)


def pi_weighted_hypercube(weights) -> int:
    """pi of the product of weight-k_i edges: the product of the k_i
    (2^d for the unweighted cube Q_d)."""
    out = 1
    for k in weights:
        out *= k
    return out


def pi_complete(n: int, k: int) -> int:
    """K_n with every edge of weight k: (n - 1)(k - 1) + 1."""
    return (n - 1) * (k - 1) + 1


PI_PETERSEN = 10
PI_LEMKE = 8


# --- step certificates ------------------------------------------------------


def apply_steps(edges, config, steps) -> tuple[int, ...]:
    """Replay ``steps`` from ``config`` on a weighted digraph given as
    (u, v, w) triples; every step must use an edge and be paid for."""
    weight = {(u, v): w for u, v, w in edges}
    work = list(config)
    for u, v in steps:
        w = weight.get((u, v))
        require(w is not None, f"step ({u},{v}) uses no edge")
        require(work[u] >= w, f"step ({u},{v}) needs {w}, vertex has {work[u]}")
        work[u] -= w
        work[v] += 1
    return tuple(work)


def check_certificate(edges, config, target, n, steps, final) -> None:
    """A positive answer's step list replays to its reported final
    configuration, which holds at least n pebbles on the target."""
    end = apply_steps(edges, config, steps)
    require(tuple(final) == end, f"steps end at {end}, answer says {tuple(final)}")
    require(end[target] >= n, f"steps leave {end[target]} < {n} on target {target}")


def check_decision(edges, config, target, n, dfs, flow_steps) -> None:
    """The two deciders agree, and each positive answer replays.

    ``dfs`` is ``(solvable, steps, final)`` from the configuration search;
    ``flow_steps`` is ``None`` for an infeasible flow, else the
    ``(steps, final)`` that realizing the flow produced.
    """
    solvable, steps, final = dfs
    require(
        solvable == (flow_steps is not None),
        f"deciders disagree on {config} -> {target} (n={n}): "
        f"search {solvable}, flow {flow_steps is not None}",
    )
    if solvable:
        check_certificate(edges, config, target, n, steps, final)
        check_certificate(edges, config, target, n, *flow_steps)


def check_pi(value, witness, expected, nv, unsolvable) -> None:
    """A pebbling number equals its closed form, and its witness is a
    configuration of size value - 1 that ``unsolvable(witness)`` confirms
    cannot reach the target."""
    require(value == expected, f"pi = {value}, closed form gives {expected}")
    require(witness is not None, "pebbling number came without a witness")
    require(len(witness) == nv, f"witness {witness} is not on {nv} vertices")
    require(all(x >= 0 for x in witness), f"witness {witness} has a negative count")
    require(sum(witness) == value - 1, f"witness {witness} has size {sum(witness)}, not {value - 1}")
    require(unsolvable(witness), f"witness {witness} is solvable by the other decider")


def check_2pp_counterexample(pi, config, unsolvable_checks) -> None:
    """A 2-pebbling-property counterexample has size 2*pi - q + 1, where q
    counts occupied vertices, and no decider solves it 2-fold."""
    q = sum(1 for x in config if x)
    require(
        sum(config) == 2 * pi - q + 1,
        f"counterexample {config} has size {sum(config)}, not 2*{pi}-{q}+1",
    )
    for name, unsolvable in unsolvable_checks:
        require(unsolvable(config), f"counterexample {config} is 2-solvable by {name}")


# --- LP certificates --------------------------------------------------------


def check_lp_certificate(weights, target, bound, optimum, primal, dual) -> None:
    """Exact optimality of the LP behind a weight-function bound.

    The LP maximizes the total of x over the non-target vertices subject to
    w_i . x <= |w_i| and x >= 0.  ``primal`` must be feasible with value
    ``optimum``; ``dual`` must be non-negative, cover every non-target
    vertex (sum_i y_i w_i(v) >= 1) and price the bounds at ``optimum``.
    Together these prove the optimum, and the bound is floor(optimum) + 1.
    """
    weights = [tuple(Fraction(x) for x in w) for w in weights]
    variables = [v for v in range(len(weights[0])) if v != target]
    require(len(primal) == len(variables), "primal vector has the wrong length")
    require(len(dual) == len(weights), "dual vector has the wrong length")
    primal = [Fraction(x) for x in primal]
    dual = [Fraction(y) for y in dual]
    optimum = Fraction(optimum)
    require(all(x >= 0 for x in primal), "primal vector has a negative entry")
    for i, w in enumerate(weights):
        lhs = sum(w[v] * x for v, x in zip(variables, primal))
        require(lhs <= sum(w), f"primal breaks weight function {i}: {lhs} > {sum(w)}")
    require(sum(primal) == optimum, f"primal value {sum(primal)} is not the optimum {optimum}")
    require(all(y >= 0 for y in dual), "dual vector has a negative entry")
    for v in variables:
        cover = sum(y * w[v] for y, w in zip(dual, weights))
        require(cover >= 1, f"dual is infeasible at vertex {v}: {cover} < 1")
    price = sum(y * sum(w) for y, w in zip(dual, weights))
    require(price == optimum, f"dual value {price} is not the optimum {optimum}")
    require(bound == optimum.numerator // optimum.denominator + 1, f"bound {bound} is not floor({optimum}) + 1")


# --- zero-sum subsets -------------------------------------------------------


def _subset_sum(seq, subset) -> int:
    require(len(subset) > 0, "zero-sum subset is empty")
    require(all(1 <= i <= len(seq) for i in subset), f"subset {sorted(subset)} has an index out of range")
    return sum(seq[i - 1] for i in subset)


def check_divisor_zero_sum(n, seq, subset) -> None:
    """n divisors of n: a non-empty subset sums to exactly n."""
    total = _subset_sum(seq, subset)
    require(total == n, f"divisor subset sums to {total}, not {n}")


def check_erdos_lemke(n, d, seq, subset) -> None:
    """d divisors of n: a non-empty subset with sum divisible by d and at
    most n."""
    total = _subset_sum(seq, subset)
    require(total % d == 0, f"Erdos-Lemke subset sum {total} is not divisible by {d}")
    require(total <= n, f"Erdos-Lemke subset sum {total} exceeds {n}")
