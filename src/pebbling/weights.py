"""Weight functions for weight-2 pebbling and exact-rational LP bounds.

A weight function for a target t assigns t weight zero and gives every
supported vertex not adjacent to t a neighbor of at least twice its
weight.  Configurations whose weighted size exceeds the function's total
are then t-solvable by a greedy argument, which yields upper bounds for
pebbling numbers: the covering bound from a family of weight functions,
and a sharper fractional bound from a small linear program.  All
arithmetic is exact (fractions); floating point would invalidate the
certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .configs import Config, text_records
from .errors import PebblingError
from .graphs import Graph, bfs_distances
from .solver import Step


@dataclass(frozen=True)
class WeightFunction:
    target: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise PebblingError("weights must be non-negative")
        if not 0 <= self.target < len(self.weights):
            raise PebblingError("target out of range")

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self.weights) if w > 0)

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def dot(self, c: Config) -> Fraction:
        return sum(
            (w * x for w, x in zip(self.weights, c, strict=True)), Fraction(0)
        )


def add_weight_functions(a: WeightFunction, b: WeightFunction) -> WeightFunction:
    if a.target != b.target:
        raise PebblingError("weight functions have different targets")
    return WeightFunction(
        a.target, tuple(x + y for x, y in zip(a.weights, b.weights, strict=True))
    )


def validate_weight_function(g: Graph, w: WeightFunction) -> bool:
    """Both defining clauses: zero on the target, and every supported
    non-neighbor of the target has a neighbor of at least twice its
    weight.  Only defined for graphs with all edge weights 2."""
    if not g.is_uniform_weight(2):
        raise PebblingError("weight functions require an all-weight-2 graph")
    if len(w.weights) != g.vertex_count:
        raise PebblingError("weight function size mismatch")
    t = w.target
    if w.weights[t] != 0:
        return False
    for u in range(g.vertex_count):
        if u == t or w.weights[u] == 0 or g.has_edge(u, t):
            continue
        if not any(
            w.weights[v] >= 2 * w.weights[u] for _, v, _ in g.out_edges[u]
        ):
            return False
    return True


def wfl_solve(g: Graph, w: WeightFunction, c: Config) -> tuple[Step, ...]:
    """Greedy solution for a configuration with weighted size above |w|.

    While the target is empty, some supported vertex holds two pebbles
    (otherwise the weighted size would be at most |w|); stepping from it
    toward the target, or toward a neighbor of at least double weight,
    never decreases the weighted size, and the total pebble count drops
    every step.
    """
    if not validate_weight_function(g, w):
        raise PebblingError("invalid weight function")
    if not w.dot(c) > w.total():
        raise PebblingError("weighted size must strictly exceed |w|")
    t = w.target
    work = list(c)
    steps: list[Step] = []
    while work[t] == 0:
        u = next(
            (v for v in w.support() if work[v] >= 2),
            None,
        )
        if u is None:
            raise PebblingError("weight invariant broke; no vertex can move")
        if g.has_edge(u, t):
            v = t
        else:
            v = max(
                (v for _, v, _ in g.out_edges[u]
                 if w.weights[v] >= 2 * w.weights[u]),
                key=lambda v: (w.weights[v], -v),
            )
        work[u] -= 2
        work[v] += 1
        steps.append((u, v))
    return tuple(steps)


def covering_bound(g: Graph, ws: list[WeightFunction]) -> int:
    """Pebbling-number bound floor(|w| / m) + 1 from the sum w of a family
    covering every non-target vertex, with m its least positive value."""
    if not ws:
        raise PebblingError("need at least one weight function")
    for w in ws:
        if not validate_weight_function(g, w):
            raise PebblingError("invalid weight function in family")
    total = ws[0]
    for w in ws[1:]:
        total = add_weight_functions(total, w)
    t = total.target
    for v in range(g.vertex_count):
        if v != t and total.weights[v] == 0:
            raise PebblingError(f"weight functions do not cover vertex {v}")
    m = min(total.weights[v] for v in range(g.vertex_count) if v != t)
    return int(total.total() / m) + 1


def cycle_weight_functions(m: int, t: int) -> tuple[WeightFunction, WeightFunction]:
    """The mirror pair of weight functions on the m-cycle that makes the
    covering bound exact: clockwise distance i from t gets weight
    2^(h - i) for 1 <= i <= h, where h is m/2 for even m and (m+1)/2 for
    odd m (one vertex past the antipode); the mirror runs the other way."""
    if m < 3:
        raise PebblingError("cycle needs at least 3 vertices")
    if not 0 <= t < m:
        raise PebblingError("target out of range")
    h = m // 2 if m % 2 == 0 else (m + 1) // 2
    w1 = [Fraction(0)] * m
    w2 = [Fraction(0)] * m
    for i in range(1, h + 1):
        w1[(t + i) % m] = Fraction(2 ** (h - i))
        w2[(t - i) % m] = Fraction(2 ** (h - i))
    return WeightFunction(t, tuple(w1)), WeightFunction(t, tuple(w2))


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to row . x <= bound per constraint
    and x >= 0, with exact rational entries."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        for row, _ in self.constraints:
            if len(row) != len(self.objective):
                raise PebblingError("inconsistent LP dimensions")


def simplex_max(
    lp: LinearProgram,
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact-rational simplex with Bland's anti-cycling rule.

    Returns the optimum, an optimal point, and the dual multipliers (one
    per constraint, read off the slack columns).  Bounds must be
    non-negative so the slack basis is feasible.
    """
    nv = len(lp.objective)
    mc = len(lp.constraints)
    for _, bound in lp.constraints:
        if bound < 0:
            raise PebblingError("LP bounds must be non-negative")
    # rows: [a | slacks | b]; cost row: [-objective | 0 | value]
    rows = [
        list(row) + [Fraction(int(i == j)) for j in range(mc)] + [bound]
        for i, (row, bound) in enumerate(lp.constraints)
    ]
    cost = [-x for x in lp.objective] + [Fraction(0)] * (mc + 1)
    basis = [nv + i for i in range(mc)]

    while True:
        entering = next((j for j in range(nv + mc) if cost[j] < 0), None)
        if entering is None:
            break
        best = None
        for i in range(mc):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise PebblingError("LP is unbounded")
        pivot = best[1]
        pv = rows[pivot][entering]
        rows[pivot] = [x / pv for x in rows[pivot]]
        for i in range(mc):
            if i != pivot and rows[i][entering]:
                f = rows[i][entering]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pivot])]
        if cost[entering]:
            f = cost[entering]
            cost = [x - f * y for x, y in zip(cost, rows[pivot])]
        basis[pivot] = entering

    primal = [Fraction(0)] * nv
    for i, var in enumerate(basis):
        if var < nv:
            primal[var] = rows[i][-1]
    dual = tuple(cost[nv + j] for j in range(mc))
    return cost[-1], tuple(primal), dual


def build_bound_lp(g: Graph, t: int, ws: list[WeightFunction]) -> LinearProgram:
    """LP whose optimum is the largest fractional configuration weight
    compatible with every weight function: maximize the total over
    non-target vertices subject to w_i . c <= |w_i|."""
    for w in ws:
        if not validate_weight_function(g, w):
            raise PebblingError("invalid weight function in family")
        if w.target != t:
            raise PebblingError("weight function target mismatch")
    variables = [v for v in range(g.vertex_count) if v != t]
    objective = tuple(Fraction(1) for _ in variables)
    constraints = tuple(
        (tuple(w.weights[v] for v in variables), w.total()) for w in ws
    )
    return LinearProgram(objective, constraints)


def lp_bound(g: Graph, t: int, ws: list[WeightFunction]) -> int:
    bound, _, _, _ = lp_bound_details(g, t, ws)
    return bound


def lp_bound_details(
    g: Graph, t: int, ws: list[WeightFunction]
) -> tuple[int, Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    lp = build_bound_lp(g, t, ws)
    # Every coefficient is non-negative, so the LP is bounded exactly when
    # every variable has a positive weight in some row.
    if any(not any(w.weights[v] for w in ws) for v in range(g.vertex_count) if v != t):
        raise PebblingError("weight functions do not cover the graph; LP is unbounded")
    optimum, primal, dual = simplex_max(lp)
    return int(optimum) + 1, optimum, primal, dual


def random_weight_function(g: Graph, t: int, rng: random.Random) -> WeightFunction:
    """Random valid weight function, built backward from the target: each
    vertex gets at most half the weight of its best already-assigned
    neighbor, so the defining clauses hold by construction."""
    dist = bfs_distances(g, t)
    if any(d is None for d in dist):
        raise PebblingError("target must be reachable from every vertex")
    weights = [Fraction(0)] * g.vertex_count
    order = sorted(
        (v for v in range(g.vertex_count) if v != t), key=lambda v: (dist[v], v)
    )
    for v in order:
        if g.has_edge(v, t):
            weights[v] = Fraction(rng.randint(0, 8))
        else:
            best = max(
                (weights[u] for _, u, _ in g.out_edges[v] if dist[u] < dist[v]),
                default=Fraction(0),
            )
            weights[v] = best / 2 * Fraction(rng.randint(0, 8), 8)
    return WeightFunction(t, tuple(weights))


def weight_function_to_text(w: WeightFunction) -> str:
    lines = [f"target {w.target}"]
    lines += [
        f"w {v} {x.numerator}/{x.denominator}"
        for v, x in enumerate(w.weights)
        if x
    ]
    return "\n".join(lines) + "\n"


def weight_function_from_text(text: str, vertex_count: int) -> WeightFunction:
    target = None
    weights = [Fraction(0)] * vertex_count
    for keyword, fields in text_records(text, "weight", {"target": 1, "w": 2}):
        if keyword == "target":
            target = int(fields[0])
            continue
        v = int(fields[0])
        if not 0 <= v < vertex_count:
            raise PebblingError(f"vertex {v} out of range")
        try:
            weights[v] = Fraction(fields[1])
        except ZeroDivisionError:
            raise PebblingError(f"zero denominator in weight {fields[1]!r}") from None
    if target is None:
        raise PebblingError("missing 'target' line")
    return WeightFunction(target, tuple(weights))
