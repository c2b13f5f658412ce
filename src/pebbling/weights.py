"""Weight functions for weight-2 pebbling and exact-rational LP bounds.

A weight function for a target t assigns t weight zero and gives every
supported vertex not adjacent to t a neighbor of at least twice its
weight.  Configurations whose weighted size exceeds the function's total
are then t-solvable by a greedy argument, which yields upper bounds for
pebbling numbers: the covering bound from a family of weight functions,
and a sharper fractional bound from a small linear program.  All
arithmetic is exact; floating point would invalidate the certificates, so
weights and LP entries must be ints or Fractions.  The simplex works in
ints over one common denominator and makes Fractions only at its
boundary: the optimum, the optimal point and the duals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from numbers import Rational

from .configs import Config, check_config, check_int, check_vertices, text_records
from .errors import PebblingError
from .graphs import Graph, bfs_distances
from .solver import Step, check_reachable


def _require_exact(values) -> None:
    """Floats would make the bounds and certificates inexact."""
    for x in values:
        if not isinstance(x, Rational):
            raise PebblingError(f"{x!r} is not an exact rational (int or Fraction)")


@dataclass(frozen=True)
class WeightFunction:
    target: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        # kept as a tuple, so a list and a tuple give equal, hashable functions
        object.__setattr__(self, "weights", tuple(self.weights))
        _require_exact(self.weights)
        if any(w < 0 for w in self.weights):
            raise PebblingError("weights must be non-negative")
        check_vertices(len(self.weights), (self.target,), "target")

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
    check_config(c, g.vertex_count)
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


def _family_target(g: Graph, ws: list[WeightFunction], t: int | None = None) -> int:
    """The target of a non-empty family of valid weight functions that all
    share it (t, when given) and together cover every other vertex."""
    if not ws:
        raise PebblingError("need at least one weight function")
    if t is None:
        t = ws[0].target
    for w in ws:
        if not validate_weight_function(g, w):
            raise PebblingError("invalid weight function in family")
        if w.target != t:
            raise PebblingError(f"weight function target {w.target} differs from {t}")
    for v in range(g.vertex_count):
        if v != t and not any(w.weights[v] for w in ws):
            raise PebblingError(f"weight functions do not cover vertex {v}")
    return t


def covering_bound(g: Graph, ws: list[WeightFunction]) -> int:
    """Pebbling-number bound floor(|w| / m) + 1 from the sum w of a family
    covering every non-target vertex, with m its least positive value."""
    t = _family_target(g, ws)
    total = reduce(add_weight_functions, ws)
    m = min((total.weights[v] for v in range(g.vertex_count) if v != t), default=1)
    return int(total.total() / m) + 1


def cycle_weight_functions(m: int, t: int) -> tuple[WeightFunction, WeightFunction]:
    """The mirror pair of weight functions on the m-cycle that makes the
    covering bound exact: clockwise distance i from t gets weight
    2^(h - i) for 1 <= i <= h, where h is m/2 for even m and (m+1)/2 for
    odd m (one vertex past the antipode); the mirror runs the other way."""
    check_int(m, 3, "cycle size")
    check_vertices(m, (t,), "target")
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
        # kept as tuples, read once: no later change to the caller's lists
        # escapes the checks, and a generator of rows is not used up by them
        object.__setattr__(self, "objective", tuple(self.objective))
        rows = tuple((tuple(row), bound) for row, bound in self.constraints)
        object.__setattr__(self, "constraints", rows)
        _require_exact(self.objective)
        for row, bound in self.constraints:
            if len(row) != len(self.objective):
                raise PebblingError("inconsistent LP dimensions")
            _require_exact((*row, bound))


def simplex_max(
    lp: LinearProgram,
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact simplex with Bland's anti-cycling rule.

    Returns the optimum, an optimal point, and the dual multipliers (one
    per constraint, read off the slack columns).  Bounds must be
    non-negative so the slack basis is feasible.  The tableau keeps one
    column per nonbasic variable, all ints over one common denominator d
    (the basis determinant): a pivot on p is the exact update
    (x*p - f*y) // d (Edmonds 1967).
    """
    nv = len(lp.objective)
    if any(b < 0 for _, b in lp.constraints):
        raise PebblingError("LP bounds must be non-negative")
    scales = [lcm(*(x.denominator for x in (*row, b))) for row, b in lp.constraints]
    rows = [
        [x.numerator * (scale // x.denominator) for x in (*row, b)]
        for scale, (row, b) in zip(scales, lp.constraints)
    ]
    unit = lcm(*(x.denominator for x in lp.objective))
    cost = [-x.numerator * (unit // x.denominator) for x in lp.objective] + [0]
    basis = [nv + i for i in range(len(rows))]
    nonbasic = list(range(nv))  # the variable of each column
    # Scaling rows and objective by positive integers changes no ratio and
    # no sign, so Bland's rule makes the pivots of the rational tableau.
    d = 1
    while entering := [(v, j) for j, v in enumerate(nonbasic) if cost[j] < 0]:
        s = min(entering)[1]  # the least variable
        rising = [i for i, row in enumerate(rows) if row[s] > 0]
        if not rising:
            raise PebblingError("LP is unbounded")
        r = min(rising, key=lambda i: (Fraction(rows[i][-1], rows[i][s]), basis[i]))
        pivot_row = rows[r]
        p = pivot_row[s]
        for row in (*rows[:r], *rows[r + 1:], cost):
            f = row[s]
            row[:] = [(x * p - f * y) // d for x, y in zip(row, pivot_row)]
            row[s] = -f
        pivot_row[s] = d
        d = p
        basis[r], nonbasic[s] = nonbasic[s], basis[r]
    primal = [Fraction(0)] * nv
    for var, row in zip(basis, rows):
        if var < nv:
            primal[var] = Fraction(row[-1], d)
    dual = [Fraction(0)] * len(rows)
    for j, var in enumerate(nonbasic):
        if var >= nv:
            dual[var - nv] = Fraction(cost[j] * scales[var - nv], d * unit)
    return Fraction(cost[-1], d * unit), tuple(primal), tuple(dual)


def lp_bound(g: Graph, t: int, ws: list[WeightFunction]) -> int:
    bound, _, _, _ = lp_bound_details(g, t, ws)
    return bound


def lp_bound_details(
    g: Graph, t: int, ws: list[WeightFunction]
) -> tuple[int, Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(floor(optimum) + 1, optimum, primal, dual) of the LP maximizing the
    total over non-target vertices subject to w_i . c <= |w_i|; bounded,
    as the family covers every variable with non-negative weights."""
    check_vertices(g.vertex_count, (t,), "target")
    _family_target(g, ws, t)
    variables = [v for v in range(g.vertex_count) if v != t]
    lp = LinearProgram(
        tuple(Fraction(1) for _ in variables),
        tuple((tuple(w.weights[v] for v in variables), w.total()) for w in ws),
    )
    optimum, primal, dual = simplex_max(lp)
    return int(optimum) + 1, optimum, primal, dual


def random_weight_function(g: Graph, t: int, rng: random.Random) -> WeightFunction:
    """Random valid weight function, built backward from the target: each
    vertex gets at most half the weight of its best already-assigned
    neighbor, so the defining clauses hold by construction."""
    check_reachable(g, t)
    dist = bfs_distances(g, t)
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
    check_int(vertex_count, 1, "vertex count")
    target = None
    weights = [Fraction(0)] * vertex_count
    seen = set()
    for keyword, fields in text_records(
        text, "weight", {"target": (int,), "w": (int, Fraction)}
    ):
        if keyword == "target":
            if target is not None:
                raise PebblingError("repeated 'target' line")
            (target,) = fields
            continue
        v, x = fields
        check_vertices(vertex_count, (v,), "weight index")
        if v in seen:
            raise PebblingError(f"repeated 'w {v}' line")
        seen.add(v)
        weights[v] = x
    if target is None:
        raise PebblingError("missing 'target' line")
    return WeightFunction(target, tuple(weights))
