"""Pebble flows: per-edge step counts abstracted away from step order.

A flow pairs a configuration with a count per edge.  Its excess
``x(v) = c(v) + in(v) - out*(v)`` (where out* weighs each outgoing count by
the edge weight) is exactly the pebble count at v after firing all counted
steps, independent of order.  A feasible flow (x >= 0 everywhere) can
always be turned back into a legal step sequence, so deciding solvability
reduces to finding integer edge counts with x >= 0 and x(t) >= n --- an
integer-programming feasibility problem solved here by branch and bound.

The branch and bound caps each count with two exact budgets: the pebbles
that may be lost, |c| - n, and the part of the potential
sum(c(v) * L / cost(v)) above n * L (the basic weight function of
Hurlbert's Weight Function Lemma); a feasible flow spends no more of
either.  A partial assignment is kept while every vertex can still end
with its need, read off two per-vertex lists: its slack, and its slack
plus the caps still open into it.  Only the edge being opened and the
pebbles spent move with its count, so the counts that keep this are an
interval, computed once per edge; the search tries only those.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .configs import (
    Config,
    check_config,
    check_int,
    config_from_pairs,
    config_to_text,
    text_records,
)
from .errors import PebblingError
from .graphs import Graph, bfs_distances
from .solver import Step, _potential, _pre_search, _target, replay

FlowMap = dict[tuple[int, int], int]


@dataclass(frozen=True)
class PebbleFlow:
    graph: Graph
    config: Config
    flow: FlowMap

    def __post_init__(self):
        check_config(self.config, self.graph.vertex_count)
        # kept as a tuple, so a list and a tuple give equal flows
        object.__setattr__(self, "config", tuple(self.config))
        # a copy, so no later change to the caller's map escapes the checks
        object.__setattr__(self, "flow", dict(self.flow))
        for (u, v), count in self.flow.items():
            self.graph.weight(u, v)
            check_int(count, 0, "flow count")

    def count(self, u: int, v: int) -> int:
        return self.flow.get((u, v), 0)

    def inflow(self, v: int) -> int:
        return sum(self.count(u, v) for u, _, _ in self.graph.in_edges[v])

    def outflow(self, v: int) -> int:
        return sum(self.count(v, u) for _, u, _ in self.graph.out_edges[v])

    def excess(self, v: int) -> int:
        return self.excess_vector()[v]

    def excess_vector(self) -> tuple[int, ...]:
        x = list(self.config)
        weight = self.graph.weight_map
        for (u, v), k in self.flow.items():
            x[u] -= weight[(u, v)] * k
            x[v] += k
        return tuple(x)

    def total_count(self) -> int:
        return sum(self.flow.values())


def is_feasible(f: PebbleFlow) -> bool:
    return all(x >= 0 for x in f.excess_vector())


def is_realized(f: PebbleFlow) -> bool:
    return all(c >= x for c, x in zip(f.config, f.excess_vector()))


def flow_from_steps(g: Graph, c: Config, steps) -> PebbleFlow:
    """Count steps per edge, in first-occurrence order, after checking they
    replay legally from c; ``steps`` may be any iterable of steps."""
    steps = tuple(steps)
    replay(g, c, steps)
    return PebbleFlow(g, c, dict(Counter(steps)))


def unidirectional(f: PebbleFlow) -> PebbleFlow:
    """Cancel opposing edge pairs down to one direction.  Each cancelled
    opposing unit frees weight - 1 pebbles, so no excess decreases."""
    out: FlowMap = {}
    for (u, v), count in f.flow.items():
        reduced = count - min(count, f.count(v, u))
        if reduced:
            out[(u, v)] = reduced
    return PebbleFlow(f.graph, f.config, out)


def realize(g: Graph, f: PebbleFlow) -> tuple[tuple[Step, ...], Config]:
    """Turn a feasible flow into a legal step sequence whose final
    configuration dominates the flow's excess.

    While some vertex holds fewer pebbles than its excess demands, a
    vertex with remaining inflow below remaining outflow must exist; the
    lowest-id such vertex fires its minimum (weight, head) remaining
    outflow edge.  Every fired step keeps the excess (with respect to the
    remaining flow) unchanged, and cyclic remainders are simply never
    fired.  Kept as state are the remaining in- and outflow counts, the
    number of vertices below their excess and, per vertex, rows [weight,
    head, count left] of the out-edges still to fire, largest first so the
    next is last.  Firing u -> v can make only v newly fireable, so the
    scan resumes at u and moves back only to such a v < u, not to 0.
    """
    if f.graph is not g:
        f = PebbleFlow(g, f.config, f.flow)
    target_excess = f.excess_vector()
    if any(x < 0 for x in target_excess):
        raise PebblingError("cannot realize an infeasible flow")
    nv = g.vertex_count
    work = list(f.config)
    inflow = [0] * nv
    outflow = [0] * nv
    outs: list[list[list[int]]] = [[] for _ in range(nv)]
    for (u, v), count in f.flow.items():
        if count:
            outflow[u] += count
            inflow[v] += count
            outs[u].append([g.weight(u, v), v, count])
    for row in outs:
        row.sort(reverse=True)
    below = sum(1 for w, x in zip(work, target_excess) if w < x)
    steps: list[Step] = []
    u = 0  # no vertex below u is fireable
    while below:
        while u < nv and inflow[u] >= outflow[u]:
            u += 1
        if u == nv:
            raise PebblingError("no fireable vertex found; flow inconsistent")
        row = outs[u][-1]
        wt, v, _ = row
        if work[u] < wt:
            raise PebblingError("flow is not realizable step by step")
        for x, delta in ((u, -wt), (v, 1)):
            below -= work[x] < target_excess[x]
            work[x] += delta
            below += work[x] < target_excess[x]
        outflow[u] -= 1
        inflow[v] -= 1
        row[2] -= 1
        if not row[2]:
            outs[u].pop()
        steps.append((u, v))
        if v < u and inflow[v] < outflow[v]:
            u = v
    return tuple(steps), tuple(work)


def flow_to_text(f: PebbleFlow) -> str:
    lines = [config_to_text(f.config).rstrip("\n")] if any(f.config) else []
    lines += [
        f"flow {u} {v} {count}"
        for (u, v), count in sorted(f.flow.items())
        if count
    ]
    return "\n".join(line for line in lines if line) + "\n"


def flow_from_text(g: Graph, text: str) -> PebbleFlow:
    pairs = []
    flow: FlowMap = {}
    for keyword, fields in text_records(
        text, "flow", {"pebbles": (int, int), "flow": (int, int, int)}
    ):
        if keyword == "pebbles":
            pairs.append(fields)
        else:
            u, v, count = fields
            check_int(count, 0, "flow count")  # per line: repeated lines add up
            flow[(u, v)] = flow.get((u, v), 0) + count
    return PebbleFlow(g, config_from_pairs(g.vertex_count, pairs), flow)


def solve_via_flow(g: Graph, c: Config, t: int, n: int) -> PebbleFlow | None:
    """Find a feasible flow with excess at least n on t, or prove there is
    none; this decides n-fold t-solvability exactly.

    The opening shared with the configuration search
    (``solver._pre_search``) gives most answers, a solved one as the count
    per edge of the greedy's steps; the complete fallback is depth-first
    branch and bound over per-edge counts, edges ordered by the head's
    distance to t and values tried descending.  Two budgets cap
    the counts: a unit on an edge of weight w loses w - 1 pebbles of the
    |c| - n that can go, and takes the edge's ``drop`` off the potential
    of the ``solver._target`` record, which must end at n * L or more.  A
    partial assignment is cut when some vertex cannot end with its need
    (n at t, 0 elsewhere) even if every open edge into it took its cap, or
    took all the pebbles still allowed to go; what the opening leaves
    never cuts the empty assignment.  Both cuts only drop subtrees
    without a feasible leaf, so the first leaf found, the returned flow,
    does not depend on them.

    The cut is monotone in the count x of the edge (u, v, w) being
    opened: only u, v and the pebbles spent move with x.  So the counts
    that pass form an interval [lo, hi], computed when the edge opens
    from u, v and one ``min`` over the other vertices, and the walk tries
    hi, hi - 1, ..., lo; a count outside it has no subtree to search.
    """
    opening = _pre_search(g, c, t, n)
    if opening is not None:
        return PebbleFlow(g, c, dict(Counter(opening.witness))) if opening else None

    # The opening answers whenever the potential is below n * L, and the
    # potential is at most |c| * L.  So here both budgets are not negative.
    rec = _target(g, t)
    total = sum(c)
    dist = bfs_distances(g, t)
    budget = total - n  # every flow unit on weight w destroys w - 1 pebbles
    pot_budget = _potential(rec, c) - n * rec.scale
    # Each edge with its cap; an edge whose cap is 0 can only carry 0, so
    # it is left out of the search.
    edges = []
    for u, v, w, drop in sorted(
        rec.edges, key=lambda e: (dist[e[1]] if dist[e[1]] is not None else total, e)
    ):
        cap = budget // (w - 1)
        if drop:
            cap = min(cap, pot_budget // drop)
        if cap:
            edges.append((u, v, w, drop, cap))

    # slack[v]: c(v) + assigned inflow - weighted assigned outflow - need;
    # reach[v]: slack[v] plus the caps of the open edges into v.  A vertex
    # can end with its need exactly when slack + min(open caps, pebbles
    # still allowed to go) >= 0, that is when reach >= 0 and
    # slack >= spent - budget.  Each edge's interval assumes this holds
    # before its count is set; the opening makes it hold for the empty
    # assignment.  Let m be the least cost of a vertex other than t: the
    # potential bound n * L gives |c| - c(t) >= m (n - c(t)), and that
    # vertex's edge into t has drop 0 and cap budget // (m - 1) >=
    # n - c(t) >= 1.  So every reach is >= 0, every slack is >= -budget,
    # and edges is not empty.
    slack = list(c)
    slack[t] -= n
    reach = slack[:]
    for _, v, _, _, cap in edges:
        reach[v] += cap

    # Depth-first over the edges in order with an explicit stack: the
    # edge being opened is edges[len(assignment)].  Opening it,
    # (u, v, w), takes its cap out of reach[v].  A count x then passes
    # when, with room = budget - spent:
    #   reach[u] - w x >= 0 and slack[u] - w x >= spent + (w - 1) x - budget;
    #   reach[v] + x >= 0 and slack[v] + x >= spent + (w - 1) x - budget;
    #   slack[y] >= spent + (w - 1) x - budget for every other y.
    # After the last edge, reach equals slack and this is the exact
    # excess check.  Every bound on x but lo is at least 0 while the
    # conditions held before, so when reach[u] < w the interval is [0, 0]
    # or empty, with no other bound to compute.
    assignment: list[int] = []
    spent = pot_spent = 0
    while len(assignment) < len(edges):
        u, v, w, drop, cap = edges[len(assignment)]
        reach[v] -= cap
        lo = -reach[v] if reach[v] < 0 else 0
        hi = reach[u] // w
        if hi and hi >= lo:
            room = budget - spent
            # min(slack) over y != v: u stands in for v, as u != v.
            held = slack[v]
            slack[v] = slack[u]
            hi = min(
                hi,
                room // (w - 1),
                (slack[u] + room) // (2 * w - 1),
                (min(slack) + room) // (w - 1),
            )
            slack[v] = held
            if w > 2:
                hi = min(hi, (held + room) // (w - 2))
            if drop:
                hi = min(hi, (pot_budget - pot_spent) // drop)
        value = hi
        while value < lo:
            # This edge is exhausted: reopen it, back up to the one before.
            reach[v] += cap
            if not assignment:
                return None
            value = assignment.pop()
            u, v, w, drop, cap = edges[len(assignment)]
            if value:
                slack[v] -= value
                reach[v] -= value
                slack[u] += w * value
                reach[u] += w * value
                spent -= (w - 1) * value
                pot_spent -= drop * value
            value -= 1
            lo = -reach[v] if reach[v] < 0 else 0
        if value:
            slack[v] += value
            reach[v] += value
            slack[u] -= w * value
            reach[u] -= w * value
            spent += (w - 1) * value
            pot_spent += drop * value
        assignment.append(value)
    flow = {
        (u, v): count
        for (u, v, _, _, _), count in zip(edges, assignment)
        if count
    }
    return PebbleFlow(g, c, flow)
