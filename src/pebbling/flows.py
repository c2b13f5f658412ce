"""Pebble flows: per-edge step counts abstracted away from step order.

A flow pairs a configuration with a count per edge.  Its excess
``x(v) = c(v) + in(v) - out*(v)`` (where out* weighs each outgoing count by
the edge weight) is exactly the pebble count at v after firing all counted
steps, independent of order.  A feasible flow (x >= 0 everywhere) can
always be turned back into a legal step sequence, so deciding solvability
reduces to finding integer edge counts with x >= 0 and x(t) >= n --- an
integer-programming feasibility problem solved here by branch and bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configs import Config, config_from_pairs, config_to_text, text_records
from .errors import PebblingError
from .graphs import Graph, bfs_distances
from .solver import Step, _pre_search, replay

FlowMap = dict[tuple[int, int], int]


@dataclass(frozen=True)
class PebbleFlow:
    graph: Graph
    config: Config
    flow: FlowMap

    def __post_init__(self):
        if len(self.config) != self.graph.vertex_count:
            raise PebblingError("configuration size mismatch")
        for (u, v), count in self.flow.items():
            if not self.graph.has_edge(u, v):
                raise PebblingError(f"flow on missing edge ({u},{v})")
            if count < 0:
                raise PebblingError(f"negative flow on edge ({u},{v})")

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
    """Count steps per edge after checking they replay legally from c."""
    replay(g, c, steps)
    flow: FlowMap = {}
    for step in steps:
        flow[step] = flow.get(step, 0) + 1
    return PebbleFlow(g, c, flow)


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
    fired.  A step costs O(V): the remaining in- and outflow counts, the
    out-edges still to fire (largest (weight, head) first, so the next is
    last) and the number of vertices below their excess are kept as state.
    """
    if f.graph is not g:
        f = PebbleFlow(g, f.config, f.flow)
    target_excess = f.excess_vector()
    if any(x < 0 for x in target_excess):
        raise PebblingError("cannot realize an infeasible flow")
    nv = g.vertex_count
    work = list(f.config)
    remaining = {e: count for e, count in f.flow.items() if count}
    inflow = [0] * nv
    outflow = [0] * nv
    outs: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for (u, v), count in remaining.items():
        outflow[u] += count
        inflow[v] += count
        outs[u].append((g.weight(u, v), v))
    for row in outs:
        row.sort(reverse=True)
    below = sum(1 for w, x in zip(work, target_excess) if w < x)
    steps: list[Step] = []
    while below:
        u = next((w for w in range(nv) if inflow[w] < outflow[w]), None)
        if u is None:
            raise PebblingError("no fireable vertex found; flow inconsistent")
        wt, v = outs[u][-1]
        if work[u] < wt:
            raise PebblingError("flow is not realizable step by step")
        for x, delta in ((u, -wt), (v, 1)):
            below -= work[x] < target_excess[x]
            work[x] += delta
            below += work[x] < target_excess[x]
        outflow[u] -= 1
        inflow[v] -= 1
        remaining[(u, v)] -= 1
        if not remaining[(u, v)]:
            outs[u].pop()
        steps.append((u, v))
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
    for keyword, fields in text_records(text, "flow", {"pebbles": 2, "flow": 3}):
        if keyword == "pebbles":
            pairs.append((int(fields[0]), int(fields[1])))
        else:
            u, v, count = map(int, fields)
            flow[(u, v)] = flow.get((u, v), 0) + count
    return PebbleFlow(g, config_from_pairs(g.vertex_count, pairs), flow)


def solve_via_flow(g: Graph, c: Config, t: int, n: int) -> PebbleFlow | None:
    """Find a feasible flow with excess at least n on t, or prove there is
    none; this decides n-fold t-solvability exactly.

    The opening shared with the configuration search
    (``solver._pre_search``) gives most answers; the complete fallback is
    depth-first branch and bound over per-edge counts, edges ordered by
    the head's distance to t and values tried descending.
    """
    opening = _pre_search(g, c, t, n)
    if opening is not None:
        return flow_from_steps(g, c, opening.witness) if opening else None

    # The opening answers whenever the potential, at most |c| * L, is below
    # n * L.  So here the budget |c| - n is not negative, and edges[0]
    # exists: without an edge only t has a finite cost, and the potential
    # is c(t) * L < n * L.
    total = sum(c)
    dist = bfs_distances(g, t)
    edges = sorted(
        g.edges, key=lambda e: (dist[e[1]] if dist[e[1]] is not None else total, e)
    )
    budget = total - n  # every flow unit on weight w destroys w - 1 pebbles
    caps = [budget // (w - 1) for _, _, w in edges]

    nv = g.vertex_count
    in_open = [0] * nv   # cap sum of not-yet-assigned in-edges
    for (u, v, w), cap in zip(edges, caps):
        in_open[v] += cap
    in_got = list(c)     # c(v) + assigned inflow
    out_spent = [0] * nv  # assigned weighted outflow

    def feasible_completion(spent: int) -> bool:
        left = budget - spent
        for v in range(nv):
            best = in_got[v] + min(in_open[v], left) - out_spent[v]
            if best < (n if v == t else 0):
                return False
        return True

    # Depth-first over the edges in order with an explicit stack:
    # assignment holds the values of edges[:i], and value is the next one
    # to try on edge i = (u, v, w), which is open (its cap is out of
    # in_open).  After the last edge, in_open is all zero and
    # feasible_completion is the exact excess check.
    assignment: list[int] = []
    i = spent = 0
    u, v, w = edges[0]
    in_open[v] -= caps[0]
    value = caps[0]
    while True:
        if value < 0:
            # Edge i is exhausted: reopen it, back up to edge i - 1.
            in_open[v] += caps[i]
            if i == 0:
                return None
            i -= 1
            u, v, w = edges[i]
            value = assignment.pop()
            in_got[v] -= value
            out_spent[u] -= w * value
            spent -= (w - 1) * value
            value -= 1
            continue
        in_got[v] += value
        out_spent[u] += w * value
        used = spent + (w - 1) * value
        if not feasible_completion(used):
            in_got[v] -= value
            out_spent[u] -= w * value
            value -= 1
            continue
        assignment.append(value)
        i += 1
        if i == len(edges):
            break
        spent = used
        u, v, w = edges[i]
        in_open[v] -= caps[i]
        value = (budget - spent) // (w - 1)
    flow = {
        (u, v): count
        for (u, v, _), count in zip(edges, assignment)
        if count
    }
    return PebbleFlow(g, c, flow)
