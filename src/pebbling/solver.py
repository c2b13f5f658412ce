"""Exact pebbling semantics: step application, solvability, pebbling
numbers, the 2-pebbling property, tau-verification and optimal pebbling.

Solvability is decided by depth-first search over the configuration graph
with a per-call memo of failed configurations; termination holds because
every step strictly decreases the total pebble count.  Two cheap bounds
avoid most searches:

* sufficient: vertices can independently deliver floor(c(v)/cost(v))
  pebbles to the target, where cost(v) is the cheapest product of edge
  weights along a path to the target;
* necessary: the potential sum(c(v)/cost(v)) never increases under a
  pebbling step, so a configuration with potential below n is not n-fold
  solvable.  It is kept as an integer scaled by L, the lcm of the costs:
  sum(c(v) * (L // cost(v))) is compared against n * L, and one step on
  (u, v) changes it by a fixed amount, so the search updates it in O(1).

Everything a decision toward a target t reads (the costs, the potential
weights, the greedy's move table and the search's edges with their
potential drops) is one ``_Target`` record, built once per (graph, t).
Positive answers carry a step list that replays to the reported final
configuration; the greedy concentration in ``_greedy_steps`` supplies most
of them.  Both exact deciders, ``is_solvable`` here and
``flows.solve_via_flow``, open with the same ``_pre_search`` step.

The exhaustive walks (``configs.bounded_configs``) visit only what can
change their answer: the pi scan and the 2PP check walk t's box
sum(c(v) // cost(v)) < n, outside which independent delivery solves c, and
the 2PP check and ``verify_tau`` cut the walk to a support-size window.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import configs
from .configs import Config, bounded_configs, enumerate_configs
from .errors import PebblingError
from .graphs import Graph

Step = tuple[int, int]


@dataclass(frozen=True)
class SolveResult:
    solvable: bool
    witness: tuple[Step, ...] | None = None
    final: Config | None = None

    def __bool__(self) -> bool:
        return self.solvable


def apply_step(g: Graph, c: Config, u: int, v: int) -> Config:
    """Fire edge (u, v): remove its weight from u, add one pebble at v."""
    return replay(g, c, ((u, v),))


def replay(g: Graph, c: Config, steps) -> Config:
    work = list(c)
    for u, v in steps:
        w = g.weight(u, v)
        if work[u] < w:
            raise PebblingError(f"vertex {u} has {work[u]} pebbles, step needs {w}")
        work[u] -= w
        work[v] += 1
    return tuple(work)


def _check_instance(g: Graph, c: Config | None, t: int, n: int) -> None:
    """Reject a target that is not a vertex, a negative n, or a
    configuration whose length is not the vertex count."""
    if not 0 <= t < g.vertex_count:
        raise PebblingError(f"target {t} is not a vertex (0..{g.vertex_count - 1})")
    if n < 0:
        raise PebblingError(f"need n >= 0, got {n}")
    if c is not None and len(c) != g.vertex_count:
        raise PebblingError(
            f"configuration has {len(c)} entries for {g.vertex_count} vertices"
        )


@dataclass(frozen=True)
class _Target:
    """What every decision toward one target t reads, built once per
    (graph, t) by ``_target``: ``cost`` from ``Graph.cost_to``, the
    potential's ``scale`` L and ``weight`` L // cost(v) (0 where t is
    unreachable), the greedy's ``moves`` (each vertex u with a loss-free
    edge, cost(u) = weight * cost(head), by descending (cost(u), u), with
    its (head, weight) moves by ascending (cost(head), head, weight)), and
    the sorted ``edges`` as (u, v, w, drop), drop being what one step on
    (u, v) takes off the potential."""

    cost: tuple[int | None, ...]
    scale: int
    weight: tuple[int, ...]
    moves: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    edges: tuple[tuple[int, int, int, int], ...]


def _target(g: Graph, t: int) -> _Target:
    """The ``_Target`` record of (g, t), cached on g."""
    try:
        return g.__dict__["_targets"][t]
    except KeyError:
        pass
    cost = g.cost_to(t)
    scale = math.lcm(*(cv for cv in cost if cv is not None))
    weight = tuple(0 if cv is None else scale // cv for cv in cost)
    moves = []
    reachable = [(cu, u) for u, cu in enumerate(cost) if cu is not None]
    for cu, u in sorted(reachable, reverse=True):
        row = sorted(
            (cost[v], v, w)
            for _, v, w in g.out_edges[u]
            if cost[v] is not None and cu == w * cost[v]
        )
        if row:
            moves.append((u, tuple((v, w) for _, v, w in row)))
    edges = tuple((u, v, w, w * weight[u] - weight[v]) for u, v, w in g.edges)
    rec = _Target(cost, scale, weight, tuple(moves), edges)
    g.__dict__.setdefault("_targets", {})[t] = rec
    return rec


def _deliverable(rec: _Target, c: Config) -> int:
    """Lower bound for pebbles movable to t: independent greedy delivery."""
    cost = rec.cost
    total = 0
    for v, x in enumerate(c):
        if x and cost[v] is not None:
            total += x // cost[v]
    return total


def _potential(rec: _Target, c: Config) -> int:
    """The potential of c in the record's scale: compare against
    n * ``rec.scale``.  Non-increasing under pebbling steps."""
    return sum(x * w for x, w in zip(c, rec.weight))


def _greedy_steps(g: Graph, c: Config, t: int, n: int) -> tuple[Step, ...] | None:
    """Heuristic witness search: repeatedly take the most expensive vertex
    that can pay for a loss-free edge (cost(u) = weight * cost(head)) and
    fire it toward the cheapest such head (the record's ``moves``).
    Complete on graphs where concentrating along cheapest paths suffices;
    else returns None.

    Pebbles only move to cheaper vertices, which come later in the table,
    so one pass over it makes the same steps: each vertex fires each move
    in turn as often as it can pay, and never gains pebbles afterwards."""
    work = list(c)
    if work[t] >= n:
        return ()
    steps: list[Step] = []
    for u, moves in _target(g, t).moves:
        for v, w in moves:
            k = work[u] // w
            if v == t:
                k = min(k, n - work[t])
            if k:
                work[u] -= k * w
                work[v] += k
                steps += [(u, v)] * k
                if work[t] >= n:
                    return tuple(steps)
    return None


def solvable_quick(g: Graph, c: Config, t: int, n: int) -> bool | None:
    """Fast decision when the bounds are conclusive, else None."""
    if c[t] >= n:
        return True
    rec = _target(g, t)
    if _deliverable(rec, c) >= n:
        return True
    if _potential(rec, c) < n * rec.scale:
        return False
    return None


def _pre_search(g: Graph, c: Config, t: int, n: int) -> SolveResult | None:
    """The opening of both exact deciders, after checking the instance:
    solved with no steps when c(t) >= n, unsolvable when the potential is
    below n, solved by the greedy's steps when it reaches n; None when
    only a search can tell."""
    _check_instance(g, c, t, n)
    if c[t] >= n:
        return SolveResult(True, (), c)
    rec = _target(g, t)
    if _potential(rec, c) < n * rec.scale:
        return SolveResult(False)
    steps = _greedy_steps(g, c, t, n)
    if steps is not None:
        return SolveResult(True, steps, replay(g, c, steps))
    return None


def is_solvable(g: Graph, c: Config, t: int, n: int) -> SolveResult:
    """Complete decision of n-fold t-solvability with a replayable witness.

    The shared opening (``_pre_search``) answers first when it can;
    otherwise steps are explored in (from, to) sorted edge order, so the
    first witness found is deterministic.
    """
    opening = _pre_search(g, c, t, n)
    if opening is not None:
        return opening
    rec = _target(g, t)
    edges = rec.edges
    bound = n * rec.scale
    failed: set[Config] = set()
    # Depth-first over steps in edge order with an explicit stack of
    # [configuration, potential, next edge index]; path holds the steps
    # from c to the top frame.  A configuration whose subtree fails, or
    # that the potential prunes, joins ``failed``.
    stack = [[c, _potential(rec, c), 0]]
    path: list[Step] = []
    m = len(edges)
    while stack:
        frame = stack[-1]
        conf, pot, i = frame
        while i < m:
            u, v, w, drop = edges[i]
            i += 1
            if conf[u] < w:
                continue
            nxt = list(conf)
            nxt[u] -= w
            nxt[v] += 1
            nxt = tuple(nxt)
            if nxt in failed:
                continue
            if pot - drop >= bound:
                path.append((u, v))
                if nxt[t] >= n:
                    return SolveResult(True, tuple(path), nxt)
                frame[2] = i
                stack.append([nxt, pot - drop, 0])
                break
            failed.add(nxt)
        else:
            stack.pop()
            if path:
                path.pop()
                failed.add(conf)
    return SolveResult(False)


def _unsolvable(g: Graph, c: Config, t: int, n: int) -> bool:
    """Exact decision without a witness: the quick bounds and the greedy
    concentration, then the search only when they give no answer."""
    quick = solvable_quick(g, c, t, n)
    if quick is not None:
        return not quick
    return _greedy_steps(g, c, t, n) is None and not is_solvable(g, c, t, n)


@dataclass(frozen=True)
class PebblingNumber:
    value: int
    witness_unsolvable: Config | None


def _singleton_witness(g: Graph, t: int, n: int, p: int) -> Config | None:
    """Unsolvable size-p configuration from singletons off t plus up to
    n-1 pebbles on t; exists whenever p <= #V + n - 2."""
    others = g.vertex_count - 1
    on_t = min(n - 1, p)
    rest = p - on_t
    if rest > others:
        return None
    counts = [0] * g.vertex_count
    counts[t] = on_t
    placed = 0
    for v in range(g.vertex_count):
        if v != t and placed < rest:
            counts[v] = 1
            placed += 1
    return tuple(counts)


def _structured_witness(g: Graph, t: int, n: int, p: int) -> Config | None:
    """Cheap scan of classically extremal shapes: all configurations with
    support at most two, and singleton paddings of concentrated stacks."""
    nv = g.vertex_count
    for v in range(nv):
        counts = [0] * nv
        counts[v] = p
        c = tuple(counts)
        if _unsolvable(g, c, t, n):
            return c
    for v in range(nv):
        for u in range(v + 1, nv):
            for a in range(1, p):
                counts = [0] * nv
                counts[v] = a
                counts[u] = p - a
                c = tuple(counts)
                if _unsolvable(g, c, t, n):
                    return c
    return None


def _scan_stride(g: Graph, t: int, n: int, p: int, jobs: int, start: int) -> Config | None:
    """First unsolvable one of t's box walk at places start, start + jobs, ..."""
    # A vertex that cannot reach t delivers nothing within size p: cost p + 1.
    cost = tuple(p + 1 if cv is None else cv for cv in _target(g, t).cost)
    for c in itertools.islice(bounded_configs(p, cost, n - 1), start, None, jobs):
        if _unsolvable(g, c, t, n):
            return c
    return None


def find_unsolvable(g: Graph, t: int, n: int, p: int, jobs: int = 1) -> Config | None:
    """Some size-p configuration that is not n-fold t-solvable, or None.

    After the singleton and structured shapes, the scan walks t's box
    sum(c(v) // cost(v)) < n, outside which independent delivery solves c.
    Worker i of ``jobs`` decides the walk's configurations i, i + jobs, ...
    The walk is lexicographic, so the least of the workers' first hits is
    the smallest unsolvable one, whatever the worker count.
    """
    _check_instance(g, None, t, n)
    if p < 0:
        raise PebblingError(f"need size p >= 0, got {p}")
    if jobs < 1:
        raise PebblingError(f"need jobs >= 1, got {jobs}")
    if n == 0:
        return None
    w = _singleton_witness(g, t, n, p)
    if w is not None:
        return w
    w = _structured_witness(g, t, n, p)
    if w is not None:
        return w
    scan = functools.partial(_scan_stride, g, t, n, p, jobs)
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()
    with pool:
        hits = pool.map(scan, range(jobs)) if jobs > 1 else map(scan, range(jobs))
        return min((hit for hit in hits if hit is not None), default=None)


def pebbling_number(g: Graph, t: int, n: int = 1, jobs: int = 1) -> PebblingNumber:
    """Smallest p such that every size-p configuration is n-fold
    t-solvable, with a size-(p-1) unsolvable witness.

    Solvability is monotone in the configuration, so checking size exactly
    p suffices for all larger sizes.
    """
    _check_instance(g, None, t, n)
    if n < 1:
        raise PebblingError("need n >= 1")
    if None in _target(g, t).cost:
        raise PebblingError(f"target {t} is not reachable from every vertex")
    # Singleton witnesses cover all sizes up to #V + n - 2.
    p = g.vertex_count + n - 1
    witness = _singleton_witness(g, t, n, p - 1)
    while True:
        hit = find_unsolvable(g, t, n, p, jobs=jobs)
        if hit is None:
            return PebblingNumber(p, witness)
        witness = hit
        p += 1


def pebbling_number_graph(g: Graph, jobs: int = 1) -> int:
    """pi(G): the largest 1-fold pebbling number over all targets."""
    return max(pebbling_number(g, t, 1, jobs=jobs).value for t in range(g.vertex_count))


def has_2pp(g: Graph, pi: int, variant: str = "support"):
    """Check the 2-pebbling property.

    ``variant`` selects how q is counted: ``support`` (vertices with at
    least one pebble) or ``odd`` (vertices with an odd count).  All
    configurations with size s >= 2*pi - q + 1 are checked, in (s, c, t)
    order, for s up to 2*pi + 1.

    At each s, each target's box (fewer than 2 pebbles deliverable) is
    walked in a support window, and the walks are merged on (c, t), so the
    first counterexample is the first in (s, c, t) order.  The window is
    narrow because every configuration of size s - 1 that the property
    covers is already known solvable (below the first size none is), and
    so is any c with a vertex v such that c - e_v is: a pebble more never
    hurts.  What is left is the lower edge q = 2*pi + 1 - s plus the 0/1
    configurations of size pi + 1 (``support``), or the configurations
    whose 2*pi + 2 - s occupied vertices all hold odd counts (``odd``:
    taking a pebble off an even count raises the odd count, and an odd
    count of 2*pi + 1 - s has the wrong parity for size s).

    Past s = 2*pi + 1 both windows are empty, so the walk stops there.
    Every size at or above the largest 2-fold pebbling number is
    2-solvable, so walking those sizes adds no counterexample and the
    first one is the same whether or not ``pi`` is the true value.
    """
    if variant not in ("support", "odd"):
        raise PebblingError(f"unknown 2PP variant {variant!r}")
    if pi < 1:
        raise PebblingError(f"pebbling number must be >= 1, got {pi}")
    nv = g.vertex_count
    for t in range(nv):
        if None in _target(g, t).cost:
            raise PebblingError(f"target {t} is not reachable from every vertex")
    for s in range(max(2 * pi - nv + 1, 0), 2 * pi + 2):
        q = 2 * pi + 1 - s
        if variant == "support":
            window = (q, q + (s == pi + 1))
        else:
            q += 1
            window = (q, q)
        boxes = [
            zip(bounded_configs(s, _target(g, t).cost, 1, *window), itertools.repeat(t))
            for t in range(nv)
        ]
        for c, t in heapq.merge(*boxes):
            if variant == "odd" and sum(x % 2 for x in c) < q:
                continue
            if _unsolvable(g, c, t, 2):
                return False, (c, t)
    return True, None


def _tau_subconfig_exists(
    g: Graph, c: Config, t: int, n: int, k: int, m: int, s: int, q: int
) -> bool:
    """Is there c* within c, n-fold t-solvable, with r_k(c - c*) >= m?
    s and q are the size and support count of c."""
    cost = _target(g, t).cost
    # Fast path: n*cost(v) pebbles taken from one vertex, optionally with
    # the target's own pebbles counted first.  The residual's size drops by
    # the pebbles taken and its support by the vertices emptied, so its
    # reduced size needs no tuple.
    need_t = min(c[t], n)
    if need_t == n and s - n - (k - 1) * (q - (0 < n == c[t]) - 1) >= m:
        return True
    for v in range(g.vertex_count):
        if v == t or cost[v] is None:
            continue
        for use_t in (need_t, 0):
            amount = (n - use_t) * cost[v]
            if c[v] >= amount:
                emptied = (0 < amount == c[v]) + (0 < use_t == c[t])
                if s - amount - use_t - (k - 1) * (q - emptied - 1) >= m:
                    return True
    # Complete fallback: every subconfiguration, largest counts first.
    for cstar in itertools.product(*(range(x, -1, -1) for x in c)):
        residual = tuple(a - b for a, b in zip(c, cstar))
        if configs.reduced_size(residual, k) >= m and not _unsolvable(g, cstar, t, n):
            return True
    return False


def verify_tau(g: Graph, t: int, n: int, k: int, p: int, m_max: int) -> bool:
    """Bounded check that tau_{n,k}(G, t) <= p: for every m <= m_max and
    every configuration c with |c| = p - s#(c) + 1 + m there must be an
    n-fold t-solvable subconfiguration whose residual keeps k-reduced size
    at least m.  A True result certifies the bound up to m_max only.

    Each configuration has one m = |c| + s#(c) - p - 1, so one walk per
    size s in max(p + 1 - #V, 0) .. p + 1 + m_max, with the support window
    s# in [p + 1 - s, p + 1 + m_max - s] (that is 0 <= m <= m_max), covers
    every (m, c) and nothing else."""
    _check_instance(g, None, t, n)
    if m_max < 0 or k < 1:
        raise PebblingError("need m_max >= 0, k >= 1")
    nv = g.vertex_count
    ones = (1,) * nv
    for s in range(max(p + 1 - nv, 0), p + 2 + m_max):
        for c in bounded_configs(s, ones, s, p + 1 - s, p + 1 + m_max - s):
            q = nv - c.count(0)
            if not _tau_subconfig_exists(g, c, t, n, k, s + q - p - 1, s, q):
                return False
    return True


def optimal_pebbling_number(g: Graph):
    """Smallest configuration size solvable for every target, with one
    such configuration as witness.  The sizes stop at #V: one pebble on
    every vertex solves every target."""
    targets = range(g.vertex_count)
    for s in range(g.vertex_count + 1):
        for c in enumerate_configs(g.vertex_count, s):
            if not any(_unsolvable(g, c, t, 1) for t in targets):
                return s, c
