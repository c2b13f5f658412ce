"""Exact pebbling semantics: step application, solvability, pebbling
numbers, the 2-pebbling property, tau-verification and optimal pebbling.

Solvability is decided by depth-first search over the configuration graph
with a memo of failed configurations: fresh for each ``is_solvable`` call,
and one per exhaustive walk toward a (t, n), shared by all of the walk's
searches.  Termination holds because every step strictly decreases the
total pebble count.  Two cheap bounds avoid most searches:

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
the 2PP check and ``verify_tau`` cut the walk to a support-size window,
and ``verify_tau`` also skips what its fast path certifies.  Each walk
decides through ``_unsolvable`` with its own memo per (t, n), so a search
of the walk skips what an earlier one proved unsolvable (until the memo
reaches ``MEMO_CAP`` and is cleared).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from . import configs
from .configs import Config, bounded_configs, enumerate_configs
from .errors import PebblingError
from .graphs import Graph

Step = tuple[int, int]

# The size at which a walk's memo of failed configurations is cleared
# before its next search (``_unsolvable``).  The largest walks measured stay
# below it: the C10 size-32 scan peaks at 57,122 and the Q4 size-16 scan at
# 45,624.
MEMO_CAP = 1 << 16


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
    configs.check_config(c, g.vertex_count)
    work = list(c)
    for u, v in steps:
        w = g.weight(u, v)
        if work[u] < w:
            raise PebblingError(f"vertex {u} has {work[u]} pebbles, step needs {w}")
        work[u] -= w
        work[v] += 1
    return tuple(work)


def _check_instance(g: Graph, c: Config | None, t: int, n: int) -> None:
    """Reject a target that is not a vertex, an n that is not an int >= 0,
    or a configuration (when given) that ``configs.check_config`` rejects."""
    configs.check_vertices(g.vertex_count, (t,), "target")
    configs.check_int(n, 0, "n")
    if c is not None:
        configs.check_config(c, g.vertex_count)


def check_reachable(g: Graph, t: int) -> None:
    """Reject a target that some vertex cannot reach."""
    if None in g.cost_to(t):
        raise PebblingError(f"target {t} is not reachable from every vertex")


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
    return sum(map(operator.mul, c, rec.weight))


def _greedy_steps(g: Graph, c: Config, t: int, n: int) -> tuple[tuple[Step, ...], Config] | None:
    """Heuristic witness search: repeatedly take the most expensive vertex
    that can pay for a loss-free edge (cost(u) = weight * cost(head)) and
    fire it toward the cheapest such head (the record's ``moves``).
    Complete on graphs where concentrating along cheapest paths suffices.
    Returns the steps and the tuple they end in once t holds n, else None.

    Pebbles only move to cheaper vertices, which come later in the table,
    so one pass over it makes the same steps: each vertex fires each move
    in turn as often as it can pay, and never gains pebbles afterwards."""
    work = list(c)
    if work[t] >= n:
        return (), tuple(work)
    steps: list[Step] = []
    if _concentrate(_target(g, t), work, t, n, steps):
        return tuple(steps), tuple(work)
    return None


def _concentrate(rec: _Target, work: list[int], t: int, n: int, steps: list[Step] | None) -> bool:
    """The greedy's one pass over the record's moves, firing on ``work`` in
    place and appending each step to ``steps`` (the walks pass None: they
    need only the answer).  True once t holds n pebbles."""
    for u, moves in rec.moves:
        for v, w in moves:
            k = work[u] // w
            if k:
                if v == t:
                    k = min(k, n - work[t])
                work[u] -= k * w
                work[v] += k
                if steps is not None:
                    steps += [(u, v)] * k
                if work[t] >= n:
                    return True
    return False


def solvable_quick(g: Graph, c: Config, t: int, n: int) -> bool | None:
    """Fast decision when the bounds are conclusive, else None.  The
    delivery sum counts c(t) too, at cost 1."""
    rec = _target(g, t)
    if _deliverable(rec, c) >= n:
        return True
    if _potential(rec, c) < n * rec.scale:
        return False
    return None


def _pre_search(g: Graph, c: Config, t: int, n: int) -> SolveResult | None:
    """The opening of both exact deciders, after checking the instance:
    unsolvable when the potential is below n, solved by the greedy's steps
    and the final configuration it reports when it reaches n (no steps
    when c(t) >= n already); None when only a search can tell."""
    _check_instance(g, c, t, n)
    rec = _target(g, t)
    if _potential(rec, c) < n * rec.scale:
        return SolveResult(False)
    greedy = _greedy_steps(g, c, t, n)
    return None if greedy is None else SolveResult(True, *greedy)


def is_solvable(g: Graph, c: Config, t: int, n: int) -> SolveResult:
    """Complete decision of n-fold t-solvability with a replayable witness.

    The shared opening (``_pre_search``) answers first when it can;
    otherwise ``_search`` explores steps in (from, to) sorted edge order
    with a memo of its own, so the first witness found, read off the
    stack's frames above the root, is deterministic.
    """
    opening = _pre_search(g, c, t, n)
    if opening is not None:
        return opening
    return _search(_target(g, t), c, t, n, set())


def _search(rec: _Target, c: Config, t: int, n: int, failed: set[Config]) -> SolveResult:
    """The depth-first search of ``is_solvable`` from c, which the opening
    left undecided.  ``failed`` holds configurations known not n-fold
    t-solvable, and every configuration whose subtree fails joins it, c
    included.  Skipping a member removes no witness and changes no step
    order, so a set shared by the searches of one walk toward the same
    (graph, t, n) gives the same answers and witnesses as a fresh one."""
    edges = rec.edges
    bound = n * rec.scale
    # Depth-first over steps in edge order with an explicit stack of
    # [configuration, potential, next edge index, step that made it]; the
    # steps of the frames above the root lead from c to the top frame.  A
    # step the potential prunes is skipped before its child is built; a
    # configuration whose subtree fails joins ``failed``.
    stack = [[c, _potential(rec, c), 0, None]]
    m = len(edges)
    while stack:
        frame = stack[-1]
        conf, pot, i, _ = frame
        while i < m:
            u, v, w, drop = edges[i]
            i += 1
            if conf[u] < w or pot - drop < bound:
                continue
            nxt = list(conf)
            nxt[u] -= w
            nxt[v] += 1
            nxt = tuple(nxt)
            if nxt in failed:
                continue
            if nxt[t] >= n:
                return SolveResult(True, tuple(f[3] for f in stack[1:]) + ((u, v),), nxt)
            frame[2] = i
            stack.append([nxt, pot - drop, 0, (u, v)])
            break
        else:
            stack.pop()
            failed.add(conf)
    return SolveResult(False)


def _unsolvable(g: Graph, c: Config, t: int, n: int, failed: set[Config]) -> bool:
    """Exact decision without a witness, for the walks, whose instances are
    already checked: the quick bounds and the greedy concentration, then
    ``failed``, the walk's memo toward (g, t, n), then the search only when
    none of them gives the answer.  The memo is cleared before a search
    once it holds ``MEMO_CAP`` configurations."""
    quick = solvable_quick(g, c, t, n)
    if quick is not None:
        return not quick
    rec = _target(g, t)
    if _concentrate(rec, list(c), t, n, None):
        return False
    if c in failed:
        return True
    if len(failed) >= MEMO_CAP:
        failed.clear()
    return not _search(rec, c, t, n, failed)


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
    """Cheap scan of classically extremal shapes: the size-p
    configurations with support at most two, each whole stack first, then
    each split of p over a pair of vertices."""
    nv = g.vertex_count
    failed: set[Config] = set()
    for v in range(nv):
        counts = [0] * nv
        counts[v] = p
        c = tuple(counts)
        if _unsolvable(g, c, t, n, failed):
            return c
    for v in range(nv):
        for u in range(v + 1, nv):
            for a in range(1, p):
                counts = [0] * nv
                counts[v] = a
                counts[u] = p - a
                c = tuple(counts)
                if _unsolvable(g, c, t, n, failed):
                    return c
    return None


def _scan_stride(g: Graph, t: int, n: int, p: int, jobs: int, start: int) -> Config | None:
    """First unsolvable one of t's box walk at places start, start + jobs, ..."""
    # A vertex that cannot reach t delivers nothing within size p: cost p + 1.
    cost = tuple(p + 1 if cv is None else cv for cv in _target(g, t).cost)
    failed: set[Config] = set()
    for c in itertools.islice(bounded_configs(p, cost, n - 1), start, None, jobs):
        if _unsolvable(g, c, t, n, failed):
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
    configs.check_int(p, 0, "size p")
    configs.check_int(jobs, 1, "jobs")
    if n == 0:
        return None
    w = _singleton_witness(g, t, n, p)
    if w is not None:
        return w
    w = _structured_witness(g, t, n, p)
    if w is not None:
        return w
    scan = functools.partial(_scan_stride, g, t, n, p, jobs)
    if jobs == 1:
        return scan(0)
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        hits = pool.map(scan, range(jobs))
        return min((hit for hit in hits if hit is not None), default=None)


def pebbling_number(g: Graph, t: int, n: int = 1, jobs: int = 1) -> PebblingNumber:
    """Smallest p such that every size-p configuration is n-fold
    t-solvable, with a size-(p-1) unsolvable witness.

    Solvability is monotone in the configuration, so checking size exactly
    p suffices for all larger sizes.
    """
    configs.check_int(n, 1, "n")
    check_reachable(g, t)  # checks t too, through Graph.cost_to
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
    configs.check_int(pi, 1, "pebbling number")
    nv = g.vertex_count
    for t in range(nv):
        check_reachable(g, t)
    failed: list[set[Config]] = [set() for _ in range(nv)]
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
            if _unsolvable(g, c, t, 2, failed[t]):
                return False, (c, t)
    return True, None


def _tau_subconfig_exists(
    g: Graph, c: Config, t: int, n: int, k: int, m: int, s: int, q: int, failed: set[Config]
) -> bool:
    """Is there c* within c, n-fold t-solvable, with r_k(c - c*) >= m?
    s and q are the size and support count of c, and ``failed`` is the
    walk's memo toward (g, t, n).

    An O(V) fast path first tries c* made of n*cost(v) pebbles on one
    vertex (with or without the target's own); ``verify_tau`` does not
    walk what it certifies with c* = n pebbles on t alone.  Otherwise the
    decisions run over the minimal residuals r = c - c* only: the empty
    one, then for each support size j the residuals of exactly j occupied
    vertices and the least size that keeps r_k(r) >= m."""
    cost = _target(g, t).cost
    # Fast path: n*cost(v) pebbles taken from one vertex, optionally with
    # the target's own pebbles counted first.  The residual's size drops by
    # the pebbles taken and its support by the vertices emptied, so its
    # reduced size needs no tuple.
    need_t = min(c[t], n)
    for v in range(g.vertex_count):
        if v == t or cost[v] is None:
            continue
        for use_t in (need_t, 0):
            amount = (n - use_t) * cost[v]
            if c[v] >= amount:
                emptied = (0 < amount == c[v]) + (0 < use_t == c[t])
                if s - amount - use_t - (k - 1) * (q - emptied - 1) >= m:
                    return True
    # Complete fallback.  A pebble more in c* never hurts, so a residual
    # that works dominates one of the same support j and the least size
    # max(j, m + (k - 1)(j - 1)) that keeps r_k(r) = |r| - (k - 1)(j - 1)
    # >= m, and that one works too.  The empty residual counts k - 1, as
    # ``configs.reduced_size`` reads it.
    if k - 1 >= m and not _unsolvable(g, c, t, n, failed):
        return True
    room = tuple(x + 1 for x in c)  # 1 <= r(v) <= c(v) on r's support
    for j in range(1, q + 1):
        for r in bounded_configs(max(j, m + (k - 1) * (j - 1)), room, 0, j, j):
            if not _unsolvable(g, tuple(a - b for a, b in zip(c, r)), t, n, failed):
                return True
    return False


def verify_tau(g: Graph, t: int, n: int, k: int, p: int, m_max: int) -> bool:
    """Bounded check that tau_{n,k}(G, t) <= p: for every m <= m_max and
    every configuration c with |c| = p - s#(c) + 1 + m there must be an
    n-fold t-solvable subconfiguration whose residual keeps k-reduced size
    at least m.  A True result certifies the bound up to m_max only.
    p >= -1: below it no configuration has m = 0, so nothing is tested.

    Each configuration has one m = |c| + s#(c) - p - 1, so the sizes s in
    max(p + 1 - #V, 0) .. p + 1 + m_max with the support window s# in
    [p + 1 - s, p + 1 + m_max - s] (that is 0 <= m <= m_max) cover every
    (m, c) and nothing else.  Each size is walked as c(t) and then the
    other vertices, whose window is shifted by [c(t) > 0].  Where
    c(t) >= n the walk also skips what ``_tau_subconfig_exists``
    certifies with c* = n pebbles on t alone: that residual has reduced
    size s - n - (k - 1)(s# - e - 1), e = [c(t) = n > 0], so the test
    holds exactly when k * s# <= p + 1 - n + (k - 1)(1 + e)."""
    _check_instance(g, None, t, n)
    configs.check_int(k, 1, "k")
    configs.check_int(p, -1, "p")
    configs.check_int(m_max, 0, "m_max")
    nv = g.vertex_count
    ones = (1,) * (nv - 1)
    failed: set[Config] = set()
    for s in range(max(p + 1 - nv, 0), p + 2 + m_max):
        q_lo, q_hi = p + 1 - s, p + 1 + m_max - s
        for ct in range(s + 1):
            lo = q_lo
            if ct >= n:
                lo = max(lo, (p + 1 - n + (k - 1) * (1 + (0 < n == ct))) // k + 1)
            held = ct > 0
            rest = s - ct
            for others in bounded_configs(rest, ones, rest, max(lo - held, 0), q_hi - held):
                c = others[:t] + (ct,) + others[t:]
                q = nv - c.count(0)
                if not _tau_subconfig_exists(g, c, t, n, k, s + q - p - 1, s, q, failed):
                    return False
    return True


def optimal_pebbling_number(g: Graph):
    """Smallest configuration size solvable for every target, with one
    such configuration as witness.  The sizes stop at #V: one pebble on
    every vertex solves every target."""
    failed: list[set[Config]] = [set() for _ in range(g.vertex_count)]
    for s in range(g.vertex_count + 1):
        for c in enumerate_configs(g.vertex_count, s):
            if not any(_unsolvable(g, c, t, 1, memo) for t, memo in enumerate(failed)):
                return s, c
