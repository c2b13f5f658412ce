"""Independent oracles for cross-checking the package implementations.

Everything here is deliberately written against a different formulation
than the code under test: the tree pebbling-number oracle works through a
deliverability DP instead of path partitions or configuration search, the
extractor and subset-sum helpers are plain brute force, and the model-text
evaluator interprets the emitted transition relation explicitly.  The
plain-loop versions of optimised routines (``realize_oracle``,
``solve_via_flow_oracle``, the zero-sum replay) are the formulations the
package was optimised from, kept to check that it returns the same.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache

from pebbling.graphs import Graph


# ---------------------------------------------------------------------------
# Exact tree pebbling numbers via a deliverability DP.
#
# On a tree rooted at r (uniform edge weight k), pebbles never profit from
# moving away from the root, so the most pebbles deliverable to r from a
# configuration is computed bottom-up: deliverable(v) = c(v) +
# sum(floor(deliverable(child) / k)).  The n-fold pebbling number is then
# one more than the largest configuration with deliverable at most n - 1.


def tree_children(g: Graph, r: int) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    seen = {r}
    queue = [r]
    for v in queue:
        for _, u, _ in g.out_edges[v]:
            if u not in seen:
                seen.add(u)
                children[v].append(u)
                queue.append(u)
    assert len(seen) == g.vertex_count, "not a connected tree"
    return children


def tree_pi_oracle(g: Graph, r: int, k: int, n: int) -> int:
    """pi_n(tree, r) = 1 + max size of a configuration whose deliverable
    count at r is at most n - 1."""
    children = tree_children(g, r)

    def shape(v: int) -> tuple:
        return tuple(sorted(shape(ch) for ch in children[v]))

    return _grow(shape(r), k, n - 1) + 1


@lru_cache(maxsize=None)
def _grow(shape: tuple, k: int, budget: int) -> int:
    """Max pebbles in a rooted subtree of this shape (the sorted tuple of
    its children's shapes) with deliverable(root) <= budget.  Each child
    contributes floor(deliverable/k) = j to the root's budget while holding
    up to _grow(child, k, j*k + k - 1) pebbles.  Labels never matter, so
    the memo is shared by every labeled tree."""
    best_by_spend = [0]
    for ch in shape:
        nxt = [0] * (budget + 1)
        for spent in range(min(budget, len(best_by_spend) - 1) + 1):
            for j in range(budget - spent + 1):
                gain = best_by_spend[spent] + _grow(ch, k, j * k + k - 1)
                if gain > nxt[spent + j]:
                    nxt[spent + j] = gain
        best_by_spend = nxt
    return max(
        (budget - s) + best_by_spend[s]
        for s in range(min(budget, len(best_by_spend) - 1) + 1)
    )


def labeled_trees(nv: int, k: int):
    """All labeled trees on nv vertices (via Pruefer sequences) as
    undirected weight-k graphs."""
    if nv == 1:
        yield Graph(1, ())
        return
    if nv == 2:
        yield Graph(2, ((0, 1, k), (1, 0, k)))
        return
    for seq in _products(range(nv), nv - 2):
        degree = [1] * nv
        for v in seq:
            degree[v] += 1
        pairs = []
        work = list(seq)
        leaves = sorted(v for v in range(nv) if degree[v] == 1)
        import heapq

        heapq.heapify(leaves)
        for v in work:
            leaf = heapq.heappop(leaves)
            pairs.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        pairs.append((u, v))
        edges = []
        for a, b in pairs:
            edges.append((a, b, k))
            edges.append((b, a, k))
        yield Graph(nv, tuple(edges))


def _products(pool, repeat):
    from itertools import product

    return product(pool, repeat=repeat)


# ---------------------------------------------------------------------------
# Path partitions by brute force (for maximality checks on small trees).


def all_path_partition_sizes(g: Graph, r: int):
    """Size sequences (sorted descending) of every partition of the
    non-root vertices into directed paths toward the root."""
    children = tree_children(g, r)
    parent = {}
    for v, chs in children.items():
        for ch in chs:
            parent[ch] = v
    vertices = [v for v in range(g.vertex_count) if v != r]
    eligible = [v for v in vertices if parent[v] != r]
    out = set()
    for mask in range(1 << len(eligible)):
        chosen = {eligible[i] for i in range(len(eligible)) if mask >> i & 1}
        # each vertex may absorb at most one extending child
        absorbed: dict[int, int] = {}
        ok = True
        for v in chosen:
            if parent[v] in absorbed:
                ok = False
                break
            absorbed[parent[v]] = v
        if not ok:
            continue
        sizes = []
        starts = [v for v in vertices if v not in absorbed]
        for s in starts:
            length = 1
            v = s
            while v in chosen:
                v = parent[v]
                length += 1
            sizes.append(length)
        out.add(tuple(sorted(sizes, reverse=True)))
    return out


# ---------------------------------------------------------------------------
# Simple brute-force helpers.


def max_extractable_blocks(c, k: int) -> int:
    """Blocks of k pebbles each taken from a single vertex."""
    return sum(x // k for x in c)


def zero_mod_subset_exists(values, n: int) -> bool:
    """Some non-empty subset sums to 0 mod n."""
    reachable: set[int] = set()
    for v in values:
        reachable |= {(s + v) % n for s in reachable} | {v % n}
    return 0 in reachable


# ---------------------------------------------------------------------------
# Explicit-state evaluation of emitted model text.

_DISJUNCT = re.compile(r"^\( (c\[\d+\]>\d+) & (.*) \) \|?$")
_GUARD = re.compile(r"c\[(\d+)\]>(\d+)")
_UPDATE = re.compile(r"next\(c\[(\d+)\]\)=c\[\d+\](?:([+-])(\d+))?")


def parse_transitions(model_text: str):
    """Extract (guard_vertex, threshold, delta_vector) triples from the
    emitted TRANS block; the stutter disjunct is skipped."""
    lines = model_text.splitlines()
    start = lines.index("TRANS") + 1
    nv = max(
        int(m.group(1)) for m in _UPDATE.finditer(model_text)
    )
    out = []
    for line in lines[start:]:
        m = _DISJUNCT.match(line.strip()) if line.startswith("(") else None
        if not m:
            continue
        gv, gthr = _GUARD.match(m.group(1)).groups()
        deltas = [0] * nv
        for um in _UPDATE.finditer(m.group(2)):
            idx = int(um.group(1)) - 1
            if um.group(2):
                deltas[idx] = int(um.group(3)) * (1 if um.group(2) == "+" else -1)
        out.append((int(gv) - 1, int(gthr), tuple(deltas)))
    return nv, out


def model_reachable(model_text: str, start):
    """All configurations reachable from ``start`` under the emitted
    transition relation."""
    nv, transitions = parse_transitions(model_text)
    assert nv == len(start)
    seen = {tuple(start)}
    queue = [tuple(start)]
    for state in queue:
        for gv, thr, deltas in transitions:
            if state[gv] > thr:
                nxt = tuple(x + d for x, d in zip(state, deltas))
                if all(x >= 0 for x in nxt) and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Random instances for property suites.


def random_connected_graph(
    rng: random.Random, nv: int, weights=(2, 3)
) -> Graph:
    pairs = set()
    order = list(range(1, nv))
    rng.shuffle(order)
    grown = [0]
    for v in order:
        u = rng.choice(grown)
        pairs.add((min(u, v), max(u, v)))
        grown.append(v)
    extra = rng.randint(0, nv)
    for _ in range(extra):
        u, v = rng.sample(range(nv), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in pairs:
        w = rng.choice(weights)
        edges.append((u, v, w))
        edges.append((v, u, w))
    return Graph(nv, tuple(edges))


def random_config(rng: random.Random, nv: int, total: int):
    counts = [0] * nv
    for _ in range(total):
        counts[rng.randrange(nv)] += 1
    return tuple(counts)


def random_legal_steps(rng: random.Random, g: Graph, c, max_steps: int):
    work = list(c)
    steps = []
    for _ in range(max_steps):
        options = [
            (u, v, w) for u, v, w in g.edges if work[u] >= w
        ]
        if not options:
            break
        u, v, w = rng.choice(options)
        work[u] -= w
        work[v] += 1
        steps.append((u, v))
    return steps, tuple(work)


# ---------------------------------------------------------------------------
# Bounded tau_{n,k} certification by brute force.
#
# Straight from the definition: for every m in 0..m_max, every
# configuration c with |c| + s#(c) = p + 1 + m (found by trying every
# count vector, not by a generator) must contain a subconfiguration c*
# that is n-fold t-solvable, decided by the flow search rather than the
# configuration search, whose residual c - c* keeps k-reduced size
# |c - c*| - (k - 1)(s#(c - c*) - 1) at least m.


def tau_oracle(g: Graph, t: int, n: int, k: int, p: int, m_max: int) -> bool:
    from pebbling.flows import solve_via_flow

    nv = g.vertex_count

    @lru_cache(maxsize=None)
    def solvable(cstar) -> bool:
        return solve_via_flow(g, cstar, t, n) is not None

    def has_good_part(c, m: int) -> bool:
        for cstar in itertools.product(*(range(x + 1) for x in c)):
            rest = [a - b for a, b in zip(c, cstar)]
            reduced = sum(rest) - (k - 1) * (sum(1 for x in rest if x) - 1)
            if reduced >= m and solvable(cstar):
                return True
        return False

    for m in range(m_max + 1):
        top = p + 1 + m
        for c in itertools.product(range(max(top, 0) + 1), repeat=nv):
            if sum(c) + sum(1 for x in c if x) == top and not has_good_part(c, m):
                return False
    return True


# ---------------------------------------------------------------------------
# Flow realization and the 2-pebbling property, as plain loops.
#
# These are the straightforward formulations the package's versions were
# optimised from: ``realize_oracle`` rescans every vertex's in- and
# out-edges on each step, and ``two_pp_oracle`` decides every (c, t) pair
# of every size in the 2PP window, target by target, in (s, c, t) order.


def realize_oracle(g: Graph, f):
    from pebbling.errors import PebblingError
    from pebbling.flows import PebbleFlow, is_feasible

    if f.graph is not g:
        f = PebbleFlow(g, f.config, f.flow)
    if not is_feasible(f):
        raise PebblingError("cannot realize an infeasible flow")
    target_excess = f.excess_vector()
    work = list(f.config)
    remaining = dict(f.flow)
    steps = []
    while any(w < x for w, x in zip(work, target_excess)):
        fired = False
        for w in range(g.vertex_count):
            inflow = sum(remaining.get((u, w), 0) for u, _, _ in g.in_edges[w])
            out_edges = [
                (wt, v)
                for _, v, wt in g.out_edges[w]
                if remaining.get((w, v), 0) > 0
            ]
            if inflow >= sum(
                remaining.get((w, v), 0) for _, v, _ in g.out_edges[w]
            ) or not out_edges:
                continue
            wt, v = min(out_edges)
            if work[w] < wt:
                raise PebblingError("flow is not realizable step by step")
            work[w] -= wt
            work[v] += 1
            remaining[(w, v)] -= 1
            steps.append((w, v))
            fired = True
            break
        if not fired:
            raise PebblingError("no fireable vertex found; flow inconsistent")
    return tuple(steps), tuple(work)


def two_pp_oracle(g: Graph, pi: int, variant: str = "support"):
    from pebbling.configs import enumerate_configs, support_count
    from pebbling.solver import _unsolvable, pebbling_number

    def odd_count(c) -> int:
        return sum(1 for x in c if x % 2 == 1)

    count_q = support_count if variant == "support" else odd_count
    nv = g.vertex_count
    if nv == 1:
        return True, None
    pi2_max = max(pebbling_number(g, t, 2).value for t in range(nv))
    for s in range(max(2 * pi - nv + 1, 0), pi2_max):
        for c in enumerate_configs(nv, s):
            if s < 2 * pi - count_q(c) + 1:
                continue
            for t in range(nv):
                if _unsolvable(g, c, t, 2):
                    return False, (c, t)
    return True, None


# ---------------------------------------------------------------------------
# The flow branch and bound, testing every value.
#
# ``solve_via_flow_oracle`` is the per-value loop the package's interval
# walk was optimised from: on the edge being opened it tries every count
# from the budget cap down to 0, applies it and keeps it only when every
# vertex can still end with its need, with two ``min`` calls over V.  The
# package computes once per edge the interval of counts that pass and
# tries only those, in the same order, so both return the same flow.


def solve_via_flow_oracle(g: Graph, c, t: int, n: int):
    from pebbling.flows import PebbleFlow, flow_from_steps
    from pebbling.graphs import bfs_distances
    from pebbling.solver import _potential, _pre_search, _target

    opening = _pre_search(g, c, t, n)
    if opening is not None:
        return flow_from_steps(g, c, opening.witness) if opening else None
    rec = _target(g, t)
    total = sum(c)
    dist = bfs_distances(g, t)
    edges = sorted(
        rec.edges, key=lambda e: (dist[e[1]] if dist[e[1]] is not None else total, e)
    )
    budget = total - n
    pot_budget = _potential(rec, c) - n * rec.scale
    caps = [
        min(budget // (w - 1), pot_budget // drop) if drop else budget // (w - 1)
        for _, _, w, drop in edges
    ]
    slack = list(c)
    slack[t] -= n
    reach = slack[:]
    for (_, v, _, _), cap in zip(edges, caps):
        reach[v] += cap
    assignment = []
    i = spent = pot_spent = 0
    u, v, w, drop = edges[0]
    reach[v] -= caps[0]
    value = caps[0]
    while True:
        if value < 0:
            reach[v] += caps[i]
            if i == 0:
                return None
            i -= 1
            u, v, w, drop = edges[i]
            value = assignment.pop()
            slack[v] -= value
            reach[v] -= value
            slack[u] += w * value
            reach[u] += w * value
            spent -= (w - 1) * value
            pot_spent -= drop * value
            value -= 1
            continue
        slack[v] += value
        reach[v] += value
        slack[u] -= w * value
        reach[u] -= w * value
        used = spent + (w - 1) * value
        if min(reach) < 0 or min(slack) < used - budget:
            slack[v] -= value
            reach[v] -= value
            slack[u] += w * value
            reach[u] += w * value
            value -= 1
            continue
        assignment.append(value)
        i += 1
        if i == len(edges):
            break
        spent = used
        pot_spent += drop * value
        u, v, w, drop = edges[i]
        reach[v] -= caps[i]
        value = (budget - spent) // (w - 1)
        if drop:
            value = min(value, (pot_budget - pot_spent) // drop)
    flow = {(u, v): k for (u, v, _, _), k in zip(edges, assignment) if k}
    return PebbleFlow(g, c, flow)


# ---------------------------------------------------------------------------
# The zero-sum replay and the gcd construction, as first written.
#
# ``pebbling_construction_oracle`` keeps each vertex's queue as a deque and
# pops one payload at a time, checking every start in a Python loop.
# ``gcd_zero_sum_oracle`` runs the general gcd construction (zero-sum
# search mod p at every step) on every input, divisor inputs included,
# where the package hands divisor inputs to the divisor construction.


def pebbling_construction_oracle(
    g: Graph,
    t: int,
    starts,
    combiner,
    steps,
    well_placed=None,
):
    from collections import deque

    from pebbling.configs import check_vertices
    from pebbling.errors import PebblingError

    def _misplaced(v, s):
        return PebblingError(f"payload at vertex {v} is not well-placed: {sorted(s)}")

    nv = g.vertex_count
    check_vertices(nv, (t,), "target")
    starts = tuple(starts)
    check_vertices(nv, starts, "start")
    queues = [deque() for _ in range(nv)]
    for i, v in enumerate(starts, 1):
        s = frozenset((i,))
        if well_placed is not None and not well_placed(v, s):
            raise _misplaced(v, s)
        queues[v].append(s)
    for u, v in steps:
        w = g.weight(u, v)
        queue = queues[u]
        if len(queue) < w:
            raise PebblingError(
                f"step ({u},{v}) needs {w} pebbles, vertex has {len(queue)}"
            )
        popped = [queue.popleft() for _ in range(w)]
        merged = frozenset(combiner(u, v, popped))
        if not merged or not merged <= frozenset().union(*popped):
            raise PebblingError(
                "combiner must return a non-empty subset of the popped union"
            )
        if well_placed is not None and not well_placed(v, merged):
            raise _misplaced(v, merged)
        queues[v].append(merged)
    if not queues[t]:
        raise PebblingError("steps do not deliver a pebble to the target")
    return queues[t][0]


def gcd_zero_sum_oracle(n: int, seq):
    from math import gcd

    from pebbling.configs import check_int
    from pebbling.errors import PebblingError
    from pebbling.zerosum import _lattice_solution, zero_sum_mod

    check_int(n, 1, "n")
    if len(seq) != n:
        raise PebblingError(f"need exactly {n} entries, got {len(seq)}")
    if not set(map(type, seq)) <= {int} or min(seq) < 1:
        raise PebblingError("entries must be positive ints")
    gcds = [gcd(n, a) for a in seq]
    g, verts, t, steps = _lattice_solution(n, gcds)
    at = (0, *seq).__getitem__  # 1-based
    gcd_at = (0, *gcds).__getitem__
    labels = g.labels
    totals = {}  # each placed payload's sum

    def combiner(u, v, sets):
        d = labels[u]
        chosen = zero_sum_mod([totals[s] // d for s in sets], labels[v] // d)
        return frozenset().union(*(sets[i - 1] for i in chosen))

    def well_placed(v, s):
        d = labels[v]
        total = totals[s] = sum(map(at, s))
        return total % d == 0 and sum(map(gcd_at, s)) <= d

    out = pebbling_construction_oracle(g, t, verts, combiner, steps, well_placed)
    if sum(map(at, out)) % n != 0:
        raise AssertionError("constructed subset sum is not divisible by n")
    if sum(map(gcd_at, out)) > n:
        raise AssertionError("constructed subset gcd-sum exceeds n")
    return out
