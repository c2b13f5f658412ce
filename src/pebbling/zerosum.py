"""Constructive zero-sum theorems via pebbling on divisor lattices.

The generic engine replays a pebbling solution while every pebble carries
a non-empty set of indices into the input sequence; a caller-supplied
combiner merges the payloads consumed by each step, and each payload is
checked once, as it is placed.  Instantiated on the divisor lattice of n
this turns solvability of size-n configurations into explicit zero-sum
subsequences: subsets of divisors summing exactly to n, the gcd-weighted
variant, and the general divisors-of-n statement.  When every entry
divides n the gcd construction is the divisor construction (the proof is
in ``gcd_zero_sum``), so it takes that cheaper path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat, takewhile
from math import gcd

from .configs import check_int, check_vertices
from .errors import PebblingError
from .flows import realize, solve_via_flow
from .graphs import Graph, divisor_lattice

IndexSet = frozenset[int]


def zero_sum_mod(seq: list[int], n: int) -> IndexSet:
    """Non-empty contiguous 1-based index range of the first n entries
    whose sum is divisible by n, found by the prefix-sum pigeonhole."""
    check_int(n, 1, "modulus")
    seq = tuple(seq)
    if len(seq) < n:
        raise PebblingError(f"need at least {n} entries, got {len(seq)}")
    if not set(map(type, seq)) <= {int}:
        raise PebblingError("entries must be ints")
    seen: dict[int, int] = {0: 0}
    prefix = 0
    for j in range(1, n + 1):
        prefix = (prefix + seq[j - 1]) % n
        if prefix in seen:
            return frozenset(range(seen[prefix] + 1, j + 1))
        seen[prefix] = j
    raise AssertionError("pigeonhole cannot fail on n+1 prefixes mod n")


def pebbling_construction(
    g: Graph,
    t: int,
    starts,
    combiner,
    steps,
    well_placed=None,
) -> IndexSet:
    """Replay a pebbling solution with payload-carrying pebbles.

    Index i (1-based) starts at vertex ``starts[i - 1]`` (``starts`` may
    be any iterable, read once); each step of weight k pops k index sets
    (FIFO) from its source and pushes ``combiner(u, v, sets)`` -- a
    non-empty subset of their union -- onto its head.  Returns the front
    payload at the target.  The target and every start must be vertices
    of g.  Each payload is checked
    once, as it is placed (with ``well_placed``, when given): the start
    payloads are distinct singletons, a merged set lies inside what its
    step popped, and no step touches any other payload, so the sets stay
    non-empty and disjoint.  The starts and the combiner's results are
    checked here, the rest in ``_replay``.
    """
    nv = g.vertex_count
    check_vertices(nv, (t,), "target")
    starts = tuple(starts)
    check_vertices(nv, starts, "start")
    singles = list(map(frozenset, zip(range(1, len(starts) + 1))))
    if well_placed is not None:
        # takewhile stops at the first failure: each start is checked
        # once, in index order, and none after a failure.
        placed = len(list(takewhile(bool, map(well_placed, starts, singles))))
        if placed < len(starts):
            raise _misplaced(starts[placed], singles[placed])

    def checked(u, v, popped):
        merged = frozenset(combiner(u, v, popped))
        if not merged or not merged <= frozenset().union(*popped):
            raise PebblingError("combiner must return a non-empty subset of the popped union")
        return merged

    return _replay(g, t, starts, singles, checked, steps, well_placed)


def _replay(g, t, starts, singles, combiner, steps, well_placed) -> IndexSet:
    """Place the checked start payloads, run ``steps`` and return the front
    payload at t.  ``combiner`` returns a non-empty frozenset inside what
    its step popped, and ``well_placed`` checks where it lands.  A queue is
    a list read from a head index, so a step takes its payloads as a slice."""
    queues: list[list[IndexSet]] = [[] for _ in range(g.vertex_count)]
    for v, s in zip(starts, singles):
        queues[v].append(s)
    heads = [0] * g.vertex_count
    for u, v in steps:
        w = g.weight(u, v)
        head = heads[u]
        popped = queues[u][head : head + w]
        if len(popped) < w:
            raise PebblingError(
                f"step ({u},{v}) needs {w} pebbles, vertex has {len(popped)}"
            )
        heads[u] = head + w
        merged = combiner(u, v, popped)
        if well_placed is not None and not well_placed(v, merged):
            raise _misplaced(v, merged)
        queues[v].append(merged)
    if heads[t] == len(queues[t]):
        raise PebblingError("steps do not deliver a pebble to the target")
    return queues[t][heads[t]]


def _misplaced(v: int, s: IndexSet) -> PebblingError:
    return PebblingError(f"payload at vertex {v} is not well-placed: {sorted(s)}")


# One frozen lattice per n, so every replay reuses its per-target record.
_lattice = lru_cache(maxsize=16)(divisor_lattice)


def _lattice_solution(n: int, starts: list[int]):
    """Divisor lattice of n, the vertex of each divisor in ``starts``,
    target n, and steps delivering a pebble to it from one pebble per
    start."""
    g = _lattice(n)
    index = {d: i for i, d in enumerate(g.labels)}
    verts = list(map(index.__getitem__, starts))
    c = [0] * g.vertex_count
    for v in verts:
        c[v] += 1
    t = index[n]
    flow = solve_via_flow(g, tuple(c), t, 1)
    if flow is None:
        raise AssertionError(
            f"size-{len(starts)} configuration on the divisor lattice of {n} "
            "must be solvable"
        )
    steps, _ = realize(g, flow)
    return g, verts, t, steps


def _require_divisors(n: int, seq: list[int]) -> None:
    # Types first (a set merges True with 1), then each value once.
    if set(map(type, seq)) <= {int} and all(a > 0 and not n % a for a in set(seq)):
        return
    for a in seq:
        if type(a) is not int or a < 1 or n % a != 0:
            raise PebblingError(f"{a!r} is not a divisor of {n}")


def divisor_zero_sum(n: int, divisors: list[int]) -> IndexSet:
    """Non-empty 1-based subset of n divisors of n summing exactly to n.

    Index i starts at lattice vertex a_i; merging at an edge (d, p*d)
    unions p payloads of sum d into one of sum p*d, so the payload
    reaching vertex n sums to n.
    """
    check_int(n, 1, "n")
    divisors = tuple(divisors)
    if len(divisors) != n:
        raise PebblingError(f"need exactly {n} divisors, got {len(divisors)}")
    _require_divisors(n, divisors)
    return _divisor_construction(n, divisors)


def _divisor_construction(n: int, seq: tuple[int, ...]) -> IndexSet:
    """``divisor_zero_sum`` on a checked tuple of n divisors of n.  The
    start {i} at vertex v is well-placed when a_i is v's label; all n are
    checked in one pass, and one by one only to name the first failure."""
    g, verts, t, steps = _lattice_solution(n, seq)
    at = (0, *seq).__getitem__  # 1-based
    labels = g.labels
    if tuple(map(labels.__getitem__, verts)) != seq:
        i = next(i for i, a in enumerate(seq) if a != labels[verts[i]])
        raise _misplaced(verts[i], frozenset({i + 1}))
    singles = map(frozenset, zip(range(1, n + 1)))

    def combiner(u, v, sets):
        return frozenset().union(*sets)

    def well_placed(v, s):
        return sum(map(at, s)) == labels[v]

    out = _replay(g, t, verts, singles, combiner, steps, well_placed)
    if sum(map(at, out)) != n:
        raise AssertionError("constructed subset does not sum to n")
    return out


def gcd_zero_sum(n: int, seq: list[int]) -> IndexSet:
    """Non-empty 1-based subset S of n positive integers with
    n | sum(a_i) and sum(gcd(n, a_i)) <= n.

    Index i starts at vertex gcd(n, a_i).  At an edge (d, p*d) each popped
    payload sums to a multiple x_i of d with gcd-sum at most d; a zero-sum
    of the ratios x_i/d modulo p selects payloads whose union sums to a
    multiple of p*d with gcd-sum at most p*d.

    When every entry divides n (gcd(n, a_i) == a_i entry by entry) this
    runs the divisor construction, which gives the same subset:

    - A payload's gcd-sum is then its sum, so the check at vertex d
      (d divides the sum and the gcd-sum is at most d) holds exactly when
      the sum equals d, which is the divisor check.
    - At an edge (d, p*d) each of the p popped ratios is therefore 1.
      Their prefix sums mod p are 1, ..., p-1, 0, so ``zero_sum_mod``
      picks all p, and the merged payload is their union, as in the
      divisor combiner.
    - The lattice, the starts and the steps are the same, so the subset
      is the same.
    """
    check_int(n, 1, "n")
    seq = tuple(seq)
    if len(seq) != n:
        raise PebblingError(f"need exactly {n} entries, got {len(seq)}")
    if not set(map(type, seq)) <= {int} or min(seq) < 1:
        raise PebblingError("entries must be positive ints")
    gcds = tuple(map(gcd, repeat(n), seq))
    if gcds == seq:
        return _divisor_construction(n, seq)
    g, verts, t, steps = _lattice_solution(n, gcds)
    at = (0, *seq).__getitem__  # 1-based
    gcd_at = (0, *gcds).__getitem__
    labels = g.labels
    totals: dict[IndexSet, int] = {}  # each placed payload's sum

    def combiner(u, v, sets):
        d = labels[u]
        chosen = zero_sum_mod([totals[s] // d for s in sets], labels[v] // d)
        return frozenset().union(*(sets[i - 1] for i in chosen))

    def well_placed(v, s):
        d = labels[v]
        total = totals[s] = sum(map(at, s))
        return total % d == 0 and sum(map(gcd_at, s)) <= d

    out = pebbling_construction(g, t, verts, combiner, steps, well_placed)
    if sum(map(at, out)) % n != 0:
        raise AssertionError("constructed subset sum is not divisible by n")
    if sum(map(gcd_at, out)) > n:
        raise AssertionError("constructed subset gcd-sum exceeds n")
    return out


def erdos_lemke(n: int, d: int, seq: list[int]) -> IndexSet:
    """Non-empty subset of d divisors of n (d | n) with sum divisible by d
    and sum at most n.

    This is ``gcd_zero_sum(d, seq)``.  When every entry also divides d
    (shown here at d = n, which goes to it directly) that is the divisor
    construction, and the subset sums to exactly d.
    """
    check_int(n, 1, "n")
    _require_divisors(n, (d,))
    seq = tuple(seq)
    if len(seq) != d:
        raise PebblingError(f"need exactly {d} entries, got {len(seq)}")
    _require_divisors(n, seq)
    out = _divisor_construction(n, seq) if d == n else gcd_zero_sum(d, seq)
    total = sum(map((0, *seq).__getitem__, out))
    if total % d != 0 or total > n:
        raise AssertionError("constructed subset violates the target bounds")
    return out
