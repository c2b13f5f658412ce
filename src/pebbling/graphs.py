"""Edge-weighted digraphs, named families, Cartesian products and homomorphisms.

Vertices are dense integer ids ``0..n-1``.  Undirected families materialize
both directed edges with equal weight.  Product vertices are flattened
row-major with the left factor major, which also fixes the "lowest-id
preimage" representative used by configuration pullback.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

from .configs import check_config, check_int, check_vertices, text_records
from .errors import PebblingError

Edge = tuple[int, int, int]  # (from, to, weight)

# The largest graph a builder makes, in vertices and in directed edges.
# Each builder checks its size from its arguments before it lists an edge,
# so a descriptor such as ``path:100000000000:2`` fails at once instead of
# building for hours.  Both caps are far above every graph in the tests and
# on the benchmark ladder (the largest are path_graph(1500) and
# complete_graph(33)).
MAX_VERTICES = 10**5
MAX_EDGES = 10**6


def _check_size(vertices: int, edges: int) -> None:
    if vertices > MAX_VERTICES:
        raise PebblingError(f"graph would have {vertices} vertices, more than {MAX_VERTICES}")
    if edges > MAX_EDGES:
        raise PebblingError(f"graph would have {edges} edges, more than {MAX_EDGES}")


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[Edge, ...]
    # Per-vertex divisor values on divisor lattices; None elsewhere.
    labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        check_int(n, 1, "vertex count")
        check_vertices(n, [x for u, v, _ in self.edges for x in (u, v)], "edge endpoint")
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise PebblingError(f"self-loop at vertex {u}")
            check_int(w, 2, f"edge ({u},{v}) weight")
            if (u, v) in seen:
                raise PebblingError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @cached_property
    def weight_map(self) -> dict[tuple[int, int], int]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def out_edges(self) -> tuple[tuple[Edge, ...], ...]:
        out = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            out[u].append((u, v, w))
        return tuple(tuple(es) for es in out)

    @cached_property
    def in_edges(self) -> tuple[tuple[Edge, ...], ...]:
        inc = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            inc[v].append((u, v, w))
        return tuple(tuple(es) for es in inc)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.weight_map

    def weight(self, u: int, v: int) -> int:
        """The weight of edge (u, v): the one edge check for steps and
        flows.  An end that is not a vertex (a float or a bool included)
        fails as ``check_vertices`` words it; two vertices without an edge
        fail as ``no edge (u,v)``."""
        if type(u) is int and type(v) is int:  # an equal 1.0 or True finds the key
            w = self.weight_map.get((u, v))
            if w is not None:
                return w
        check_vertices(self.vertex_count, (u, v), "edge endpoint")
        raise PebblingError(f"no edge ({u},{v})")

    def is_uniform_weight(self, k: int) -> bool:
        return all(w == k for _, _, w in self.edges)

    def cost_to(self, t: int) -> tuple[int | None, ...]:
        """Minimum pebble cost per vertex: the cheapest product of edge
        weights along a directed path to ``t``.  ``cost[v]`` pebbles on v
        suffice to move one pebble to t; ``None`` marks vertices that
        cannot reach t at all."""
        check_vertices(self.vertex_count, (t,), "target")
        cache = self.__dict__.setdefault("_costs", {})
        if t not in cache:
            cost: list[int | None] = [None] * self.vertex_count
            heap = [(1, t)]
            while heap:
                d, v = heapq.heappop(heap)
                if cost[v] is not None:
                    continue
                cost[v] = d
                for u, _, w in self.in_edges[v]:
                    if cost[u] is None:
                        heapq.heappush(heap, (d * w, u))
            cache[t] = tuple(cost)
        return cache[t]

    def to_text(self) -> str:
        lines = [f"vertices {self.vertex_count}"]
        lines += [f"edge {u} {v} {w}" for u, v, w in self.edges]
        return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse the line-oriented graph format (one `vertices n`, `edge u v k`)."""
    n = None
    edges = []
    for keyword, fields in text_records(
        text, "graph", {"vertices": (int,), "edge": (int, int, int)}
    ):
        if keyword == "edge":
            edges.append(fields)
        elif n is None:
            (n,) = fields
        else:
            raise PebblingError("repeated 'vertices' line")
    if n is None:
        raise PebblingError("missing 'vertices' line")
    return Graph(n, tuple(edges))


def _undirected(n: int, pairs, k: int) -> Graph:
    check_int(k, 2, "weight")
    edges = []
    for u, v in pairs:
        edges.append((u, v, k))
        edges.append((v, u, k))
    return Graph(n, tuple(edges))


def complete_graph(n: int, k: int = 2) -> Graph:
    check_int(n, 1, "size")
    _check_size(n, n * (n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _undirected(n, pairs, k)


def cycle_graph(m: int, k: int = 2) -> Graph:
    check_int(m, 3, "size")
    _check_size(m, 2 * m)
    pairs = [(i, (i + 1) % m) for i in range(m)]
    return _undirected(m, pairs, k)


def path_graph(n: int, k: int = 2) -> Graph:
    check_int(n, 1, "size")
    _check_size(n, 2 * (n - 1))
    pairs = [(i, i + 1) for i in range(n - 1)]
    return _undirected(n, pairs, k)


def star_graph(leaves: int, k: int = 2) -> Graph:
    """Star with center 0 and the given number of leaves."""
    check_int(leaves, 1, "leaves")
    _check_size(leaves + 1, 2 * leaves)
    pairs = [(0, i) for i in range(1, leaves + 1)]
    return _undirected(leaves + 1, pairs, k)


def complete_bipartite_graph(m: int, n: int, k: int = 2) -> Graph:
    """Complete bipartite graph; the first part is vertices 0..m-1."""
    check_int(m, 1, "m")
    check_int(n, 1, "n")
    _check_size(m + n, 2 * m * n)
    pairs = [(a, m + b) for a in range(m) for b in range(n)]
    return _undirected(m + n, pairs, k)


def arrow_graph(k: int) -> Graph:
    """Two vertices joined by a single directed weight-k edge 0 -> 1."""
    return Graph(2, ((0, 1, k),))


def instar_graph(leaves: int, k: int) -> Graph:
    """Inward star: every leaf points at the central sink, vertex 0."""
    check_int(leaves, 1, "leaves")
    _check_size(leaves + 1, leaves)
    edges = tuple((i, 0, k) for i in range(1, leaves + 1))
    return Graph(leaves + 1, edges)


def petersen_graph() -> Graph:
    pairs = [(i, (i + 1) % 5) for i in range(5)]          # outer cycle
    pairs += [(i, i + 5) for i in range(5)]               # spokes
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    return _undirected(10, pairs, 2)


# 8-vertex Lemke graph, pinned by behavioral tests rather than a drawing:
# pebbling number 8 for every target, diameter 3, and the 2-pebbling
# property fails, e.g. for (0,0,0,1,1,1,1,8) with target 0.
LEMKE_PAIRS = (
    (0, 1), (0, 2), (1, 2),
    (1, 4), (1, 5), (1, 6),
    (2, 3), (3, 4),
    (3, 7), (4, 7), (5, 7), (6, 7),
)


def lemke_graph() -> Graph:
    return _undirected(8, LEMKE_PAIRS, 2)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_lattice(n: int) -> Graph:
    """Divisors of n, ascending; edge (p, d) for every p | d with weight d/p."""
    check_int(n, 1, "n")
    if n > MAX_VERTICES:  # it has fewer vertices, but finding them scans 1..n
        raise PebblingError(f"divisor lattice n = {n} is more than {MAX_VERTICES}")
    divs = divisors(n)
    index = {d: i for i, d in enumerate(divs)}
    edges = []
    for p in divs:
        for d in divs:
            if p != d and d % p == 0:
                edges.append((index[p], index[d], d // p))
    return Graph(len(divs), tuple(edges), labels=tuple(divs))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian graph product; vertex (a, b) gets id a * |V(H)| + b."""
    n = g.vertex_count * h.vertex_count
    _check_size(n, len(g.edges) * h.vertex_count + len(h.edges) * g.vertex_count)
    edges = []
    for u, v, w in g.edges:
        for b in range(h.vertex_count):
            edges.append((u * h.vertex_count + b, v * h.vertex_count + b, w))
    for u, v, w in h.edges:
        for a in range(g.vertex_count):
            edges.append((a * h.vertex_count + u, a * h.vertex_count + v, w))
    return Graph(n, tuple(edges))


def hypercube_graph(ks: list[int]) -> Graph:
    """Weighted hypercube: the grid of two-vertex paths with the given
    edge weights, one per dimension."""
    if not ks:
        raise PebblingError("hypercube needs at least one weight")
    return grid_graph([(2, k) for k in ks])


def grid_graph(dims: list[tuple[int, int]]) -> Graph:
    """Product of paths P_{n_i}^{(k_i)}, multiplied in the given order."""
    if not dims:
        raise PebblingError("grid needs at least one dimension")
    sizes = [n for n, _ in dims]
    if all(type(n) is int and n >= 1 for n in sizes):  # else path_graph names the bad one
        vertices = math.prod(sizes)
        _check_size(vertices, sum(2 * (n - 1) * (vertices // n) for n in sizes))
    g = path_graph(*dims[0])
    for n, k in dims[1:]:
        g = cartesian_product(g, path_graph(n, k))
    return g


def _parse_int(s: str, what: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise PebblingError(f"bad {what}: {s!r}") from None


# kind -> (builder, argument names); each builder checks its own
# arguments.  hypercube and grid take any number of arguments and have
# their own lines.
_FAMILIES = {
    "complete": (complete_graph, ("size", "weight")),
    "cycle": (cycle_graph, ("size", "weight")),
    "path": (path_graph, ("size", "weight")),
    "star": (star_graph, ("leaves", "weight")),
    "instar": (instar_graph, ("leaves", "weight")),
    "arrow": (arrow_graph, ("weight",)),
    "divisor_lattice": (divisor_lattice, ("n",)),
    "petersen": (petersen_graph, ()),
    "lemke": (lemke_graph, ()),
}


def _make_single_family(spec: str) -> Graph:
    spec = spec.strip()
    kind, *args = spec.split(":")
    if kind == "hypercube":
        return hypercube_graph([_parse_int(a, "weight") for a in args])
    if kind == "grid":
        if len(args) % 2 != 0 or not args:
            raise PebblingError("grid takes n:k pairs, e.g. grid:3:2:2:2")
        dims = [
            (_parse_int(args[i], "size"), _parse_int(args[i + 1], "weight"))
            for i in range(0, len(args), 2)
        ]
        return grid_graph(dims)
    if kind not in _FAMILIES:
        raise PebblingError(f"unknown graph family: {spec!r}")
    build, params = _FAMILIES[kind]
    if len(args) != len(params):
        plural = "" if len(params) == 1 else "s"
        raise PebblingError(f"{kind} takes {len(params)} argument{plural}, got {spec!r}")
    return build(*(_parse_int(a, name) for a, name in zip(args, params)))


def make_family(spec: str) -> Graph:
    """Build a named family from a descriptor string.

    Factors joined with ``x`` form Cartesian products, e.g.
    ``cycle:3:2 x path:3:2``.
    """
    if not spec.strip():
        raise PebblingError("empty family descriptor")
    factors = spec.split("x")
    if not all(part.strip() for part in factors):
        raise PebblingError(f"empty product factor in {spec!r}")
    graphs = [_make_single_family(f) for f in factors]
    g = graphs[0]
    for h in graphs[1:]:
        g = cartesian_product(g, h)
    return g


@dataclass(frozen=True)
class Homomorphism:
    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        # kept as a tuple, so a list and a tuple give equal, hashable maps
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.source.vertex_count:
            raise PebblingError("mapping must cover every source vertex")
        check_vertices(self.target.vertex_count, self.mapping, "image")

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.vertex_count


def validate_homomorphism(h: Homomorphism) -> bool:
    """True iff every source edge maps to a target edge of equal weight."""
    wm = h.target.weight_map
    for u, v, w in h.source.edges:
        if wm.get((h(u), h(v))) != w:
            return False
    return True


def least_prime_factor(n: int) -> int:
    check_int(n, 2, "n")
    return next(p for p in range(2, n + 1) if n % p == 0)


def arrow_divisor_hom(n: int) -> Homomorphism:
    """Surjective homomorphism arrow(p) square D_{n/p} -> D_n for p the
    least prime factor of n: (0, d) maps to d and (1, d) to p*d."""
    p = least_prime_factor(n)
    m = n // p
    dm = divisor_lattice(m)
    source = cartesian_product(arrow_graph(p), dm)
    target = divisor_lattice(n)
    index = {d: i for i, d in enumerate(target.labels)}
    mapping = []
    for a in (0, 1):
        for d in dm.labels:
            mapping.append(index[d if a == 0 else p * d])
    return Homomorphism(source, target, tuple(mapping))


def pullback_config(h: Homomorphism, c: tuple[int, ...]) -> tuple[int, ...]:
    """Pull a target configuration back through a surjective homomorphism:
    the lowest-id preimage of each target vertex receives its pebbles."""
    if not h.is_surjective():
        raise PebblingError("pullback needs a surjective homomorphism")
    check_config(c, h.target.vertex_count)
    representative: dict[int, int] = {}
    for u, img in enumerate(h.mapping):
        representative.setdefault(img, u)
    out = [0] * h.source.vertex_count
    for v, count in enumerate(c):
        out[representative[v]] = count
    return tuple(out)


def pushforward_steps(h: Homomorphism, steps) -> tuple[tuple[int, int], ...]:
    """Map each step (u, v) of a source solution, any iterable of steps, to
    (h(u), h(v)); each step must be a source edge (``Graph.weight``)."""
    steps = tuple(steps)
    for u, v in steps:
        h.source.weight(u, v)
    return tuple((h(u), h(v)) for u, v in steps)


def diameter(g: Graph) -> int | None:
    """Largest BFS distance (edge count) over all ordered pairs, or None
    if some vertex cannot reach another."""
    best = 0
    for t in range(g.vertex_count):
        dist = bfs_distances(g, t)
        if None in dist:
            return None
        best = max(best, *dist)
    return best


def bfs_distances(g: Graph, t: int) -> tuple[int | None, ...]:
    """Unweighted distance from each vertex to t along directed edges."""
    check_vertices(g.vertex_count, (t,), "target")
    dist: list[int | None] = [None] * g.vertex_count
    dist[t] = 0
    queue = [t]
    for v in queue:
        for u, _, _ in g.in_edges[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return tuple(dist)
