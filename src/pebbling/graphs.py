"""Edge-weighted digraphs, named families, Cartesian products and homomorphisms.

Vertices are dense integer ids ``0..n-1``.  Undirected families materialize
both directed edges with equal weight.  Product vertices are flattened
row-major with the left factor major, which also fixes the "lowest-id
preimage" representative used by configuration pullback.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from .configs import text_records
from .errors import PebblingError

Edge = tuple[int, int, int]  # (from, to, weight)


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[Edge, ...]
    # Per-vertex divisor values on divisor lattices; None elsewhere.
    labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise PebblingError("graph needs at least one vertex")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise PebblingError(f"edge ({u},{v}) endpoint out of range")
            if u == v:
                raise PebblingError(f"self-loop at vertex {u}")
            if w < 2:
                raise PebblingError(f"edge ({u},{v}) has weight {w} < 2")
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
        try:
            return self.weight_map[(u, v)]
        except KeyError:
            raise PebblingError(f"no edge ({u},{v})") from None

    def is_uniform_weight(self, k: int) -> bool:
        return all(w == k for _, _, w in self.edges)

    def cost_to(self, t: int) -> tuple[int | None, ...]:
        """Minimum pebble cost per vertex: the cheapest product of edge
        weights along a directed path to ``t``.  ``cost[v]`` pebbles on v
        suffice to move one pebble to t; ``None`` marks vertices that
        cannot reach t at all."""
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
    for keyword, fields in text_records(text, "graph", {"vertices": 1, "edge": 3}):
        if keyword == "vertices":
            if n is not None:
                raise PebblingError("repeated 'vertices' line")
            n = int(fields[0])
        else:
            edges.append(tuple(map(int, fields)))
    if n is None:
        raise PebblingError("missing 'vertices' line")
    return Graph(n, tuple(edges))


def _undirected(n: int, pairs, k: int) -> Graph:
    edges = []
    for u, v in pairs:
        edges.append((u, v, k))
        edges.append((v, u, k))
    return Graph(n, tuple(edges))


def complete_graph(n: int, k: int = 2) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _undirected(n, pairs, k)


def cycle_graph(m: int, k: int = 2) -> Graph:
    if m < 3:
        raise PebblingError("cycle needs at least 3 vertices")
    pairs = [(i, (i + 1) % m) for i in range(m)]
    return _undirected(m, pairs, k)


def path_graph(n: int, k: int = 2) -> Graph:
    pairs = [(i, i + 1) for i in range(n - 1)]
    return _undirected(n, pairs, k)


def star_graph(leaves: int, k: int = 2) -> Graph:
    """Star with center 0 and the given number of leaves."""
    pairs = [(0, i) for i in range(1, leaves + 1)]
    return _undirected(leaves + 1, pairs, k)


def complete_bipartite_graph(m: int, n: int, k: int = 2) -> Graph:
    """Complete bipartite graph; the first part is vertices 0..m-1."""
    if m < 1 or n < 1:
        raise PebblingError("both parts need at least one vertex")
    pairs = [(a, m + b) for a in range(m) for b in range(n)]
    return _undirected(m + n, pairs, k)


def arrow_graph(k: int) -> Graph:
    """Two vertices joined by a single directed weight-k edge 0 -> 1."""
    return Graph(2, ((0, 1, k),))


def instar_graph(leaves: int, k: int) -> Graph:
    """Inward star: every leaf points at the central sink, vertex 0."""
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
    if n < 1:
        raise PebblingError("divisor lattice needs n >= 1")
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
    g = path_graph(*dims[0])
    for n, k in dims[1:]:
        g = cartesian_product(g, path_graph(n, k))
    return g


def _parse_int(s: str, minimum: int, what: str) -> int:
    try:
        value = int(s)
    except ValueError:
        raise PebblingError(f"bad {what}: {s!r}") from None
    if value < minimum:
        raise PebblingError(f"{what} must be >= {minimum}, got {value}")
    return value


def _make_single_family(spec: str) -> Graph:
    parts = spec.strip().split(":")
    kind, args = parts[0], parts[1:]
    if kind in ("petersen", "lemke"):
        if args:
            raise PebblingError(f"{kind} takes no arguments, got {spec!r}")
        return petersen_graph() if kind == "petersen" else lemke_graph()
    if kind == "arrow":
        (k,) = args
        return arrow_graph(_parse_int(k, 2, "weight"))
    if kind == "divisor_lattice":
        (n,) = args
        return divisor_lattice(_parse_int(n, 1, "n"))
    if kind == "hypercube":
        ks = [_parse_int(a, 2, "weight") for a in args]
        return hypercube_graph(ks)
    if kind == "grid":
        if len(args) % 2 != 0 or not args:
            raise PebblingError("grid takes n:k pairs, e.g. grid:3:2:2:2")
        dims = [
            (_parse_int(args[i], 1, "length"), _parse_int(args[i + 1], 2, "weight"))
            for i in range(0, len(args), 2)
        ]
        return grid_graph(dims)
    if kind in ("complete", "cycle", "path", "star", "instar"):
        n_s, k_s = args
        n = _parse_int(n_s, 1, "size")
        k = _parse_int(k_s, 2, "weight")
        if kind == "complete":
            return complete_graph(n, k)
        if kind == "cycle":
            return cycle_graph(n, k)
        if kind == "path":
            return path_graph(n, k)
        if kind == "star":
            return star_graph(n, k)
        return instar_graph(n, k)
    raise PebblingError(f"unknown graph family: {spec!r}")


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
    try:
        graphs = [_make_single_family(f) for f in factors]
    except ValueError as exc:  # unpacking errors from wrong arity
        raise PebblingError(f"malformed family descriptor {spec!r}") from exc
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
        if len(self.mapping) != self.source.vertex_count:
            raise PebblingError("mapping must cover every source vertex")
        for img in self.mapping:
            if not 0 <= img < self.target.vertex_count:
                raise PebblingError(f"mapped vertex {img} out of range")

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
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    raise PebblingError("n must be >= 2")


def arrow_divisor_hom(n: int) -> Homomorphism:
    """Surjective homomorphism arrow(p) square D_{n/p} -> D_n for p the
    least prime factor of n: (0, d) maps to d and (1, d) to p*d."""
    if n < 2:
        raise PebblingError("need n >= 2")
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
    if len(c) != h.target.vertex_count:
        raise PebblingError("configuration size mismatch")
    representative: dict[int, int] = {}
    for u, img in enumerate(h.mapping):
        representative.setdefault(img, u)
    out = [0] * h.source.vertex_count
    for v, count in enumerate(c):
        out[representative[v]] = count
    return tuple(out)


def pushforward_steps(h: Homomorphism, steps) -> tuple[tuple[int, int], ...]:
    """Map each step (u, v) of a source solution to (h(u), h(v))."""
    for u, v in steps:
        if not h.source.has_edge(u, v):
            raise PebblingError(f"step ({u},{v}) is not a source edge")
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
    dist: list[int | None] = [None] * g.vertex_count
    dist[t] = 0
    queue = [t]
    for v in queue:
        for u, _, _ in g.in_edges[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return tuple(dist)
