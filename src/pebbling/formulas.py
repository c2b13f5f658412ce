"""Closed-form pebbling numbers and counting formulas.

Each formula is cross-validated against the exhaustive solver in the test
suite; the functions here only evaluate the closed forms.
"""

from __future__ import annotations

from math import comb

from .configs import check_int, check_vertices
from .errors import PebblingError
from .graphs import Graph, diameter
from .solver import pebbling_number_graph


def pi_complete(n: int, k: int) -> int:
    """Complete graph on n vertices with uniform edge weight k."""
    check_int(n, 1, "n")
    check_int(k, 1, "k")
    return (n - 1) * (k - 1) + 1


def _tree_children(g: Graph, r: int) -> tuple[dict[int, list[int]], list[int]]:
    """Orient an undirected tree skeleton away from the root r, returning
    the children of each vertex and the BFS order from r; errors out when
    r is not a vertex or the graph is not a tree."""
    n = g.vertex_count
    check_vertices(n, (r,), "root")
    directed = {(u, v) for u, v, _ in g.edges}
    if any((v, u) not in directed for u, v in directed):
        raise PebblingError("tree skeleton must be undirected")
    if len(directed) != 2 * (n - 1):
        raise PebblingError("a tree has exactly #V - 1 edges")
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    seen = {r}
    queue = [r]
    for v in queue:
        for _, u, _ in g.out_edges[v]:
            if u not in seen:
                seen.add(u)
                children[v].append(u)
                queue.append(u)
    if len(seen) != n:
        raise PebblingError("tree skeleton must be connected")
    return children, queue


def max_path_partition(g: Graph, r: int) -> tuple[tuple[int, ...], ...]:
    """Maximum path-partition of a tree rooted at r: a tuple of directed
    paths toward the root, longest first, covering every non-root vertex,
    with lexicographically maximal size sequence.

    Built bottom-up, children before parents (reverse BFS order): each
    child's maximum partition gets the child appended to its longest path,
    and the parent merges the results.  Ties between equal-length longest
    paths go to the lowest child id.
    """
    children, order = _tree_children(g, r)
    parts: dict[int, list[list[int]]] = {}
    for v in reversed(order):
        merged: list[list[int]] = []
        for ch in children[v]:
            sub = parts.pop(ch)
            if sub:
                # append the child to its longest path (paths run toward
                # the root, so the child goes at the end)
                sub[0] = sub[0] + [ch]
            else:
                sub = [[ch]]
            merged.extend(sub)
        merged.sort(key=lambda p: (-len(p), p))
        parts[v] = merged
    return tuple(tuple(p) for p in parts[r])


def pi_tree(g: Graph, r: int, k: int = 2, n: int = 1) -> int:
    """n-fold pebbling number of a uniform weight-k tree toward root r:
    n*k^s1 + k^s2 + ... + k^sm - m + 1 over the maximum path-partition
    sizes s1 >= s2 >= ... >= sm."""
    check_int(k, 2, "k")
    check_int(n, 1, "n")
    sizes = [len(p) for p in max_path_partition(g, r)]
    if not sizes:
        return n  # single-vertex tree
    total = n * k ** sizes[0]
    for s in sizes[1:]:
        total += k**s
    return total - len(sizes) + 1


def pi_cycle(m: int) -> int:
    """Weight-2 cycle: 2^n for m = 2n, 2*floor(2^(n+1)/3) + 1 for m = 2n+1."""
    check_int(m, 3, "cycle size")
    if m % 2 == 0:
        return 2 ** (m // 2)
    n = (m - 1) // 2
    return 2 * (2 ** (n + 1) // 3) + 1


def pi_weighted_hypercube(ks: list[int]) -> int:
    """Grid of two-vertex paths with weights ks: pi is the product."""
    if not ks:
        raise PebblingError("hypercube needs at least one weight")
    return pi_grid([(2, k) for k in ks])


def pi_grid(dims: list[tuple[int, int]]) -> int:
    """Product of paths P_{n_i}^{(k_i)}: product of k_i^(n_i - 1)."""
    if not dims:
        raise PebblingError("grid needs at least one dimension")
    out = 1
    for n, k in dims:
        check_int(n, 1, "size")
        check_int(k, 2, "weight")
        out *= k ** (n - 1)
    return out


def pi_complete_bipartite(m: int, n: int) -> int:
    check_int(m, 2, "m")
    check_int(n, 2, "n")
    return m + n


def pi_instar(n: int, k: int) -> int:
    """Inward star with n leaves and weight-k edges, target the sink."""
    check_int(n, 1, "n")
    check_int(k, 2, "k")
    return n * k - n + 1


def diameter2_bound(g: Graph) -> int:
    """#V + 1 upper bound, valid for weight-2 graphs of diameter 2."""
    if not g.is_uniform_weight(2):
        raise PebblingError("bound requires an all-weight-2 graph")
    if diameter(g) != 2:
        raise PebblingError("bound requires diameter exactly 2")
    return g.vertex_count + 1


def classify_diameter2(g: Graph) -> tuple[int, int, str]:
    """(bound, brute-forced pi, class): Class-0 when pi equals the vertex
    count, Class-1 when it hits the bound #V + 1."""
    bound = diameter2_bound(g)
    actual = pebbling_number_graph(g)
    label = "Class-0" if actual == g.vertex_count else "Class-1"
    return bound, actual, label


def config_count(n: int, k: int) -> int:
    """Number of ways to place k pebbles on n vertices: C(k+n-1, n-1)."""
    check_int(n, 1, "n")
    check_int(k, 0, "k")
    return comb(k + n - 1, n - 1)
