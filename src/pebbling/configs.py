"""Configurations and their size / support / reduced-size calculus.

A configuration on a graph with n vertices is a plain tuple of n
non-negative pebble counts, which keeps them hashable for memoized search.
"""

from __future__ import annotations

import json
from typing import Iterator

from .errors import PebblingError

Config = tuple[int, ...]


def size(c: Config) -> int:
    return sum(c)


def support(c: Config) -> tuple[int, ...]:
    return tuple(v for v, x in enumerate(c) if x)


def support_count(c: Config) -> int:
    return sum(1 for x in c if x)


def is_subconfig(c1: Config, c2: Config) -> bool:
    return all(a <= b for a, b in zip(c1, c2, strict=True))


def add(c1: Config, c2: Config) -> Config:
    return tuple(a + b for a, b in zip(c1, c2, strict=True))


def subtract(c1: Config, c2: Config) -> Config:
    if not is_subconfig(c2, c1):
        raise PebblingError("subtrahend is not a subconfiguration")
    return tuple(a - b for a, b in zip(c1, c2, strict=True))


def reduced_size(c: Config, k: int) -> int:
    """k-reduced size |c| - (k-1)(s#(c) - 1).

    Applied literally: the empty configuration gets k - 1, which is not an
    extractable pebble count, so callers must special-case s# = 0.
    """
    check_config(c)
    check_int(k, 1, "k")
    return size(c) - (k - 1) * (support_count(c) - 1)


def extract_blocks(c: Config, k: int, n: int) -> tuple[dict[int, int], Config]:
    """Extract n blocks of k pebbles, greedily from the lowest-id vertex
    holding at least k.  Requires the reduced-size bound r_k(c) >= n*k."""
    check_int(n, 0, "n")
    if reduced_size(c, k) < n * k:
        raise PebblingError(
            f"insufficient reduced size: r_{k}(c)={reduced_size(c, k)} < {n * k}"
        )
    counts = list(c)
    extraction: dict[int, int] = {}
    for _ in range(n):
        v = next(i for i, x in enumerate(counts) if x >= k)
        counts[v] -= k
        extraction[v] = extraction.get(v, 0) + 1
    return extraction, tuple(counts)


def extract_single_block(c: Config, k: int, n: int) -> tuple[int, Config]:
    """Remove one block of n <= k pebbles from a single vertex; the residual
    keeps reduced size at least r_k(c) - n."""
    check_int(n, 0, "n")
    if n > k:
        raise PebblingError("block size n must not exceed k")
    if reduced_size(c, k) < n:
        raise PebblingError(
            f"insufficient reduced size: r_{k}(c)={reduced_size(c, k)} < {n}"
        )
    v = next(i for i, x in enumerate(c) if x >= n)
    counts = list(c)
    counts[v] -= n
    return v, tuple(counts)


def enumerate_configs(vertex_count: int, total: int) -> Iterator[Config]:
    """All configurations of the exact given size, lexicographically
    ascending; yields C(total + n - 1, n - 1) items."""
    ones = _per_vertex(vertex_count, 1)
    check_int(total, 0, "size")
    yield from bounded_configs(total, ones, total)


def bounded_configs(
    total: int, cost: tuple[int, ...], budget: int, q_lo: int = 0, q_hi: int | None = None
) -> Iterator[Config]:
    """Size-``total`` configurations c on len(cost) vertices with
    sum(c[v] // cost[v]) <= budget and support count in [q_lo, q_hi]
    (q_hi None: no upper limit), lexicographically ascending.

    Costs are positive.  Iterative depth-first walk: a prefix is cut when
    it spends more than the budget, when the remaining vertices cannot
    hold the remaining pebbles (at most sum(cost - 1) + budget * max cost
    of them), or when no completion has its support in the window (the
    pebbles left occupy at least one and at most min(vertices left,
    pebbles left) more vertices)."""
    k = len(cost)
    last = k - 1
    if q_hi is None:
        q_hi = k
    windowed = q_lo > 0 or q_hi < k
    # free[j], top[j]: sum(cost - 1) and max cost over vertices j.. .
    free = [0] * (k + 1)
    top = [0] * (k + 1)
    for j in range(last, -1, -1):
        free[j] = free[j + 1] + cost[j] - 1
        top[j] = max(top[j + 1], cost[j])
    if budget < 0 or not 0 <= total <= free[0] + budget * top[0]:
        return
    if q_lo > min(q_hi, k, total) or (total > 0) > q_hi:
        return
    if k == 0:
        yield ()
        return
    c = [0] * k
    rem = [0] * k  # pebbles left for vertices j..
    left = [0] * k  # budget left for vertices j..
    held = [0] * k  # support count of vertices ..j-1
    rem[0] = total
    left[0] = budget
    j = 0
    x = 0  # next value to try at vertex j
    while True:
        if j == last:
            c[last] = rem[last]
            if c[last] // cost[last] <= left[last]:
                yield tuple(c)
            j -= 1
            if j < 0:
                return
            x = c[j] + 1
            continue
        r, b, cj = rem[j], left[j], cost[j]
        cap_free, cap_top = free[j + 1], top[j + 1]
        while x <= r:
            spent = x // cj
            if spent > b:
                x = r + 1
            elif r - x > cap_free + (b - spent) * cap_top:
                x += 1
            elif not windowed:
                break
            else:
                q = held[j] + (x > 0)
                if q + (x < r) > q_hi:
                    # x = 0 or r fills one more vertex, 0 < x < r two.
                    x = r if 0 < x < r else r + 1
                elif q + min(last - j, r - x) < q_lo:
                    # Past x = 1, a larger x only leaves fewer pebbles.
                    x = x + 1 if x == 0 else r + 1
                else:
                    break
        if x > r:
            j -= 1
            if j < 0:
                return
            x = c[j] + 1
            continue
        c[j] = x
        rem[j + 1] = r - x
        left[j + 1] = b - x // cj
        held[j + 1] = held[j] + (x > 0)
        j += 1
        x = 0


def enumerate_configs_with_support(
    vertex_count: int, total: int, support_size: int
) -> Iterator[Config]:
    """Configurations of the exact size whose support has exactly the given
    number of vertices, lexicographically ascending; none for a negative
    size."""
    ones = _per_vertex(vertex_count, 1)
    check_int(support_size, 0, "support size")
    if type(total) is not int or total >= 0:  # a negative size has no configurations
        check_int(total, 0, "size")
    yield from bounded_configs(total, ones, total, support_size, support_size)


def config_from_pairs(vertex_count: int, pairs) -> Config:
    counts = _per_vertex(vertex_count, 0)
    for v, x in pairs:
        check_vertices(vertex_count, (v,), "placement")
        check_int(x, 0, "pebble count")
        counts[v] += x
    return tuple(counts)


def _per_vertex(vertex_count: int, value: int) -> list[int]:
    """[value] * vertex_count, for an int count >= 1 that fits an index."""
    check_int(vertex_count, 1, "vertex count")
    try:
        return [value] * vertex_count
    except OverflowError:
        raise PebblingError(f"vertex count {vertex_count} is too large") from None


def check_config(c: Config, vertex_count: int | None = None) -> None:
    """Reject anything but a tuple or list of non-negative ints, one per
    vertex (of any length when ``vertex_count`` is None)."""
    if not isinstance(c, (tuple, list)):
        raise PebblingError(f"configuration must be a tuple or list, got {type(c).__name__}")
    if vertex_count is not None and len(c) != vertex_count:
        raise PebblingError(f"configuration has {len(c)} entries for {vertex_count} vertices")
    for x in c:  # a plain loop: this runs once per decision
        if type(x) is not int or x < 0:  # bool is an int
            raise PebblingError("pebble counts must be non-negative integers")


def check_vertices(vertex_count: int, vertices, what: str) -> None:
    """Reject a sequence of vertex ids holding one that is not an int (a
    bool included) or lies outside 0..vertex_count-1, named as ``what``:
    one type pass and one ``min``/``max`` pass, a search only on failure."""
    if vertices and (
        not set(map(type, vertices)) <= {int} or min(vertices) < 0 or max(vertices) >= vertex_count
    ):
        bad = next(v for v in vertices if type(v) is not int or not 0 <= v < vertex_count)
        raise PebblingError(f"{what} {bad!r} is not a vertex (0..{vertex_count - 1})")


def check_int(value, minimum: int, what: str) -> None:
    """Reject anything but an int (not a bool) >= minimum, named as ``what``."""
    if type(value) is not int or value < minimum:
        raise PebblingError(f"{what} must be an int >= {minimum}, got {value!r}")


def text_records(
    text: str, what: str, fields: dict[str, tuple]
) -> Iterator[tuple[str, tuple]]:
    """The line format shared by every text file: `#` starts a comment,
    blank lines are skipped, and each other line is a keyword followed by
    one field per converter in ``fields[keyword]`` (``int``,
    ``Fraction``).  Yields (keyword, converted fields)."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        convert = fields.get(keyword)
        if convert is None or len(convert) != len(rest):
            raise PebblingError(f"unrecognized {what} line: {raw!r}")
        try:
            values = tuple(f(x) for f, x in zip(convert, rest))
        except (ValueError, ZeroDivisionError):
            raise PebblingError(f"malformed number in {what} line: {raw!r}") from None
        yield keyword, values


def config_from_text(text: str, vertex_count: int) -> Config:
    """Parse `pebbles <vertex> <count>` lines; omitted vertices are zero."""
    records = text_records(text, "configuration", {"pebbles": (int, int)})
    return config_from_pairs(vertex_count, [pair for _, pair in records])


def config_to_text(c: Config) -> str:
    lines = [f"pebbles {v} {x}" for v, x in enumerate(c) if x]
    return "\n".join(lines) + ("\n" if lines else "")


def config_from_json(text: str, vertex_count: int) -> Config:
    check_int(vertex_count, 1, "vertex count")
    try:
        values = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise PebblingError(f"malformed JSON configuration: {exc}") from None
    if not isinstance(values, list):
        raise PebblingError("JSON configuration must be a list")
    check_config(values, vertex_count)
    return tuple(values)
