"""Emission of symbolic model-checker (NuSMV-style) input files.

Two model shapes: reachability of one pebble on each vertex from every
configuration of a fixed size, and the 2-pebbling-property check where
the initial sizes depend on the number of occupied vertices.  Output is
byte-deterministic; running the external model checker is left to the
user.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PebblingError
from .graphs import Graph

# Vertices are rendered 1-based as c[1]..c[n].


@dataclass(frozen=True)
class SmvModel:
    text: str


def _model(g: Graph, header: list[str], least: int) -> SmvModel:
    """The layout both models share: MODULE main, the header lines, one
    TRANS disjunct per edge plus stuttering, and SPEC EF c[i] > least for
    every vertex."""
    n = g.vertex_count
    lines = ["MODULE main", *header, "", "TRANS"]
    for u, v, w in g.edges:  # already sorted by (from, to)
        parts = [f"c[{u + 1}]>{w - 1}"]
        for i in range(n):
            if i == u:
                parts.append(f"next(c[{i + 1}])=c[{i + 1}]-{w}")
            elif i == v:
                parts.append(f"next(c[{i + 1}])=c[{i + 1}]+1")
            else:
                parts.append(f"next(c[{i + 1}])=c[{i + 1}]")
        lines.append("( " + " & ".join(parts) + " ) |")
    stutter = " & ".join(f"next(c[{i + 1}])=c[{i + 1}]" for i in range(n))
    lines += ["  ( " + stutter + " )", ""]
    lines += [f"SPEC EF c[{i + 1}] > {least}" for i in range(n)]
    return SmvModel("\n".join(lines) + "\n")


def emit_pebbling_model(g: Graph, total_pebbles: int) -> SmvModel:
    """Model checking that from every configuration of the given size one
    pebble can reach each vertex (SPEC EF c[i] > 0)."""
    if total_pebbles < 0:
        raise PebblingError("pebble count must be non-negative")
    n = g.vertex_count
    total_sum = " + ".join(f"c[{i + 1}]" for i in range(n))
    header = [
        f"DEFINE n := {total_pebbles};",
        f"VAR c : array 1..{n} of 0..n;",
        f"INIT {total_sum} = n",
    ]
    return _model(g, header, 0)


def emit_2pp_model(g: Graph, pi: int) -> SmvModel:
    """Model checking the 2-pebbling property: initial configurations have
    2*pi + 1 - (occupied vertex count) pebbles, and every vertex should be
    able to receive two (SPEC EF c[i] > 1)."""
    if pi < 1:
        raise PebblingError("pebbling number must be >= 1")
    n = g.vertex_count
    total_sum = " + ".join(f"c[{i + 1}]" for i in range(n))
    occupied = ", ".join(f"c[{i + 1}]>0" for i in range(n))
    header = [
        f"DEFINE n := {n}; p := {pi};",
        "VAR c : array 1..n of 0..2*p;",
        "",
        "INIT",
        f"  {total_sum} = 2*p + 1 -",
        f"  count({occupied})",
    ]
    return _model(g, header, 1)
