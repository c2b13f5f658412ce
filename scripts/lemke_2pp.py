#!/usr/bin/env python3
"""Reproduce the Lemke graph's failure of the 2-pebbling property.

Computes pi(L, t) for every target, then scans the 2PP window for a
counterexample: a configuration with 2*pi - q + 1 pebbles (q occupied
vertices) from which some target cannot receive two pebbles.  Takes
0.2-0.5 s single-threaded on a 2-vCPU shared host, as its load varies.
"""

import argparse
import time

from pebbling.graphs import lemke_graph
from pebbling.solver import has_2pp, pebbling_number


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the pi computation")
    ap.add_argument("--variant", choices=["support", "odd"], default="support")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error(f"argument --jobs: need at least 1, got {args.jobs}")

    g = lemke_graph()
    t0 = time.monotonic()
    values = [pebbling_number(g, t, jobs=args.jobs).value for t in range(g.vertex_count)]
    pi = max(values)
    print(f"pi(L, t) by target: {values}  (pi = {pi}, {time.monotonic() - t0:.1f}s)")

    t0 = time.monotonic()
    holds, ce = has_2pp(g, pi, variant=args.variant)
    elapsed = time.monotonic() - t0
    if holds:
        print(f"2PP holds ({elapsed:.1f}s)")
        return
    c, target = ce
    q = sum(1 for x in c if x)
    print(f"2PP fails ({elapsed:.1f}s):")
    print(f"  configuration {c}  (size {sum(c)} = 2*{pi} - {q} + 1)")
    print(f"  cannot place two pebbles on vertex {target}")


if __name__ == "__main__":
    main()
