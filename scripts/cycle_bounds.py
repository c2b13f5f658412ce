#!/usr/bin/env python3
"""Compare pebbling-number routes on small cycles.

For each cycle size we print the closed form, the covering bound and the
exact-rational LP bound from the generated mirror pair of weight
functions, and (for sizes where enumeration is cheap) the brute-forced
value.  All four columns should agree.
"""

import argparse

from pebbling.formulas import pi_cycle
from pebbling.graphs import cycle_graph
from pebbling.solver import pebbling_number
from pebbling.weights import covering_bound, cycle_weight_functions, lp_bound_details


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=12, help="largest cycle size")
    ap.add_argument("--brute-max", type=int, default=8,
                    help="largest size to also brute force")
    args = ap.parse_args()

    print(f"{'m':>3} {'formula':>8} {'covering':>9} {'lp':>4} {'lp opt':>8} {'brute':>6}")
    for m in range(3, args.max + 1):
        g = cycle_graph(m)
        ws = list(cycle_weight_functions(m, 0))
        cov = covering_bound(g, ws)
        lp, opt, _, _ = lp_bound_details(g, 0, ws)
        brute = pebbling_number(g, 0).value if m <= args.brute_max else "-"
        print(f"{m:>3} {pi_cycle(m):>8} {cov:>9} {lp:>4} {str(opt):>8} {brute:>6}")


if __name__ == "__main__":
    main()
