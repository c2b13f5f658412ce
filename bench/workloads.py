"""The workloads: their inputs, made from the seed, and their checks.

Each workload is a list of operations.  An operation's ``run`` makes the
public call(s) a user would make and returns the raw answer; its ``check``
verifies that answer with ``checks`` after the timed round.  Calls go
through module attributes (``solver.is_solvable``, ``cli.main``) at call
time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import pebbling
import pebbling.cli as cli
from pebbling import flows, graphs, solver, weights, zerosum

import checks


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    # What a fresh process builds for set-up: family descriptors, or
    # [vertex_count, edges] for graphs made from the seed.
    graph_specs: list
    uses_cli: bool


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_json(answer) -> dict:
    code, text = answer
    checks.require(code == 0, f"pebble exited with {code}")
    return json.loads(text)


# --- decide-mix -------------------------------------------------------------

# Named graphs and their 1-fold pebbling numbers.  Their instances, at
# n = 1 and 2, come from a fixed seed: single decisions on them take from
# 0.1 ms to 0.3 s, and at n = 2 a few dominate a round, so drawing them
# afresh per run would make the spread between seeds wider than any useful
# bound.  The random graphs and their instances (n = 1 only, where no
# single decision dominates) and the order of all operations come from
# --seed.
NAMED = (
    ("cycle:8:2", checks.pi_cycle(8)),
    ("cycle:9:2", checks.pi_cycle(9)),
    ("cycle:10:2", checks.pi_cycle(10)),
    ("petersen", checks.PI_PETERSEN),
    ("hypercube:2:2:2", checks.pi_weighted_hypercube((2, 2, 2))),
    ("lemke", checks.PI_LEMKE),
)
NAMED_SEED = 2303
NAMED_PER_FOLD = 50      # instances per named graph and n
RANDOM_GRAPHS = 40
RANDOM_PER_GRAPH = 15
# path:3:2 with c = (4m+3, 1, 0), t = 2, n = m+1: its only witnesses take
# about 3m steps, beyond the configuration search's recursion depth.
DEEP_M = (400, 450, 500, 550, 600)


def random_connected_graph(rng: random.Random) -> tuple[int, list]:
    """A random spanning tree plus extra edges on 5-7 vertices, each
    undirected edge of weight 2 or 3."""
    nv = rng.randint(5, 7)
    order = list(range(nv))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, nv):
        a, b = order[i], order[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    extra = rng.randint(0, nv - 2)
    while extra:
        a, b = rng.sample(range(nv), 2)
        if (min(a, b), max(a, b)) not in pairs:
            pairs.add((min(a, b), max(a, b)))
            extra -= 1
    edges = []
    for a, b in sorted(pairs):
        w = rng.choice((2, 3))
        edges += [(a, b, w), (b, a, w)]
    return nv, edges


def random_config(rng: random.Random, nv: int, size: int) -> tuple[int, ...]:
    """Uniform over configurations of the given size (stars and bars)."""
    bars = sorted(rng.sample(range(size + nv - 1), nv - 1))
    out, prev = [], -1
    for b in bars + [size + nv - 1]:
        out.append(b - prev - 1)
        prev = b
    return tuple(out)


def _undecided(rng, g, pi1, count, folds=(1, 2), tries=100_000):
    """``count`` instances (c, t, n) per n in ``folds`` that the quick bounds
    leave open, with sizes in the third of the range just below the n-fold
    threshold estimate pi1 + (n - 1) * max cost; None if ``tries`` draws
    do not find them."""
    out = []
    for n in folds:
        found = 0
        while found < count:
            tries -= 1
            if tries < 0:
                return None
            t = rng.randrange(g.vertex_count)
            threshold = pi1 + (n - 1) * max(g.cost_to(t))
            size = rng.randint(threshold - threshold // 3, threshold - 1)
            c = random_config(rng, g.vertex_count, size)
            if solver.solvable_quick(g, c, t, n) is None:
                out.append((c, t, n))
                found += 1
    return out


def _decide(g, c, t, n):
    found = solver.is_solvable(g, c, t, n)
    flow = flows.solve_via_flow(g, c, t, n)
    realized = flows.realize(g, flow) if flow is not None else None
    return (found.solvable, found.witness, found.final), realized


def _decide_op(label, g, c, t, n) -> Op:
    def check(answer):
        checks.check_decision(g.edges, c, t, n, *answer)

    return Op(f"{label} {c} t={t} n={n}", lambda: _decide(g, c, t, n), check)


def decide_mix(seed: int) -> Workload:
    ops = []
    named_rng = random.Random(NAMED_SEED)
    for family, pi1 in NAMED:
        g = graphs.make_family(family)
        ops += [_decide_op(family, g, *inst) for inst in _undecided(named_rng, g, pi1, NAMED_PER_FOLD)]
    rng = random.Random(seed)
    specs = [f for f, _ in NAMED] + ["path:3:2"]
    while len(specs) < len(NAMED) + 1 + RANDOM_GRAPHS:
        nv, edges = random_connected_graph(rng)
        g = pebbling.Graph(nv, tuple(edges))
        # A random graph has no closed form; its pebbling number is at
        # least its vertex count and its largest cost to the target.
        pi1 = max(nv, max(max(g.cost_to(t)) for t in range(nv)))
        found = _undecided(rng, g, pi1, RANDOM_PER_GRAPH, folds=(1,), tries=20_000)
        if found is None:
            continue
        ops += [_decide_op(f"random{len(specs)}", g, *inst) for inst in found]
        specs.append([nv, edges])
    path = graphs.make_family("path:3:2")
    ops += [_decide_op("path:3:2", path, (4 * m + 3, 1, 0), 2, m + 1) for m in DEEP_M]
    rng.shuffle(ops)
    return Workload(ops, specs, uses_cli=False)


# --- certify ----------------------------------------------------------------

# Pebbling numbers through `pebble pi`: (family, targets, closed form).
PI_CALLS = (
    ("petersen", (0,), checks.PI_PETERSEN),
    ("hypercube:2:2:2", tuple(range(8)), checks.pi_weighted_hypercube((2, 2, 2))),
    ("lemke", tuple(range(8)), checks.PI_LEMKE),
    ("hypercube:3:4", (3,), checks.pi_weighted_hypercube((3, 4))),
    ("complete:4:3", (0,), checks.pi_complete(4, 3)),
)
# 2PP instances: (family, pi, whether the property holds).
TWO_PP = (
    ("lemke", checks.PI_LEMKE, False),
    ("cycle:6:2", checks.pi_cycle(6), True),
    ("grid:3:2:2:2", 8, True),           # P3 x P2: pi(P3) * pi(P2)
)
LP_FAMILIES = ("petersen", "hypercube:2:2:2", "lemke")
# A family of 100 took 0.7-3.1 s in the exact simplex, 60 took 0.2-1.1 s;
# 60 keeps a traced run of certify within its time limit on a slow host.
LP_FAMILY_SIZE = 60
ZERO_SUM_N = (60, 120, 360, 720)
ZERO_SUM_PER_N = 125     # of each of divisor_zero_sum and erdos_lemke
SMALL_DIVISOR = 6
ROADMAP_ERDOS_LEMKE = [1] * 29 + [2] * 15 + [3] * 10 + [5] * 6
TAU = ("hypercube:3:4", 3, 2, 3, 24, 20)   # family, t, n, k, p, m_max


def _two_pp_op(family: str, pi: int, expect_holds: bool) -> Op:
    argv = ["--json", "--jobs", "1", "2pp", "--family", family, "--pi", str(pi)]
    g = graphs.make_family(family)

    def check(answer):
        out = _cli_json(answer)
        if expect_holds:
            checks.require(out["result"] == "holds", f"2PP on {family}: {out['result']}")
            return
        checks.require(out["result"].startswith("fails for target "), f"2PP on {family}: {out['result']}")
        t = int(out["result"].rsplit(" ", 1)[1])
        c = tuple(out["witness"])
        checks.check_2pp_counterexample(pi, c, [
            ("is_solvable", lambda c: not solver.is_solvable(g, c, t, 2).solvable),
            ("solve_via_flow", lambda c: flows.solve_via_flow(g, c, t, 2) is None),
        ])

    return Op(f"2pp {family}", lambda: _cli(argv), check)


def _lp_op(label, g, t, ws, expected=None) -> Op:
    def check(answer):
        bound, optimum, primal, dual = answer
        checks.check_lp_certificate([w.weights for w in ws], t, bound, optimum, primal, dual)
        if expected is not None:
            checks.require(bound == expected, f"{label}: bound {bound}, closed form {expected}")

    return Op(label, lambda: weights.lp_bound_details(g, t, ws), check)


def _weight_family(rng, g, t):
    """LP_FAMILY_SIZE random weight functions, extended until every
    non-target vertex has positive weight in one (else the LP is unbounded)."""
    ws = [weights.random_weight_function(g, t, rng) for _ in range(LP_FAMILY_SIZE)]
    while any(v != t and all(w.weights[v] == 0 for w in ws) for v in range(g.vertex_count)):
        ws.append(weights.random_weight_function(g, t, rng))
    return ws


def certify(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [_two_pp_op(*instance) for instance in TWO_PP]
    ops.append(_tau_op(*TAU))
    specs = [family for family, _, _ in TWO_PP] + [TAU[0]]
    for family, targets, expected in PI_CALLS:
        g = graphs.make_family(family)
        specs.append(family)
        ops += [_pi_op(family, g, t, expected) for t in targets]
    for m in range(4, 11):
        g = graphs.make_family(f"cycle:{m}:2")
        specs.append(f"cycle:{m}:2")
        ops.append(_lp_op(f"lp cycle pair C{m}", g, 0, list(weights.cycle_weight_functions(m, 0)), checks.pi_cycle(m)))
    for family in LP_FAMILIES:
        g = graphs.make_family(family)
        specs.append(family)
        t = rng.randrange(g.vertex_count)
        ops.append(_lp_op(f"lp random family {family} t={t}", g, t, _weight_family(rng, g, t)))
    for n in ZERO_SUM_N:
        specs.append(f"divisor_lattice:{n}")
        small = [d for d in range(1, SMALL_DIVISOR + 1) if n % d == 0]
        for _ in range(ZERO_SUM_PER_N):
            seq = [rng.choice(small) for _ in range(n)]
            ops.append(_zero_sum_op(n, seq))
            seq = [rng.choice(small) for _ in range(n)]
            ops.append(_erdos_lemke_op(n, n, seq))
    ops.append(_erdos_lemke_op(60, 60, ROADMAP_ERDOS_LEMKE))
    rng.shuffle(ops)
    return Workload(ops, specs, uses_cli=True)


def _pi_op(family: str, g, t: int, expected: int) -> Op:
    argv = ["--json", "--jobs", "1", "pi", "--family", family, "--target", str(t)]

    def check(answer):
        out = _cli_json(answer)
        checks.check_pi(
            out["result"], out.get("witness"), expected, g.vertex_count,
            lambda w: flows.solve_via_flow(g, tuple(w), t, 1) is None,
        )

    return Op(f"pi {family} t={t}", lambda: _cli(argv), check)


def _tau_op(family, t, n, k, p, m_max) -> Op:
    g = graphs.make_family(family)

    def check(answer):
        checks.require(answer is True, f"tau on {family} was not certified")

    return Op(f"tau {family}", lambda: solver.verify_tau(g, t, n, k, p, m_max), check)


def _zero_sum_op(n, seq) -> Op:
    return Op(
        f"divisor_zero_sum n={n}",
        lambda: zerosum.divisor_zero_sum(n, seq),
        lambda subset: checks.check_divisor_zero_sum(n, seq, subset),
    )


def _erdos_lemke_op(n, d, seq) -> Op:
    return Op(
        f"erdos_lemke n={n} d={d}",
        lambda: zerosum.erdos_lemke(n, d, seq),
        lambda subset: checks.check_erdos_lemke(n, d, seq, subset),
    )


WORKLOADS = {"decide-mix": decide_mix, "certify": certify}
