"""Command-line front end.

One subcommand per capability; graphs come from ``--family`` descriptors
or ``--graph`` files, configurations from ``--config`` files (text or
JSON array) or inline ``--place`` pairs.  ``--json`` switches output to a
single JSON object with ``result`` plus optional ``witness``/``steps``.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import cache

# The dispatcher needs only these; each handler imports the module it calls
# and calls through it, so a name replaced in that module is what runs.
from . import configs
from .errors import PebblingError
from .graphs import Graph, graph_from_text, make_family


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="family descriptor, e.g. cycle:7:2")
    src.add_argument("--graph", help="path to a graph file")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a configuration file")
    src.add_argument("--place", help="inline pairs, e.g. 0:4,2:1")


def _load_graph(args) -> Graph:
    if args.graph is None:  # an empty --family is still the chosen source
        return make_family(args.family)
    with open(args.graph) as fh:
        return graph_from_text(fh.read())


def _load_config(args, g: Graph) -> configs.Config:
    if args.config is None:
        pairs = []
        for chunk in args.place.split(","):
            try:
                v, x = map(int, chunk.split(":"))
            except ValueError as exc:
                raise PebblingError(f"--place pair {chunk!r} is not vertex:count") from exc
            pairs.append((v, x))
        return configs.config_from_pairs(g.vertex_count, pairs)
    with open(args.config) as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        return configs.config_from_json(text, g.vertex_count)
    return configs.config_from_text(text, g.vertex_count)


def _load_steps(path: str):
    with open(path) as fh:
        return [s for _, s in configs.text_records(fh.read(), "step", {"step": (int, int)})]


@contextlib.contextmanager
def _all_digits():
    """Exact answers print in full, past Python's str(int) digit limit; the
    caller's limit, which reading a number keeps, comes back afterwards."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


@_all_digits()
def _emit(args, result, witness=None, steps=None) -> None:
    if args.json:
        payload = {"result": result}
        if witness is not None:
            payload["witness"] = list(witness)
        if steps is not None:
            payload["steps"] = [list(s) for s in steps]
        print(json.dumps(payload, sort_keys=True))
        return
    print(result)
    if witness is not None:
        print("witness:", " ".join(str(x) for x in witness))
    if steps is not None:
        for u, v in steps:
            print(f"step {u} {v}")


def _parse_seq(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise PebblingError(f"malformed integer sequence: {text!r}") from exc


def _cmd_pi(args, g: Graph) -> None:
    from . import solver
    out = solver.pebbling_number(g, args.target, args.n, jobs=args.jobs)
    _emit(args, out.value, witness=out.witness_unsolvable)


def _cmd_pi_all(args, g: Graph) -> None:
    from . import solver
    _emit(args, solver.pebbling_number_graph(g, jobs=args.jobs))


def _cmd_solve(args, g: Graph, c: configs.Config) -> None:
    from . import solver
    if args.replay:
        final = solver.replay(g, c, _load_steps(args.replay))
        _emit(args, "replayed", witness=final)
        return
    out = solver.is_solvable(g, c, args.target, args.n)
    _emit(
        args,
        "solvable" if out.solvable else "unsolvable",
        witness=out.final,
        steps=out.witness,
    )


@_all_digits()
def _cmd_flow(args, g: Graph, c: configs.Config) -> None:
    from . import flows
    f = flows.solve_via_flow(g, c, args.target, args.n)
    if f is None:
        _emit(args, "infeasible")
        return
    if args.json:
        print(
            json.dumps(
                {
                    "result": "feasible",
                    "flow": [[u, v, count] for (u, v), count in sorted(f.flow.items())],
                    "excess": list(f.excess_vector()),
                },
                sort_keys=True,
            )
        )
        return
    print("feasible")
    sys.stdout.write(flows.flow_to_text(f))
    for v, x in enumerate(f.excess_vector()):
        print(f"excess {v} {x}")


def _cmd_witness(args, g: Graph) -> None:
    from . import solver
    w = solver.find_unsolvable(g, args.target, 1, args.size, jobs=args.jobs)
    _emit(args, "none" if w is None else "found", witness=w)


def _given_pi(args, g: Graph) -> int:
    """--pi when given (0 and negatives included), else pi(G)."""
    from . import solver
    return solver.pebbling_number_graph(g, jobs=args.jobs) if args.pi is None else args.pi


def _cmd_2pp(args, g: Graph) -> None:
    from . import solver
    holds, ce = solver.has_2pp(g, _given_pi(args, g), variant=args.variant)
    if holds:
        _emit(args, "holds")
    else:
        c, t = ce
        _emit(args, f"fails for target {t}", witness=c)


def _cmd_tau(args, g: Graph) -> None:
    from . import solver
    ok = solver.verify_tau(g, args.target, args.n, args.k, args.p, args.m_max)
    _emit(args, "certified" if ok else "refuted")


def _cmd_optimal_pi(args, g: Graph) -> None:
    from . import solver
    size, c = solver.optimal_pebbling_number(g)
    _emit(args, size, witness=c)


def _cmd_tree_pi(args, g: Graph) -> None:
    from . import formulas
    _emit(args, formulas.pi_tree(g, args.root, args.k, args.n))


def _load_wfs(args, g: Graph):
    from . import weights
    ws = []
    for path in args.wf or []:
        with open(path) as fh:
            ws.append(weights.weight_function_from_text(fh.read(), g.vertex_count))
    if args.cycle_pair is not None:
        ws.extend(weights.cycle_weight_functions(g.vertex_count, args.cycle_pair))
    if not ws:
        raise PebblingError("no weight functions given (--wf / --cycle-pair)")
    return ws


def _cmd_wf_validate(args, g: Graph) -> None:
    from . import weights
    ws = _load_wfs(args, g)
    _emit(args, all(weights.validate_weight_function(g, w) for w in ws))


def _cmd_wf_bound(args, g: Graph) -> None:
    from . import weights
    _emit(args, weights.covering_bound(g, _load_wfs(args, g)))


def _cmd_lp_bound(args, g: Graph) -> None:
    from . import weights
    ws = _load_wfs(args, g)
    _emit(args, weights.lp_bound(g, ws[0].target, ws))


def _cmd_count_configs(args) -> None:
    from . import formulas
    _emit(args, formulas.config_count(args.vertices, args.pebbles))


def _cmd_zerosum(args) -> None:
    from . import zerosum
    seq = _parse_seq(args.seq)
    find = zerosum.divisor_zero_sum if args.divisors else zerosum.gcd_zero_sum
    _emit_subset(args, seq, find(args.n, seq))


def _cmd_erdos_lemke(args) -> None:
    from . import zerosum
    seq = _parse_seq(args.seq)
    _emit_subset(args, seq, zerosum.erdos_lemke(args.n, args.d, seq))


@_all_digits()
def _emit_subset(args, seq: list[int], out) -> None:
    chosen = sorted(out)
    total = sum(seq[i - 1] for i in chosen)
    _emit(args, f"indices {','.join(map(str, chosen))} sum {total}")


def _cmd_emit_smv(args, g: Graph) -> None:
    from . import smv
    if args.two_pp:
        model = smv.emit_2pp_model(g, _given_pi(args, g))
    else:
        if args.pebbles is None:
            raise PebblingError("emit-smv needs --pebbles (or --two-pp)")
        model = smv.emit_pebbling_model(g, args.pebbles)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(model)
    else:
        sys.stdout.write(model)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pebble", description=__doc__)
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--jobs", type=int, default=1, help="pi scan processes, at most the CPUs")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, graph=True, config=False):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if graph:
            _add_graph_args(p)
        if config:
            _add_config_args(p)
        return p

    p = cmd("pi", _cmd_pi)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--n", type=int, default=1)

    cmd("pi-all", _cmd_pi_all)

    p = cmd("solve", _cmd_solve, config=True)
    p.add_argument("--target", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--replay", help="steps file to replay instead of solving")

    p = cmd("flow", _cmd_flow, config=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--n", type=int, default=1)

    p = cmd("witness", _cmd_witness)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--size", type=int, required=True)

    p = cmd("2pp", _cmd_2pp)
    p.add_argument("--pi", type=int)
    p.add_argument("--variant", choices=["support", "odd"], default="support")

    p = cmd("tau", _cmd_tau)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)

    cmd("optimal-pi", _cmd_optimal_pi)

    p = cmd("tree-pi", _cmd_tree_pi)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=1)

    for name, fn in [
        ("wf-validate", _cmd_wf_validate),
        ("wf-bound", _cmd_wf_bound),
        ("lp-bound", _cmd_lp_bound),
    ]:
        p = cmd(name, fn)
        p.add_argument("--wf", action="append", help="weight-function file")
        p.add_argument(
            "--cycle-pair",
            type=int,
            metavar="TARGET",
            help="generate the mirror pair for a cycle graph",
        )

    p = cmd("count-configs", _cmd_count_configs, graph=False)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--pebbles", type=int, required=True)

    p = cmd("zerosum", _cmd_zerosum, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", required=True, help="comma-separated integers")
    p.add_argument("--divisors", action="store_true", help="exact divisor-sum variant")

    p = cmd("erdos-lemke", _cmd_erdos_lemke, graph=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seq", required=True, help="comma-separated integers")

    p = cmd("emit-smv", _cmd_emit_smv)
    p.add_argument("--pebbles", type=int, help="total pebbles (plain model)")
    p.add_argument("--two-pp", action="store_true")
    p.add_argument("--pi", type=int)
    p.add_argument("--out", help="output path (default stdout)")

    return parser


_parser = cache(build_parser)  # built by the first main() call, then reused


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: need at least 1, got {args.jobs}")
    try:
        # The graph and, for solve and flow, the configuration, loaded once.
        inputs = []
        if "family" in vars(args):
            inputs.append(_load_graph(args))
        if "place" in vars(args):
            inputs.append(_load_config(args, inputs[0]))
        args.fn(args, *inputs)
    except (PebblingError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
