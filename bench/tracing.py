"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``pebbling``
module with wrappers that record, per layer, the number of calls, the
self time (time inside the layer minus time inside nested traced layers)
and one count of work or waste.  Every module attribute that holds the
original function is replaced, so calls between modules (``solver`` calling
``enumerate_configs``, ``zerosum`` calling ``realize``) are seen too.

Spans are aggregated per layer rather than kept per call: the scan engine
calls ``solvable_quick`` millions of times per pebbling number.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, function names, layer, count name, count function).  The count
# function receives (result, args, kwargs) and returns the amount to add.
LAYERS = (
    ("configs", ("enumerate_configs", "enumerate_configs_with_support"),
     "configs.enumerate", "items", None),
    ("solver", ("solvable_quick",), "solver.quick", "resolved_frac",
     lambda result, args, kwargs: result is not None),
    ("solver", ("is_solvable",), "solver.dfs", "unsolvable",
     lambda result, args, kwargs: not result.solvable),
    ("solver", ("find_unsolvable",), "solver.scan", None, None),
    ("solver", ("pebbling_number", "pebbling_number_graph"), "solver.pi", None, None),
    ("solver", ("has_2pp",), "solver.2pp", None, None),
    ("solver", ("verify_tau",), "solver.tau", None, None),
    ("flows", ("solve_via_flow",), "flows.bnb", "infeasible",
     lambda result, args, kwargs: result is None),
    ("flows", ("realize",), "flows.realize", "steps",
     lambda result, args, kwargs: len(result[0])),
    ("weights", ("simplex_max",), "weights.simplex", "rows",
     lambda result, args, kwargs: len(args[0].constraints)),
    ("zerosum", ("pebbling_construction",), "zerosum.replay", "steps",
     lambda result, args, kwargs: len(args[4] if len(args) > 4 else kwargs["steps"])),
    ("graphs", (
        "make_family", "graph_from_text", "complete_graph", "cycle_graph",
        "path_graph", "star_graph", "complete_bipartite_graph", "arrow_graph",
        "instar_graph", "petersen_graph", "lemke_graph", "divisor_lattice",
        "cartesian_product", "hypercube_graph", "grid_graph",
    ), "graphs.build", None, None),
    ("cli", ("main",), "cli", None, None),
)


class Layer:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    def __init__(self):
        self.layers = {name: Layer() for _, _, name, _, _ in LAYERS}
        # Child time accumulated by each open span, innermost last.
        self._open: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        homes = {m: importlib.import_module(f"pebbling.{m}") for m, *_ in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pebbling" or name.startswith("pebbling."))]
        for module_name, names, layer_name, _, count in LAYERS:
            home = homes[module_name]
            layer = self.layers[layer_name]
            for name in names:
                original = getattr(home, name)
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(original, layer)
                else:
                    wrapper = self._wrap(original, layer, count)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def _wrap(self, fn, layer: Layer, count):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer.calls += 1
                layer.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                layer.count += count(result, args, kwargs)
            return result

        return traced

    def _wrap_generator(self, fn, layer: Layer):
        open_spans = self._open
        clock = time.perf_counter

        def iterate(gen):
            while True:
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    item = None
                    done = True
                else:
                    done = False
                elapsed = clock() - start
                layer.self_s += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
                if done:
                    return
                layer.count += 1
                yield item

        def traced(*args, **kwargs):
            layer.calls += 1
            return iterate(fn(*args, **kwargs))

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        out = {}
        for _, _, name, count_name, _ in LAYERS:
            layer = self.layers[name]
            out[f"{name}.calls"] = (layer.calls, "count")
            if count_name == "resolved_frac":
                out[f"{name}.resolved_frac"] = (layer.count / layer.calls if layer.calls else 0.0, "ratio")
            elif count_name is not None:
                out[f"{name}.{count_name}"] = (layer.count, "count")
            out[f"{name}.self_s"] = (layer.self_s, "s")
        return out
