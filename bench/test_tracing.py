"""The tracer counts calls and splits time into self time per layer.

    python3 -m pytest -q bench/test_tracing.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
from pebbling import cycle_graph, solver  # noqa: E402


def test_layers_count_calls_and_self_time_adds_up():
    g = cycle_graph(6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        value = solver.pebbling_number(g, 0).value
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert value == 8
    m = {name: value for name, (value, _) in tracer.metrics().items()}
    assert m["solver.pi.calls"] == 1
    assert m["solver.scan.calls"] >= 1
    assert m["configs.enumerate.items"] > 0
    assert m["solver.quick.calls"] > m["solver.dfs.calls"] > 0
    assert 0 < m["solver.quick.resolved_frac"] <= 1
    assert m["flows.bnb.calls"] == 0
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    # Every traced call sits inside pebbling_number, so the self times of
    # all layers add up to its span, which the outer clock encloses.
    assert 0 < total_self <= elapsed
    assert total_self > 0.5 * elapsed


def test_uninstall_restores_the_program():
    original = solver.is_solvable
    tracer = tracing.Tracer()
    tracer.install()
    assert solver.is_solvable is not original
    tracer.uninstall()
    assert solver.is_solvable is original
