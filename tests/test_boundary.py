"""Bad input fails with PebblingError at the library boundary, naming
what is wrong, instead of a bare ValueError, an IndexError or a wrong
answer."""

import pytest

from pebbling.cli import _load_steps
from pebbling.configs import config_from_json, config_from_text
from pebbling.errors import PebblingError
from pebbling.flows import PebbleFlow, flow_from_text, solve_via_flow
from pebbling.graphs import cycle_graph, graph_from_text, make_family, path_graph
from pebbling.solver import apply_step, is_solvable, replay
from pebbling.weights import cycle_weight_functions, weight_function_from_text, wfl_solve


def _steps_file(tmp_path, text):
    path = tmp_path / "steps.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "call, message",
    [
        # a malformed number in each of the five line readers
        (lambda tmp: graph_from_text("vertices x\n"),
         "malformed number in graph line: 'vertices x'"),
        (lambda tmp: config_from_text("pebbles 0 x\n", 3),
         "malformed number in configuration line: 'pebbles 0 x'"),
        (lambda tmp: flow_from_text(path_graph(3), "flow 0 1 x\n"),
         "malformed number in flow line: 'flow 0 1 x'"),
        (lambda tmp: weight_function_from_text("target 0\nw 1 x\n", 4),
         "malformed number in weight line: 'w 1 x'"),
        (lambda tmp: _load_steps(_steps_file(tmp, "step 0 x\n")),
         "malformed number in step line: 'step 0 x'"),
        # JSON that does not decode, cut short or nested past the parser
        (lambda tmp: config_from_json("[1, 2", 2), "malformed JSON configuration"),
        (lambda tmp: config_from_json("[" * 100_000, 2), "malformed JSON configuration"),
        # a configuration shorter than the vertex count
        (lambda tmp: replay(path_graph(3), (4, 0), [(0, 1)]),
         "configuration has 2 entries for 3 vertices"),
        (lambda tmp: apply_step(path_graph(3), (4,), 0, 1),
         "configuration has 1 entries for 3 vertices"),
        (lambda tmp: wfl_solve(cycle_graph(4), cycle_weight_functions(4, 0)[0], (0, 4)),
         "configuration has 2 entries for 4 vertices"),
        # a family descriptor with the wrong number of arguments
        (lambda tmp: make_family("cycle:3"), "cycle takes 2 arguments, got 'cycle:3'"),
        (lambda tmp: make_family("arrow"), "arrow takes 1 argument, got 'arrow'"),
        (lambda tmp: make_family("petersen:3"),
         "petersen takes 0 arguments, got 'petersen:3'"),
    ],
)
def test_bad_input_raises_pebbling_error(tmp_path, call, message):
    with pytest.raises(PebblingError) as info:
        call(tmp_path)
    assert message in str(info.value)


def test_negative_pebble_count_is_rejected():
    # Firing vertex 4 twice would reach the target, but c is no configuration.
    g = cycle_graph(5)
    c = (-1, 0, 0, 0, 9)
    for call in (
        lambda: is_solvable(g, c, 0, 1),
        lambda: solve_via_flow(g, c, 0, 1),
        lambda: PebbleFlow(g, c, {}),
    ):
        with pytest.raises(PebblingError, match="non-negative integers"):
            call()
