"""What a fresh interpreter loads: ``import pebbling`` and the CLI load a
submodule only when something uses it, and every subcommand still finds
the module it calls.  Each case runs in its own interpreter, because an
in-process test runs after others have loaded every module."""

import argparse
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from pebbling.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


def _loaded_after(code: str, modules: list[str]) -> list[str]:
    probe = f"import sys\n{code}\nprint(*[m for m in {modules!r} if m in sys.modules])"
    out = _fresh("-c", probe)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_building_a_graph_loads_no_decider():
    code = 'import pebbling\npebbling.make_family("petersen")\npebbling.Graph'
    heavy = ["solver", "flows", "weights", "zerosum", "smv", "formulas"]
    assert _loaded_after(code, [f"pebbling.{m}" for m in heavy] + ["fractions"]) == []


def test_importing_the_cli_loads_no_handler_module():
    heavy = ["flows", "weights", "zerosum", "smv", "formulas"]
    assert _loaded_after("import pebbling.cli", [f"pebbling.{m}" for m in heavy]) == []


# One small run of every subcommand.
COMMANDS = {
    "pi": ["pi", "--family", "path:3:2", "--target", "0"],
    "pi-all": ["pi-all", "--family", "path:2:2"],
    "solve": ["solve", "--family", "path:3:2", "--place", "0:4", "--target", "2"],
    "flow": ["flow", "--family", "path:3:2", "--place", "0:4", "--target", "2"],
    "witness": ["witness", "--family", "path:3:2", "--target", "0", "--size", "2"],
    "2pp": ["2pp", "--family", "path:2:2", "--pi", "2"],
    "tau": ["tau", "--family", "path:2:2", "--target", "0", "--n", "1", "--k", "2",
            "--p", "1", "--m-max", "1"],
    "optimal-pi": ["optimal-pi", "--family", "path:2:2"],
    "tree-pi": ["tree-pi", "--family", "path:3:2", "--root", "0"],
    "wf-validate": ["wf-validate", "--family", "cycle:4:2", "--cycle-pair", "0"],
    "wf-bound": ["wf-bound", "--family", "cycle:4:2", "--cycle-pair", "0"],
    "lp-bound": ["lp-bound", "--family", "cycle:4:2", "--cycle-pair", "0"],
    "count-configs": ["count-configs", "--vertices", "3", "--pebbles", "2"],
    "zerosum": ["zerosum", "--n", "2", "--seq", "1,1"],
    "erdos-lemke": ["erdos-lemke", "--n", "2", "--d", "2", "--seq", "1,1"],
    "emit-smv": ["emit-smv", "--family", "path:2:2", "--pebbles", "2"],
}


def test_every_subcommand_has_a_cold_start_case():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(COMMANDS)


@pytest.fixture(scope="module")
def cold_runs():
    """Each subcommand run in its own interpreter, four at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = pool.map(lambda argv: _fresh("-m", "pebbling.cli", *argv), COMMANDS.values())
        return dict(zip(COMMANDS, runs))


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_runs_from_a_cold_start(cold_runs, command):
    out = cold_runs[command]
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout
