import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from math import comb
from pathlib import Path

import pytest

from pebbling import solver
from pebbling.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pi_cycle(capsys):
    code, out, _ = run(capsys, "pi", "--family", "cycle:7:2", "--target", "0")
    assert code == 0
    assert out.splitlines()[0] == "11"


def test_pi_json(capsys):
    code, out, _ = run(
        capsys, "--json", "pi", "--family", "path:3:2", "--target", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == 4
    assert sum(payload["witness"]) == 3


def test_solve_and_replay_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "solve",
        "--family",
        "path:3:2",
        "--place",
        "0:4",
        "--target",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "solvable"
    steps_file = tmp_path / "steps.txt"
    steps_file.write_text(
        "\n".join(l for l in lines if l.startswith("step ")) + "\n"
    )
    code, out, _ = run(
        capsys,
        "solve",
        "--family",
        "path:3:2",
        "--place",
        "0:4",
        "--replay",
        str(steps_file),
    )
    assert code == 0
    final = [int(x) for x in out.splitlines()[1].split(":")[1].split()]
    assert final[2] >= 1


def test_solve_config_file_json_array(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[4, 0, 0]")
    code, out, _ = run(
        capsys, "solve", "--family", "path:3:2", "--config", str(cfg), "--target", "2"
    )
    assert code == 0 and out.splitlines()[0] == "solvable"


def test_flow_output(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "flow",
        "--family",
        "path:3:2",
        "--place",
        "0:4",
        "--target",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "feasible"
    assert payload["excess"][2] >= 1
    assert all(count > 0 for _, _, count in payload["flow"])


def test_witness_command(capsys):
    outs = [
        run(capsys, "--jobs", jobs, "witness", "--family", "cycle:6:2", "--target", "0", "--size", "7")
        for jobs in ("1", "2")
    ]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0 and out.splitlines()[0] == "found"
    code, out, _ = run(
        capsys, "witness", "--family", "path:2:2", "--target", "0", "--size", "2"
    )
    assert code == 0 and out.splitlines()[0] == "none"


def test_2pp_command(capsys):
    code, out, _ = run(capsys, "2pp", "--family", "cycle:4:2", "--pi", "4")
    assert code == 0 and out.strip() == "holds"


def test_2pp_output_independent_of_jobs(capsys):
    # No --pi: pi is computed with the given worker count, then the 2PP
    # walk finds Lemke's counterexample.
    outs = [
        run(capsys, "--json", "--jobs", jobs, "2pp", "--family", "lemke")
        for jobs in ("1", "2")
    ]
    assert outs[0] == outs[1]
    code, out, _ = outs[0]
    assert code == 0 and json.loads(out) == {
        "result": "fails for target 0",
        "witness": [0, 0, 0, 1, 1, 1, 1, 8],
    }


def test_count_configs(capsys):
    code, out, _ = run(capsys, "count-configs", "--vertices", "3", "--pebbles", "2")
    assert code == 0 and out.strip() == "6"


def test_erdos_lemke_command(capsys):
    code, out, _ = run(
        capsys, "erdos-lemke", "--n", "6", "--d", "3", "--seq", "2,3,6"
    )
    assert code == 0
    assert out.startswith("indices ")


def test_zerosum_command(capsys):
    code, out, _ = run(capsys, "zerosum", "--n", "4", "--seq", "1,2,4,4", "--divisors")
    assert code == 0
    chosen, total = out.split()[1], int(out.split()[3])
    assert total == 4


def test_wf_bound_cycle_pair(capsys):
    code, out, _ = run(
        capsys, "wf-bound", "--family", "cycle:6:2", "--cycle-pair", "0"
    )
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(
        capsys, "lp-bound", "--family", "cycle:6:2", "--cycle-pair", "0"
    )
    assert code == 0 and out.strip() == "8"


def test_tree_pi_command(capsys):
    code, out, _ = run(capsys, "tree-pi", "--family", "path:4:2", "--root", "0")
    assert code == 0 and out.strip() == "8"


def test_emit_smv_to_file(capsys, tmp_path):
    out_path = tmp_path / "model.smv"
    code, out, _ = run(
        capsys,
        "emit-smv",
        "--family",
        "path:3:2",
        "--pebbles",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("MODULE main\n") and "SPEC EF c[3] > 0" in text


def test_emit_smv_2pp(capsys):
    code, out, _ = run(
        capsys, "emit-smv", "--family", "cycle:4:2", "--two-pp", "--pi", "4"
    )
    assert code == 0 and "2*p + 1 -" in out


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "pi", "--family", "blorp:3", "--target", "0")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "solve", "--family", "path:3:2", "--config", "/nope")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(
        capsys, "emit-smv", "--family", "path:3:2"
    )  # missing --pebbles
    assert code == 1 and err.startswith("error:")


def test_target_outside_graph_exits_1(capsys):
    for argv in (
        ["pi", "--target", "9"],
        ["witness", "--target", "3", "--size", "2"],
        ["tau", "--target", "9", "--n", "1", "--k", "2", "--p", "3", "--m-max", "1"],
    ):
        code, out, err = run(capsys, *argv, "--family", "path:3:2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_negative_witness_size_exits_1(capsys):
    code, out, err = run(
        capsys, "witness", "--family", "path:3:2", "--target", "0", "--size", "-2"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["pi", "--target", "0"])  # no graph source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the LP prune is gone
        main(["flow", "--family", "path:3:2", "--place", "0:4", "--target", "2", "--lp"])
    assert exc.value.code == 2
    for jobs in ("0", "-3"):  # a strided scan needs a worker
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "pi", "--family", "cycle:5:2", "--target", "0"])
        assert exc.value.code == 2


P3 = ["--family", "path:3:2"]
TAU = ["--n", "1", "--k", "2", "--p", "3", "--m-max", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        # --family
        ["pi", "--family", "", "--target", "0"],
        ["pi", "--family", "cycle:x:2", "--target", "0"],
        ["pi", "--family", "cycle:3", "--target", "0"],
        ["pi", "--family", "cycle:1:2", "--target", "0"],
        ["pi", "--family", "grid:3", "--target", "0"],
        ["pi", "--family", "hypercube", "--target", "0"],
        ["pi", "--family", "hypercube:1", "--target", "0"],
        ["pi", "--family", "divisor_lattice:0", "--target", "0"],
        ["pi", "--family", "path:3:2xpath:0:2", "--target", "0"],
        ["pi", "--family", "blorp:3", "--target", "0"],
        # --place
        ["solve", *P3, "--place", "", "--target", "2"],
        ["solve", *P3, "--place", ",", "--target", "2"],
        ["solve", *P3, "--place", "0", "--target", "2"],
        ["solve", *P3, "--place", "0:x", "--target", "2"],
        ["solve", *P3, "--place", "0:1:2", "--target", "2"],
        ["solve", *P3, "--place", "5:1", "--target", "2"],
        ["flow", *P3, "--place", "0:-1", "--target", "2"],
        # --target
        ["pi", *P3, "--target", "x"],
        ["pi", *P3, "--target", "-1"],
        ["solve", *P3, "--place", "0:4", "--target", "3"],
        ["flow", *P3, "--place", "0:4", "--target", "-1"],
        ["tau", *P3, "--target", "-1", *TAU],
        # --root
        ["tree-pi", *P3, "--root", "9"],
        ["tree-pi", *P3, "--root", "-1"],
        ["tree-pi", *P3, "--root", "x"],
        # --n
        ["pi", *P3, "--target", "0", "--n", "-1"],
        ["pi", *P3, "--target", "0", "--n", "0"],
        ["solve", *P3, "--place", "0:4", "--target", "2", "--n", "-1"],
        ["flow", *P3, "--place", "0:4", "--target", "2", "--n", "-1"],
        ["tree-pi", *P3, "--root", "0", "--n", "0"],
        ["tau", *P3, "--target", "0", *TAU[:1], "-1", *TAU[2:]],
        ["zerosum", "--n", "0", "--seq", "1,2"],
        ["erdos-lemke", "--n", "0", "--d", "3", "--seq", "2,3"],
        # --pi
        ["2pp", "--family", "cycle:4:2", "--pi", "0"],
        ["2pp", "--family", "cycle:4:2", "--pi", "-3"],
        ["2pp", "--family", "cycle:4:2", "--pi", "x"],
        ["emit-smv", "--family", "cycle:4:2", "--two-pp", "--pi", "0"],
        # --size
        ["witness", *P3, "--target", "0", "--size", "-2"],
        ["witness", *P3, "--target", "0", "--size", "x"],
        # --seq
        ["zerosum", "--n", "4", "--seq", "1,x"],
        ["zerosum", "--n", "4", "--seq", ""],
        ["zerosum", "--n", "4", "--seq", ",,,"],
        ["zerosum", "--n", "4", "--seq", "1,2", "--divisors"],
        ["erdos-lemke", "--n", "6", "--d", "3", "--seq", "2,y"],
        ["erdos-lemke", "--n", "6", "--d", "3", "--seq", ""],
        # --family, read as another graph before descriptors were strict
        ["pi", "--family", "petersen:3", "--target", "0"],
        ["pi", "--family", "lemke:9", "--target", "0"],
        ["pi", "--family", "path:3:2x", "--target", "0"],
        ["pi", "--family", "path:3:2 x x cycle:3:2", "--target", "0"],
        # a target that some vertex cannot reach
        ["2pp", "--family", "arrow:2", "--pi", "2"],
        # an empty --seq field, once read as no entry
        ["zerosum", "--n", "3", "--seq", "1,,1,1"],
        ["zerosum", "--n", "3", "--seq", ",1,1,1,"],
    ],
)
def test_malformed_input_gives_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, text, argv",
    [
        ("--graph", "vertices x\n", ["pi", "--target", "0"]),
        ("--graph", "vertices 3\nedge 0 1\n", ["pi", "--target", "0"]),
        ("--graph", "blorp\n", ["pi", "--target", "0"]),
        ("--graph", "edge 0 1 2\n", ["pi", "--target", "0"]),
        ("--config", "pebbles 0\n", ["solve", *P3, "--target", "2"]),
        ("--config", "[1,", ["solve", *P3, "--target", "2"]),
        ("--config", "[true, 0, 0]", ["solve", *P3, "--target", "2"]),
        ("--wf", "target 0\nw 1 1/0\n", ["wf-bound", "--family", "cycle:4:2"]),
        ("--wf", "w 1 1\n", ["wf-bound", "--family", "cycle:4:2"]),
        ("--replay", "step 0\n", ["solve", *P3, "--place", "0:4"]),
        ("--replay", "step 0 2\n", ["solve", *P3, "--place", "0:4"]),
        # a repeated header line is an error, not a silent override
        ("--graph", "vertices 5\nvertices 2\nedge 0 1 2\nedge 1 0 2\n", ["pi", "--target", "0"]),
        ("--wf", "target 1\ntarget 0\nw 1 2\nw 2 1\nw 3 2\n", ["wf-bound", "--family", "cycle:4:2"]),
        ("--wf", "target 0\nw 1 1\nw 1 2\nw 2 1\nw 3 2\n", ["wf-bound", "--family", "cycle:4:2"]),
        # a file that is not UTF-8
        ("--graph", b"vertices 3\n\xff\n", ["pi", "--target", "0"]),
        ("--config", b"pebbles 0 \xff\n", ["solve", *P3, "--target", "2"]),
    ],
)
def test_malformed_file_gives_one_error_line(capsys, tmp_path, option, text, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        code = main([*argv, option, str(path)])
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, raising",
    [
        # a bug's ValueError inside a command is not an input error
        (["pi", "--family", "cycle:4:2", "--target", "0"], True),
        # a path holding NUL, which only a Python caller can pass
        (["pi", "--graph", "in\0put.txt", "--target", "0"], False),
    ],
)
def test_value_error_outside_the_loaders_propagates(monkeypatch, argv, raising):
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    if raising:
        monkeypatch.setattr(solver, "pebbling_number", broken)
    with pytest.raises(ValueError):
        main(argv)


@pytest.mark.parametrize("place", ["", ",", "0", "0:x", "0:1:2"])
def test_malformed_place_pair_is_named(capsys, place):
    code, _, err = run(capsys, "solve", *P3, "--place", place, "--target", "2")
    assert code == 1
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert "--place" in line and "vertex:count" in line


def test_tree_pi_on_a_long_path(capsys):
    # 1199 levels deep: the partition is built without recursion.
    code, out, _ = run(capsys, "tree-pi", "--family", "path:1200:2", "--root", "0")
    assert code == 0 and int(out) == 2**1199


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, exact",
    [
        (["count-configs", "--vertices", "10000", "--pebbles", "10000"], comb(19999, 9999)),
        (["tree-pi", "--family", "path:1000:2", "--root", "0", "--k", "100000"], 100000**999),
    ],
    ids=["count-configs", "tree-pi"],
)
def test_answers_past_the_digit_limit_print_in_full(capsys, mode, argv, exact):
    # Both answers have more than 4300 digits.  Decimal reads them without
    # Python's str(int) limit, which main leaves as it found it.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *mode, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    result = json.loads(out, parse_int=Decimal)["result"] if mode else Decimal(out)
    assert result == exact and len(result.as_tuple().digits) > 4300


BIG = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", *P3, "--place", f"0:{BIG}", "--target", "2"], "not vertex:count"),
        (["zerosum", "--n", "3", "--seq", f"1,{BIG},1"], "malformed integer sequence"),
        (["erdos-lemke", "--n", "6", "--d", "3", "--seq", f"{BIG},3"], "malformed integer"),
    ],
    ids=["place", "zerosum", "erdos-lemke"],
)
def test_inputs_past_the_digit_limit_stay_refused(capsys, argv, message):
    # Only printing lifts the limit, so reading a number keeps the caller's.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error:") and message in line


# Command shapes no other test runs, with their whole stdout and exit code.
GOLDEN = [
    (["pi-all", "--family", "cycle:5:2"], 0, "5\n"),
    (
        ["flow", *P3, "--place", "0:4", "--target", "2"],
        0,
        "feasible\npebbles 0 4\nflow 0 1 2\nflow 1 2 1\nexcess 0 0\nexcess 1 0\nexcess 2 1\n",
    ),
    (["flow", *P3, "--place", "0:3", "--target", "2"], 0, "infeasible\n"),
    (
        ["tau", "--family", "hypercube:3:4", "--target", "3",
         "--n", "2", "--k", "3", "--p", "24", "--m-max", "2"],
        0,
        "certified\n",
    ),
    (["optimal-pi", "--family", "path:4:2"], 0, "3\nwitness: 0 1 2 0\n"),
    (["wf-validate", "--family", "cycle:6:2", "--cycle-pair", "0"], 0, "True\n"),
    (["wf-bound", "--family", "cycle:6:2"], 1, ""),  # no weight functions
    (
        ["--json", "solve", *P3, "--place", "0:4", "--target", "2"],
        0,
        '{"result": "solvable", "steps": [[0, 1], [0, 1], [1, 2]], "witness": [0, 0, 1]}\n',
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, stdout):
    got_code, got_out, err = run(capsys, *argv)
    assert (got_code, got_out) == (code, stdout)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1


def test_golden_output_agrees_with_the_library():
    from oracles import tau_oracle
    from pebbling.flows import solve_via_flow
    from pebbling.formulas import pi_cycle
    from pebbling.graphs import make_family, path_graph

    assert pi_cycle(5) == 5
    assert tau_oracle(make_family("hypercube:3:4"), 3, 2, 3, 24, 2)
    witness = (0, 1, 2, 0)
    assert all(solve_via_flow(path_graph(4), witness, t, 1) for t in range(4))


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """Each `pebble` line of the README's command block, with its comment."""
    block = README.split("## Command line", 1)[1].split("```")[1]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("pebble ")]
    return [(command.strip(), comment.strip()) for command, _, comment in lines]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("line, comment", README_COMMANDS, ids=[c[0] for c in README_COMMANDS])
def test_readme_commands_run(capsys, line, comment):
    # A bare number in the comment is the first line the command prints.
    try:
        code = main(shlex.split(line)[1:])
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 0, err
    if comment.isdigit():
        assert out.splitlines()[0] == comment


def test_readme_library_block_runs():
    # The block's comments: pi(C7) = 11, and 11 pebbles on vertex 3 reach
    # vertex 0 in 8 steps that end with a pebble there.
    block = README.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    assert names["out"].value == 11
    assert len(names["steps"]) == 8 and names["final"][0] == 1
    assert names["lp_bound"](names["g"], 0, names["ws"]) == 11


# Subcommands, a usage error from main itself (--jobs 0), parse errors
# and a domain error, some of them more than once.
REPEATED = [
    ["pi", "--family", "cycle:5:2", "--target", "0"],
    ["--jobs", "0", "pi", "--family", "cycle:5:2", "--target", "0"],
    ["--json", "zerosum", "--n", "4", "--seq", "1,2,1,2", "--divisors"],
    ["pi", "--target", "0"],
    ["erdos-lemke", "--n", "6", "--d", "3", "--seq", "1,2,3"],
    ["not-a-command"],
    ["wf-validate", "--family", "cycle:6:2", "--cycle-pair", "0"],
    ["pi", "--family", "blorp:3", "--target", "0"],
    ["--json", "pi", "--family", "path:3:2", "--target", "2"],
    ["zerosum", "--n", "4", "--seq", "1,,1,1"],
    ["--jobs", "0", "pi", "--family", "cycle:5:2", "--target", "0"],
    ["pi", "--family", "cycle:5:2", "--target", "0"],
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_reuses_one_parser_with_unchanged_output(capsys, monkeypatch):
    # A parser built afresh for every call gives the same codes, stdout
    # and stderr as the one main builds once and reuses.
    from pebbling import cli

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [_outcome(capsys, argv) for argv in REPEATED]
    reused = [_outcome(capsys, argv) for argv in REPEATED * 2]
    assert reused == fresh * 2
    assert [code for code, _, _ in fresh[:2]] == [0, "exit 2"]
    assert cli._parser() is cli._parser()


def test_import_builds_no_parser():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import pebbling.cli as c; print(c._parser.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0\n"
