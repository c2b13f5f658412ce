import json

import pytest

from pebbling.cli import main
from pebbling.graphs import cycle_graph


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
    ],
)
def test_malformed_file_gives_one_error_line(capsys, tmp_path, option, text, argv):
    path = tmp_path / "input.txt"
    path.write_text(text)
    try:
        code = main([*argv, option, str(path)])
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


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
