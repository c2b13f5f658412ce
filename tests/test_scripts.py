"""Smoke runs of the scripts under ``scripts/``, each in a subprocess with
the package on PYTHONPATH, so that an API change that breaks one fails
here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_lemke_2pp_script_finds_the_counterexample():
    out = run_script("lemke_2pp.py")
    assert out.returncode == 0, out.stderr
    assert "2PP fails" in out.stdout
    assert "configuration (0, 0, 0, 1, 1, 1, 1, 8)" in out.stdout


def test_cycle_bounds_script_columns_agree():
    out = run_script("cycle_bounds.py", "--max", "8", "--brute-max", "6")
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["m", "formula", "covering", "lp", "lp", "opt", "brute"]
    assert [int(row.split()[0]) for row in rows] == list(range(3, 9))
    for row in rows:
        m, formula, covering, lp, _lp_opt, brute = row.split()
        assert formula == covering == lp, row
        assert brute == (formula if int(m) <= 6 else "-"), row
