"""Byte-exact golden corpus: the stdout of CLI runs and of the four demos.

Every case must print exactly the bytes stored in tests/golden/<name>.out.
Running

    PYTHONPATH=src python tests/test_golden.py

records only the cases that have no file yet; existing files are never
rewritten, so a run after a code change cannot bless a regression. To
re-record a case whose output changes on purpose, delete its file, run the
recorder, and review the diff of tests/golden/ before committing it.
"""

import contextlib
import io
import os
import runpy
import sys

import pytest

from sumrank.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
DEMOS = os.path.join(HERE, os.pardir, "demos")
# golden name -> demo script, each run with no arguments
DEMO_CASES = {
    "demo_bound_curves": "bound_curves.py",
    "demo_volumes_and_counting": "volumes_and_counting.py",
    "demo_msrd_genericity": "msrd_genericity.py",
    "demo_random_code_experiments": "random_code_experiments.py",
}

P = "--q 2 --m 2 --eta 2 --ell 2"
CASES = {
    # the README commands, with the curve shrunk from n=2048 to n=256
    "volume": f"volume {P}",
    "bounds": f"bounds {P} --d 3",
    "curve_bounded": "curve-sp-gv --q 2 --m 16 --eta 8 --n 256 --grid 64",
    "curve_growing_xi": "curve-sp-gv --q 16 --m 8 --eta 8 --ell 8 --asym-mode xi",
    "genericity": "genericity --q 2 --m 6 --eta 2 --ell 2 --k 2 --with-br-upper",
    "mmin": "mmin --q 4 --n 512 --k 128 --bounds A,U,BR",
    "montecarlo": "montecarlo --q 2 --m 5 --eta 2 --ell 2 --k 2 --trials 200 --seed 0",
    # JSON rendering, with empty cells (d <= 2, delta*n < 2)
    "curve_json": f"curve-sp-gv {P} --grid 8 --format json",
    # edge cases
    "bounds_d1": "bounds --q 3 --m 2 --eta 3 --ell 2 --d 1",
    "bounds_d_top": "bounds --q 3 --m 2 --eta 3 --ell 2 --d 4",
    "volume_radius0": f"volume {P} --radius 0",
    "genericity_no_br": f"genericity {P} --k 4",
    "mmin_bounds_A": "mmin --q 2 --n 8 --k 2 --bounds A",
    # 30 divisors ell of n, each an m-search over a BR bound with large binomials
    "mmin_bounds_BR_n20000": "mmin --q 2 --n 20000 --k 5 --bounds BR",
    # 64 divisors ell of n = 10^7, found without a linear scan
    "mmin_bounds_A_n1e7": "mmin --q 2 --n 10000000 --k 5 --bounds A",
    # A cells empty, and BR empty because k = n
    "mmin_bounds_U_BR_k_eq_n": "mmin --q 3 --n 12 --k 12 --bounds U,BR",
    # a repeated kind, out of order
    "mmin_bounds_BR_A_BR": "mmin --q 2 --n 24 --k 6 --bounds BR,A,BR",
    "curve_grid1": f"curve-sp-gv {P} --grid 1",
    "montecarlo_mindist": f"montecarlo {P} --k 1 --trials 20 --seed 3 --predicate mindist --d 3",
}


def _cli_output(argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv.split()) == 0
    return buf.getvalue()


def _demo_output(script: str) -> str:
    path = os.path.join(DEMOS, script)
    buf = io.StringIO()
    argv, sys.argv = sys.argv, [path]
    try:
        with contextlib.redirect_stdout(buf):
            runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv
    return buf.getvalue()


def _expected(name: str) -> str:
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    assert _cli_output(CASES[name]) == _expected(name)


def test_bound_curves_demo_matches_golden():
    assert _demo_output(DEMO_CASES["demo_bound_curves"]) == _expected("demo_bound_curves")


@pytest.mark.parametrize("name", sorted(set(DEMO_CASES) - {"demo_bound_curves"}))
def test_demo_matches_golden(name):
    assert _demo_output(DEMO_CASES[name]) == _expected(name)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    todo = {name: (_cli_output, argv) for name, argv in CASES.items()}
    todo.update((name, (_demo_output, script)) for name, script in DEMO_CASES.items())
    for name, (render, arg) in todo.items():
        path = os.path.join(GOLDEN, f"{name}.out")
        if os.path.exists(path):
            continue
        text = render(arg)
        with open(path, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"recorded {name}.out ({len(text)} bytes)")
