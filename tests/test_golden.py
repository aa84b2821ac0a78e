"""Byte-exact golden corpus: the stdout of CLI runs and of demos/bound_curves.py.

Every case must print exactly the bytes stored in tests/golden/<name>.out.
After a change that alters output on purpose, re-record the corpus with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
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
DEMO = os.path.join(HERE, os.pardir, "demos", "bound_curves.py")

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
    "curve_grid1": f"curve-sp-gv {P} --grid 1",
    "montecarlo_mindist": f"montecarlo {P} --k 1 --trials 20 --seed 3 --predicate mindist --d 3",
}


def _cli_output(argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv.split()) == 0
    return buf.getvalue()


def _demo_output() -> str:
    buf = io.StringIO()
    argv, sys.argv = sys.argv, [DEMO]
    try:
        with contextlib.redirect_stdout(buf):
            runpy.run_path(DEMO, run_name="__main__")
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
    assert _demo_output() == _expected("demo_bound_curves")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    outputs = {name: _cli_output(argv) for name, argv in CASES.items()}
    outputs["demo_bound_curves"] = _demo_output()
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"recorded {name}.out ({len(text)} bytes)")
