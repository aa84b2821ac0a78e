"""The package surface: one list of public names, and numpy loaded only for
Monte-Carlo."""

import os
import subprocess
import sys
from pathlib import Path

import sumrank
from sumrank import bounds, codes, combinatorics, fields, genericity, volumes

MODULES = (bounds, codes, combinatorics, fields, genericity, volumes)


def test_package_reexports_each_module_list():
    names = [name for mod in MODULES for name in mod.__all__]
    assert sumrank.__all__ == names
    assert len(set(names)) == len(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(sumrank, name) is getattr(mod, name), name


NUMPY_PROBE = """
import sys
import sumrank
from sumrank.cli import run

P = ["--q", "2", "--m", "2", "--eta", "2", "--ell", "2"]
for argv in (["volume", *P], ["bounds", *P, "--d", "2"], ["curve-sp-gv", *P],
             ["genericity", *P, "--k", "2", "--with-br-upper"],
             ["mmin", "--q", "2", "--n", "4", "--k", "2"]):
    assert run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert run(["montecarlo", *P, "--k", "2", "--trials", "2"]) == 0
assert "numpy" in sys.modules
"""


def test_numpy_loads_only_for_montecarlo():
    src = str(Path(sumrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
