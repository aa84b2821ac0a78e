"""The package surface: one list of public names, numpy loaded only for
Monte-Carlo, the `python -m sumrank.cli` entry point and the README's Python
quick start."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _python(*args, stdout=subprocess.PIPE):
    """Run the interpreter with the package's source directory on its path."""
    src = str(Path(sumrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_numpy_loads_only_for_montecarlo():
    proc = _python("-c", NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_exits_with_run_status():
    from sumrank.cli import run

    argv = ["bounds", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2", "--d", "3"]
    proc = _python("-m", "sumrank.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert proc.stdout == out.getvalue()
    proc = _python("-m", "sumrank.cli", *argv[:-1], "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["sumrank: error: d=0 outside [1, 4]"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_error_line():
    argv = ["bounds", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2", "--d", "3"]
    with open("/dev/full", "w") as full:
        proc = _python("-m", "sumrank.cli", *argv, stdout=full)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: cannot write stdout: [Errno 28] No space left on device"]


def test_readme_python_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    proc = _python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
