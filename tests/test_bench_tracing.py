"""The benchmark's per-layer tracer must find every binding it wraps.

bench/tracing.py replaces named module attributes (for instance the bound
solvers as bound in sumrank.cli) with timing wrappers; a refactor that drops
or renames one of them breaks the traced benchmark.  Installing the tracer
looks every binding up, so it raises if one is missing.
"""

import importlib.util
import os

import sumrank.cli

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding():
    before = dict(vars(sumrank.cli))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert sumrank.cli.sp_max_k is not before["sp_max_k"]
    finally:
        tracer.uninstall()
    assert all(vars(sumrank.cli)[name] is value for name, value in before.items())
