"""The benchmark's per-layer tracer must find every binding it wraps.

bench/tracing.py replaces named module attributes (for instance the bound
solvers as bound in sumrank.cli) with timing wrappers; a refactor that drops
or renames one of them breaks the traced benchmark.  Installing the tracer
looks every binding up, so it raises if one is missing.
"""

import importlib.util
import os

import sumrank.cli
import sumrank.volumes

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


def test_traced_requests_count_every_exact_layer(capsys):
    """Every count the benchmark self-test requires to be nonzero is nonzero
    on one tiny montecarlo and one tiny curve request; a refactor that stops
    calling a traced binding shows here as a zero."""
    sumrank.volumes.volume_table.cache_clear()  # the curve must build its table
    tracer = _load_tracing().Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert sumrank.cli.run(["montecarlo", "--q", "2", "--m", "4", "--eta", "2", "--ell", "2",
                                "--k", "2", "--trials", "2", "--seed", "1"]) == 0
        assert sumrank.cli.run(["curve-sp-gv", "--q", "2", "--m", "2", "--eta", "2", "--ell", "2",
                                "--grid", "4"]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    capsys.readouterr()
    required = ["codes.echelon_visited", "volumes.dp_mults",
                *(f"fields.{op}_calls" for op in ("mul", "inv", "add", "scalar_mul"))]
    assert {name: tracer.counts[name] for name in required if not tracer.counts[name]} == {}
    assert any(tracer.names[span[0]] == "fields.matrix_rank" for span in tracer.spans)
