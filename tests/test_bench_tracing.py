"""The benchmark's per-layer tracer must find every binding it wraps, and
its output checks must read what the CLI prints.

bench/tracing.py replaces named module attributes (for instance the bound
solvers as bound in sumrank.cli) with timing wrappers; a refactor that drops
or renames one of them breaks the traced benchmark.  Installing the tracer
looks every binding up, so it raises if one is missing.
"""

import importlib.util
import os
import sys

import pytest

import sumrank.cli
import sumrank.fields
import sumrank.volumes

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding():
    before = dict(vars(sumrank.cli))
    tracer = _load_bench("tracing").Tracer()
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
    sumrank.fields.ext_make.cache_clear()  # and the montecarlo its field F_16
    tracer = _load_bench("tracing").Tracer()
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
    # the field builds its log tables on construction, inside ambient_field
    builds = [i for i, span in enumerate(tracer.spans) if tracer.names[span[0]] == "fields.build_log_tables"]
    assert builds and all(tracer._has_ancestor(i, ("fields.ambient_field",)) for i in builds)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit")
def test_run_leaves_the_digit_limit_lifted_for_the_bench_checker(capsys):
    # bench/checks.py reads volume cells with int(), and balls here pass
    # 4,300 digits; restoring the limit in run() needs the checker to lift
    # it itself first, as bench/record_golden.py does
    checks = _load_bench("checks")
    argv = ["volume", "--q", "16", "--m", "32", "--eta", "32", "--ell", "4", "--radius", "100"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert sumrank.cli.run(argv) == 0
        out = capsys.readouterr().out
        assert checks.check_output(" ".join(argv), out, checks.load_golden()) is None
    finally:
        sys.set_int_max_str_digits(limit)
