"""One benchmark run in a fresh interpreter; started by run.py, not by hand.

Imports sumrank from ./src and generates the workload's request list from
the seed; that is the set-up, and the benchmark's own modules (checks,
tracing) are imported only after it.  Then it runs the list as in-process
``cli.run`` calls, round after round, until --seconds have passed and at
least MIN_ROUNDS rounds have run.  Each round starts with every library cache
cleared, as a fresh CLI process would, so every round does the same work.
The times reported are medians over the whole run: ``wall_s`` is the median
time of a round, and the latency percentiles are taken over every request of
every round.  On a shared 2-core Xeon VM whose speed flips between a fast
and a slow state for seconds at a time, these medians spread by 0.09-0.15
over six runs of 30 s (interquartile range over median), where each
request's best time over the rounds spread by 0.21-0.30: a best time
depends on whether the request happened to run in a fast moment.  Every
round's outputs are checked, outside the timed region, and must be identical
from round to round.

With --trace 1 untraced and traced rounds alternate, each traced round with a
fresh tracer.  The per-layer metrics come from the first traced round, so
counts do not depend on how many rounds fit.  The tracing overhead is the
median round time traced minus the same untraced.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import sys
import time

import workloads

# a run too short for this many rounds overshoots --seconds
MIN_ROUNDS = 4


def import_sumrank():
    """sumrank.cli from ./src of the current directory, never an installed copy."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("sumrank.cli")
    if not cli.__file__.startswith(src + os.sep):
        raise RuntimeError(f"sumrank was imported from {cli.__file__}, not from {src}")
    return cli


def clear_caches():
    """Empty every lru_cache of the package (volume tables, fields, gamma_q)."""
    modules = [mod for name, mod in sys.modules.items() if name.startswith("sumrank.")]
    for mod in modules:
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_one(cli, argv: str) -> tuple[float, str, str | None]:
    """Run one request; returns (seconds, stdout text, error or None)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv.split())
        if rc != 0:
            error = f"exit code {rc}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # a failing request is counted, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, buf.getvalue(), error


class Round:
    """Timings and checked outcomes of one round of requests."""

    def __init__(self):
        self.latency: list[float] = []
        self.digests: list[str | None] = []  # None where the request failed
        self.errors: list[str | None] = []
        self.out_bytes = 0


def run_round(cli, reqs, golden, tracer=None) -> Round:
    import checks

    clear_caches()
    volume_cache = sys.modules["sumrank.volumes"].volume_table
    rnd = Round()
    for i, (_, argv) in enumerate(reqs):
        if tracer is not None:
            before = volume_cache.cache_info()
            tracer.request, tracer.active = i, True
        seconds, text, error = run_one(cli, argv)
        if tracer is not None:
            tracer.active = False
            tracer.count_cache(before, volume_cache.cache_info())
        if error is None:
            wrong = checks.check_output(argv, text, golden)
            if wrong is not None:
                error = f"wrong output: {wrong}"
        rnd.latency.append(seconds)
        rnd.out_bytes += len(text)  # the CSV and JSON outputs are ASCII
        rnd.digests.append(None if error else checks.digest(text))
        rnd.errors.append(error)
    return rnd


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def round_time(rounds) -> float:
    """The median over the rounds of the time a round takes."""
    import statistics

    return statistics.median(sum(r.latency) for r in rounds)


def end_to_end(name, reqs, rounds) -> dict[str, tuple[float, str]]:
    import resource

    wall = round_time(rounds)
    samples = [t for r in rounds for t in r.latency]
    work = sum(workloads.work_items(name, argv) for _, argv in reqs)
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (work / wall, "1/s"),
        "query_p50_ms": (1e3 * _percentile(samples, 50), "ms"),
        "query_p99_ms": (1e3 * _percentile(samples, 99), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(name, scale, reqs, untraced, traced, tracer) -> dict[str, tuple[float, str]]:
    """Metrics of the first traced round, plus the overhead over all rounds."""
    jobs = [job for job, _, _ in workloads.MONTECARLO_JOBS[scale]]
    job_of_request = {i: (label, workloads.work_items(name, argv))
                      for i, (label, argv) in enumerate(reqs) if name == "montecarlo"}
    layer = tracer.layer_metrics(jobs, job_of_request)
    layer["cli.failed"] = (sum(e is not None for e in traced[0].errors), "count")
    layer["cli.out_bytes"] = (traced[0].out_bytes, "bytes")
    traced_s, untraced_s = round_time(traced), round_time(untraced)
    layer["trace.wall_s"] = (traced_s, "s")
    layer["trace.untraced_wall_s"] = (untraced_s, "s")
    layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layer["trace.spans"] = (len(tracer.spans), "count")
    return layer


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "bigint_backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "int",
        "nproc": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced round's spans here (gzipped JSON)")
    args = ap.parse_args(argv)

    cli = import_sumrank()
    name, scale = args.workload, args.scale
    reqs = workloads.requests(name, args.seed, scale)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks  # after the set-up timestamp: setup_s covers the program alone

    golden = checks.load_golden()
    result = {"setup_s": setup_s, "environment": environment()}
    start = time.perf_counter()
    if args.trace:
        from tracing import Tracer

        untraced, traced, tracer = [], [], None
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(run_round(cli, reqs, golden))
            fresh = Tracer()
            fresh.install()
            try:
                traced.append(run_round(cli, reqs, golden, fresh))
            finally:
                fresh.uninstall()
            tracer = tracer or fresh  # only the first traced round's spans are kept
        result["per_layer"] = per_layer(name, scale, reqs, untraced, traced, tracer)
        result["active_layers"] = tracer.active_layers()
        result["fired_bindings"] = sorted(tracer.fired)
        if args.spans:
            tracer.write_spans(args.spans)
        rounds = untraced + traced
    else:
        rounds = []
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(cli, reqs, golden))
        result["end_to_end"] = end_to_end(name, reqs, rounds)

    wrong = []
    for i, (_, argv) in enumerate(reqs):
        errors = {r.errors[i] for r in rounds}
        wrong += [f"{argv}: {e}" for e in errors if e is not None and not checks.is_known_failure(e)]
        if len({r.digests[i] for r in rounds}) > 1:
            wrong.append(f"{argv}: output differs between rounds")
    # A request counts once, however many rounds repeat it, and fails if it
    # failed in any round: the counts do not depend on how many rounds fit.
    result.update(
        rounds=len(rounds),
        round_s=[sum(r.latency) for r in rounds],
        attempted=len(reqs),
        failed=sum(any(r.errors[i] is not None for r in rounds) for i in range(len(reqs))),
        known_failures=[argv for (_, argv), e in zip(reqs, rounds[0].errors)
                        if e is not None and checks.is_known_failure(e)],
        wrong=wrong,
        outputs=dict(zip((argv for _, argv in reqs), rounds[0].digests)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
