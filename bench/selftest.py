"""Self-test of the benchmark on tiny instances of its three workloads.

    python3 bench/selftest.py

Run from the root of a checkout.  For each workload it makes two traced runs
and checks that
  * every layer the workload uses records spans, and no layer predicted idle
    on it does;
  * every wrapped binding records spans on some workload (a name imported
    into another module is a binding of its own, which must be wrapped too);
  * traced outputs equal untraced outputs and pass the output checks;
  * the exact counts (volumes.dp_mults, codes.echelon_visited and the
    fields.*_calls) repeat exactly across the two runs.
Exits with code 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracing import LAYERS, UNREACHED, Tracer  # noqa: E402

IDLE = {
    "curve": {"codes", "fields", "genericity"},
    "montecarlo": {"volumes", "bounds", "genericity"},
    "queries": {"codes", "fields"},
}
# exact counts, each with the workload on which it must be nonzero
EXACT = {
    "volumes.dp_mults": "curve",
    "codes.echelon_visited": "montecarlo",
    **{f"fields.{op}_calls": "montecarlo" for op in ("mul", "inv", "add", "scalar_mul", "matrix_rank")},
}


def _traced_run(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1", "--scale", "tiny",
           "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    problems = []
    fired = set()
    for workload, idle in IDLE.items():
        first, second = _traced_run(workload), _traced_run(workload)
        active = set(first["active_layers"])
        fired |= set(first["fired_bindings"])
        for layer in LAYERS:
            if layer in idle and layer in active:
                problems.append(f"{workload}: layer {layer} is predicted idle but recorded spans")
            if layer not in idle and layer not in active:
                problems.append(f"{workload}: layer {layer} recorded no spans")
        problems += [f"{workload}: {w}" for w in first["wrong"] + second["wrong"]]
        for name, busy in EXACT.items():
            a, b = first["per_layer"][name][0], second["per_layer"][name][0]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
            if busy == workload and not a:
                problems.append(f"{workload}: {name} counted nothing")
        print(f"{workload}: active layers {sorted(active)}")
    for binding in Tracer().bindings():
        if binding not in fired and binding not in UNREACHED:
            problems.append(f"binding {binding} recorded no span on any workload")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
