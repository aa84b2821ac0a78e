"""sumrank benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload curve|montecarlo|queries \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run happens in fresh child
interpreters (OMP_NUM_THREADS=1, no pools) that import sumrank from ./src.
Set-up is timed in SETUP_RUNS extra children plus the measuring one and
reported as their median.  The report lists every metric by name and unit;
the last stdout line is the JSON result.  The full record, with the
environment, every round's time and every request's output digest, goes to
.bench_out/<workload>-seed<N>-trace<T>.json; a traced run also writes its
spans next to it.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
OUT_DIR = ".bench_out"
END_TO_END = ("setup_s", "wall_s", "peak_rss_mib", "trials_per_s", "query_p50_ms", "query_p99_ms")
# counts derived from parameters rather than observed in the program
COMPUTED = ("volumes.dp_mults", "volumes.retained_mib", "codes.echelon_total")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline: float, *extra) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *extra]
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (golden digests cover seed 0)")
    ap.add_argument("--seconds", type=int, default=30, help="how long the run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sumrank", "cli.py")):
        print("error: run from the root of a sumrank checkout (no src/sumrank/cli.py here)", file=sys.stderr)
        return 2
    # the measuring child runs at least MIN_ROUNDS rounds and may overshoot
    # --seconds by one round (a traced and an untraced one in a traced run);
    # the margin covers that and the set-up children
    deadline = time.monotonic() + 3 * args.seconds + 60
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setups = [_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS)]
        extra = ["--spans", stem + "-spans.json.gz"] if args.trace else []
        res = _worker(args, deadline, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"), **res["end_to_end"]}
        metrics = {k: metrics[k] for k in END_TO_END}
    correct = not res["wrong"]
    env = res["environment"]
    print(f"# sumrank benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={res['rounds']}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:16.6f} {unit}{'  [computed]' if key in COMPUTED else ''}")
    print(f"{'fail_frac':34s} {res['failed'] / res['attempted']:16.6f} ratio"
          f"  ({res['failed']} of {res['attempted']} requests)")
    for argv in res["known_failures"]:
        print(f"# known failure (int->str limit in cli._render): sumrank {argv}")
    for line in res["wrong"]:
        print(f"# WRONG: {line}")
    if args.trace:
        print(f"# active layers: {' '.join(res['active_layers'])}")

    record = {"args": vars(args), "environment": env, "setup_samples_s": setups,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **{k: res[k] for k in ("rounds", "round_s", "attempted", "failed", "known_failures", "wrong", "outputs")}}
    if args.trace:
        record["active_layers"] = res["active_layers"]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
