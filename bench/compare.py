"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced records run.py wrote (.bench_out/*-trace0.json),
any number of seeds per workload.  For each workload and end-to-end metric it
prints both sides' median and quartiles and flags a change whose median is
worse than the base's by more than the metric's bound in BENCHMARK.json.  It
also lists requests whose output digest differs between the two sides.

Records made with different big-integer backends (gmpy2 or Python int) are
not comparable: the volume DP's cost differs severalfold.  The script refuses
them and exits with code 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def _load(directory: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["args"]["workload"], []).append(rec)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(d) for d in argv)
    backends = {rec["environment"]["bigint_backend"] for side in (base, new)
                for recs in side.values() for rec in recs}
    if len(backends) > 1:
        print(f"error: records use different big-integer backends {sorted(backends)}; not comparable",
              file=sys.stderr)
        return 2
    spec = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for name in base[workload][0]["metrics"]:
            sides = [[r["metrics"][name]["value"] for r in recs] for recs in (base[workload], new[workload])]
            (b1, bm, b3), (n1, nm, n3) = (_quartiles(v) for v in sides)
            change = (nm - bm) / bm
            verdict = ""
            if name in spec:
                sign = 1 if spec[name]["better"] == "lower" else -1
                if sign * change > spec[name]["bound"]:
                    verdict, worse = "  WORSE than bound", worse + 1
            print(f"  {name:14s} base {bm:12.4f} [{b1:.4f}, {b3:.4f}]  new {nm:12.4f} [{n1:.4f}, {n3:.4f}]"
                  f"  {100 * change:+7.2f}%{verdict}")
        old_out = {a: d for r in base[workload] for a, d in r["outputs"].items()}
        new_out = {a: d for r in new[workload] for a, d in r["outputs"].items()}
        differ = sorted(a for a in old_out.keys() & new_out.keys() if old_out[a] != new_out[a])
        print(f"  outputs differing: {len(differ)} of {len(old_out.keys() & new_out.keys())} common requests")
        for a in differ[:20]:
            print(f"    sumrank {a}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
