"""Record golden.json: the output digest of every request of seed 0.

    python3 bench/record_golden.py

Run from the root of a checkout whose outputs are the reference.  A request
that hits CPython's int->str limit is recorded with the digest of what it
prints once the limit is lifted.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import clear_caches, import_sumrank, run_one


def main() -> int:
    cli = import_sumrank()
    golden: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        clear_caches()
        for _, argv in workloads.requests(name, 0):
            _, text, error = run_one(cli, argv)
            if error is not None and checks.is_known_failure(error):
                limit = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(0)
                try:
                    _, text, error = run_one(cli, argv)
                finally:
                    sys.set_int_max_str_digits(limit)
            if error is not None:
                raise RuntimeError(f"{argv}: {error}")
            golden[argv] = checks.digest(text)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} digests written to {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
