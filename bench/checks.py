"""Output checks of the benchmark: recorded digests plus invariants for any seed.

Every output whose argument vector is in ``golden.json`` must match the
recorded digest byte for byte.  Every output, recorded or not, must also pass
the invariants of its subcommand; the SP/GV re-substitution calls the library
and relies on the request's volume table still being cached.

The one known failure is CPython's int->str limit: a `volume` request whose
balls exceed 4,300 decimal digits raises ValueError in the CLI's renderer.
Such requests count as failed but not as wrong output; golden.json holds the
digest of what they print with the limit lifted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
INT_STR_LIMIT = "Exceeds the limit"  # start of CPython's int->str ValueError message


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def is_known_failure(error: str) -> bool:
    return error.startswith("ValueError") and INT_STR_LIMIT in error


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _flag(words: list[str], name: str):
    return int(words[words.index(name) + 1]) if name in words else None


def _params(words: list[str]):
    from sumrank.volumes import CodeParams

    q, m, eta, ell, n = (_flag(words, f) for f in ("--q", "--m", "--eta", "--ell", "--n"))
    if ell is None:
        ell = n // eta
    if eta is None:
        eta = n // ell
    return CodeParams(q=q, m=m, eta=eta, ell=ell)


def _resubstitutes(params, d: int, k_sp: int, k_gv: int) -> bool:
    """pred(k) holds and pred(k+1) does not, for the exact SP and GV predicates."""
    from sumrank.bounds import gv_holds, sp_holds

    n = params.n
    for holds, k in ((sp_holds, k_sp), (gv_holds, k_gv)):
        if k >= 1 and not holds(params, k, d):
            return False
        if k < n and holds(params, k + 1, d):
            return False
    return True


def _check_curve(words, text) -> str | None:
    params = _params(words)
    header, rows = _rows(text)
    if len(rows) != _flag(words, "--grid"):
        return "wrong row count"
    col = {h: i for i, h in enumerate(header)}
    n = params.n
    for row in rows:
        rates = [float(row[col[h]]) for h in ("R_singleton", "R_sp_exact", "R_gv_exact")]
        if not all(0.0 <= r <= 1.0 for r in rates):
            return f"rate outside [0, 1] at d={row[col['d']]}"
        k_sp, k_gv = (round(float(row[col[h]]) * n) for h in ("R_sp_exact", "R_gv_exact"))
        if not _resubstitutes(params, int(row[col["d"]]), k_sp, k_gv):
            return f"SP/GV re-substitution fails at d={row[col['d']]}"
    return None


def _check_bounds(words, text) -> str | None:
    header, (row,) = _rows(text)
    vals = dict(zip(header, row))
    ok = _resubstitutes(_params(words), int(vals["d"]), int(vals["k_sp_exact"]), int(vals["k_gv_exact"]))
    return None if ok else "SP/GV re-substitution fails"


def _check_volume(words, text) -> str | None:
    _, rows = _rows(text)
    if len(rows) != _flag(words, "--radius") + 1:
        return "wrong row count"
    ball = 0
    for t, (rt, sphere, rball) in enumerate(rows):
        ball += int(sphere)
        if int(rt) != t or int(rball) != ball or (t == 0 and int(sphere) != 1):
            return f"ball is not the running sum of spheres at t={t}"
    return None


def _check_genericity(words, text) -> str | None:
    header, (row,) = _rows(text)
    vals = dict(zip(header, row))
    probs = [float(vals[h]) for h in header if h.startswith("p_") and vals[h] != ""]
    if not all(0.0 <= p <= 1.0 for p in probs):
        return "probability outside [0, 1]"
    if vals["p_BR_upper"] != "" and float(vals["p_BR_lower"]) > float(vals["p_BR_upper"]):
        return "BR lower bound exceeds BR upper bound"
    return None


def _check_mmin(words, text) -> str | None:
    _, rows = _rows(text)
    n = _flag(words, "--n")
    if [int(r[0]) for r in rows] != [d for d in range(1, n + 1) if n % d == 0]:
        return "rows are not the divisors of n"
    if any(int(v) < 1 and int(v) != -1 for r in rows for v in r[1:] if v != ""):
        return "mmin is neither -1 nor >= 1"
    return None


def _check_montecarlo(words, text) -> str | None:
    _, (row,) = _rows(text)
    trials, successes, seed = int(row[0]), int(row[1]), int(row[3])
    if trials != _flag(words, "--trials") or seed != _flag(words, "--seed"):
        return "trials or seed differ from the request"
    if not 0 <= successes <= trials or float(row[2]) != successes / trials:
        return "estimate is not successes / trials"
    return None


_INVARIANTS = {
    "curve-sp-gv": _check_curve,
    "bounds": _check_bounds,
    "volume": _check_volume,
    "genericity": _check_genericity,
    "mmin": _check_mmin,
    "montecarlo": _check_montecarlo,
}


def check_output(argv: str, text: str, golden: dict[str, str]) -> str | None:
    """None if the output of `argv` is right, else why it is wrong."""
    want = golden.get(argv)
    if want is not None and digest(text) != want:
        return "output differs from the recorded digest"
    words = argv.split()
    return _INVARIANTS[words[0]](words, text)
