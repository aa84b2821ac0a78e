"""Command-line front end: bound evaluation, curve sweeps and Monte-Carlo runs.

Subcommands
-----------
volume       sphere/ball volume table for radii 0..radius
bounds       Singleton / sphere-packing / GV max-k values at one distance
curve-sp-gv  rate-vs-delta CSV sweep (exact, simplified, asymptotic curves)
genericity   MSRD probability bounds at one parameter point
mmin         minimal extension degree per divisor ell of n, per bound kind
montecarlo   empirical MSRD / minimum-distance frequency over seeded trials

All output is deterministic for a fixed argument vector: CSV cells are plain
repr of ints/floats, rows are emitted in a fixed order, and random trials are
derived from --seed only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bounds import (
    gv_asymptotic_rate,
    gv_max_k,
    gv_simplified_max_k,
    singleton_max_k,
    sp_asymptotic_rate,
    sp_max_k,
    sp_simplified_max_k,
)
from .codes import ResourceLimitError, is_msrd, min_distance_bruteforce, monte_carlo
from .genericity import (
    _clamp01,
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)
from .volumes import CodeParams, volume_table

__all__ = ["curve_rows", "main", "run"]


def _params_from(args, parser) -> CodeParams:
    eta, ell, n = args.eta, args.ell, args.n
    given = sum(v is not None for v in (eta, ell, n))
    if given < 2:
        parser.error("provide two of --eta/--ell/--n")
    if eta is None:
        if n % ell:
            parser.error(f"--ell {ell} does not divide --n {n}")
        eta = n // ell
    elif ell is None:
        if n % eta:
            parser.error(f"--eta {eta} does not divide --n {n}")
        ell = n // eta
    elif n is not None and n != eta * ell:
        parser.error(f"--n {n} != --eta*--ell = {eta * ell}")
    return CodeParams(q=args.q, m=args.m, eta=eta, ell=ell)


def _add_param_flags(sub, need_m: bool = True):
    sub.add_argument("--q", type=int, required=True, help="base field size (prime power)")
    if need_m:
        sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--eta", type=int, help="block length")
    sub.add_argument("--ell", type=int, help="number of blocks")
    sub.add_argument("--n", type=int, help="code length (= eta*ell)")


def _add_output_flags(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


# ---------------------------------------------------------------------------
# subcommand row builders; each returns (header, rows)

def _cmd_volume(args, parser):
    params = _params_from(args, parser)
    top = params.ell * params.mu
    radius = args.radius if args.radius is not None else top
    if not 0 <= radius <= top:
        parser.error(f"--radius {radius} outside [0, {top}]")
    table = volume_table(params)
    rows = [[t, table.sphere(t), table.ball(t)] for t in range(radius + 1)]
    return ["t", "sphere", "ball"], rows


def _cmd_bounds(args, parser):
    params = _params_from(args, parser)
    d = args.d
    row = [
        params.q, params.m, params.eta, params.ell, params.n, d,
        singleton_max_k(params, d),
        sp_max_k(params, d),
        sp_simplified_max_k(params, d),
        gv_max_k(params, d),
        gv_simplified_max_k(params, d) if d > 2 else "",
    ]
    header = [
        "q", "m", "eta", "ell", "n", "d",
        "k_singleton", "k_sp_exact", "k_sp_simplified", "k_gv_exact", "k_gv_simplified",
    ]
    return header, [row]


_CURVE_HEADER = [
    "delta", "d",
    "R_singleton",
    "R_sp_exact", "R_sp_simplified", "R_sp_asymptotic",
    "R_gv_exact", "R_gv_simplified", "R_gv_asymptotic",
    "raw_R_sp_asymptotic", "raw_R_gv_asymptotic",
]


def curve_rows(params: CodeParams, grid: int, asym_mode: str) -> list[list]:
    """The rows of the curve-sp-gv table (columns as in its CSV header), one
    per delta = j/grid, j = 1..grid.  asym_mode "xi" takes the growing-block
    limits (xi = m/eta), "blocks" the many-blocks SP limit and the finite-n
    GV form; "" marks a cell outside its bound's domain."""
    n = params.n
    top = params.ell * params.mu
    xi = params.m / params.eta
    rows = []
    for j in range(1, grid + 1):
        delta = j / grid
        d = min(max(_round_half_up(delta * n), 1), top)
        if asym_mode == "xi":
            raw_sp_a = sp_asymptotic_rate(delta, "xi", xi=xi)
            raw_gv_a = gv_asymptotic_rate(delta, "xi", xi=xi)
        else:
            raw_sp_a = sp_asymptotic_rate(delta, "blocks", params=params)
            raw_gv_a = (
                gv_asymptotic_rate(delta, "finite", params=params)
                if delta * n >= 2
                else ""
            )
        rows.append([
            delta, d,
            singleton_max_k(params, d) / n,
            sp_max_k(params, d) / n,
            sp_simplified_max_k(params, d) / n,
            _clamp01(raw_sp_a),
            gv_max_k(params, d) / n,
            gv_simplified_max_k(params, d) / n if d > 2 else "",
            _clamp01(raw_gv_a) if raw_gv_a != "" else "",
            raw_sp_a,
            raw_gv_a,
        ])
    return rows


def _cmd_curve(args, parser):
    params = _params_from(args, parser)
    if args.grid < 1:
        parser.error("--grid must be >= 1")
    return _CURVE_HEADER, curve_rows(params, args.grid, args.asym_mode)


def _cmd_genericity(args, parser):
    params = _params_from(args, parser)
    k = args.k
    a = msrd_prob_lb_A(params.q, params.m, params.eta, params.ell, k)
    u_lemma = msrd_prob_lb_U(params.q, params.m, params.eta, params.ell, k, "lemma")
    u_printed = msrd_prob_lb_U(params.q, params.m, params.eta, params.ell, k, "printed")
    br_cells = ["", "", ""]
    if 1 <= k < params.n and params.n - k + 1 <= params.ell * params.mu:
        br = msrd_prob_bounds_BR(params, k, with_upper=args.with_br_upper)
        br_cells = [br.raw_lower, br.lower, br.upper if br.upper is not None else ""]
    header = [
        "q", "m", "eta", "ell", "n", "k",
        "raw_A", "p_A",
        "raw_U_lemma", "p_U_lemma",
        "raw_U_printed", "p_U_printed",
        "raw_BR", "p_BR_lower", "p_BR_upper",
    ]
    row = [
        params.q, params.m, params.eta, params.ell, params.n, k,
        a.raw_lower, a.lower,
        u_lemma.raw_lower, u_lemma.lower,
        u_printed.raw_lower, u_printed.lower,
        *br_cells,
    ]
    return header, [row]


def _cmd_mmin(args, parser):
    kinds = [s.strip() for s in args.bounds.split(",") if s.strip()]
    bad = [s for s in kinds if s not in ("A", "U", "BR")]
    if bad:
        parser.error(f"--bounds entries must be A, U or BR; got {bad}")
    if args.k < 1 or args.k > args.n:
        parser.error(f"--k {args.k} outside [1, {args.n}]")
    rows = []
    for ell in _divisors(args.n):
        cells = {name: "" for name in ("A", "U-lemma", "U-printed", "BR")}
        if "A" in kinds:
            cells["A"] = min_extension_degree(args.q, args.n, args.k, ell, "A", args.m_cap)
        if "U" in kinds:
            cells["U-lemma"] = min_extension_degree(args.q, args.n, args.k, ell, "U-lemma", args.m_cap)
            cells["U-printed"] = min_extension_degree(args.q, args.n, args.k, ell, "U-printed", args.m_cap)
        if "BR" in kinds and args.k < args.n:
            cells["BR"] = min_extension_degree(args.q, args.n, args.k, ell, "BR", args.m_cap)
        rows.append([
            ell,
            *(-1 if cells[name] is None else cells[name]
              for name in ("A", "U-lemma", "U-printed", "BR")),
        ])
    return ["ell", "mmin_A", "mmin_U_lemma", "mmin_U_printed", "mmin_BR"], rows


def _cmd_montecarlo(args, parser):
    params = _params_from(args, parser)
    if args.predicate == "msrd":
        predicate = is_msrd
    else:
        if args.d is None:
            parser.error("--predicate mindist needs --d")
        if args.d < 1:
            parser.error("--d must be >= 1")
        d = args.d
        predicate = lambda code: min_distance_bruteforce(code) >= d
    result = monte_carlo(params, args.k, args.trials, args.seed, predicate)
    header = ["trials", "successes", "estimate", "seed"]
    return header, [[result.trials, result.successes, result.estimate, result.seed]]


# ---------------------------------------------------------------------------

def _render(header, rows, fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrank",
        description="Sum-rank-metric code bounds, volumes and experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("volume", help="sphere/ball volume table")
    _add_param_flags(sub)
    sub.add_argument("--radius", type=int, help="largest radius (default: ell*mu)")
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_volume)

    sub = subs.add_parser("bounds", help="max-k bounds at one distance")
    _add_param_flags(sub)
    sub.add_argument("--d", type=int, required=True, help="minimum distance")
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_bounds)

    sub = subs.add_parser("curve-sp-gv", help="rate-vs-delta curve sweep")
    _add_param_flags(sub)
    sub.add_argument("--grid", type=int, default=64, help="number of delta points in (0,1]")
    sub.add_argument(
        "--asym-mode", choices=("blocks", "xi"), default="blocks",
        help="asymptotic reference: many blocks (ell->inf) or growing block (m=eta*xi)",
    )
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_curve)

    sub = subs.add_parser("genericity", help="MSRD probability bounds")
    _add_param_flags(sub)
    sub.add_argument("--k", type=int, required=True, help="code dimension")
    sub.add_argument(
        "--with-br-upper", action="store_true",
        help="also evaluate the exact BR upper bound (costly for large n)",
    )
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_genericity)

    sub = subs.add_parser("mmin", help="minimal extension degree per divisor ell of n")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--bounds", default="A,U,BR", help="comma list among A,U,BR")
    sub.add_argument("--m-cap", type=int, default=2**20, help="search cap (-1 cell beyond it)")
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_mmin)

    sub = subs.add_parser("montecarlo", help="random-code experiments")
    _add_param_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    sub.add_argument("--predicate", choices=("msrd", "mindist"), default="msrd")
    sub.add_argument("--d", type=int, help="distance threshold for --predicate mindist")
    _add_output_flags(sub)
    sub.set_defaults(builder=_cmd_montecarlo)

    return parser


def run(argv=None) -> int:
    """Parse argv, run the subcommand, write its table; returns the exit code.

    Exit codes: 0 success, 2 usage error (via argparse), 1 output I/O failure.
    A ValueError or ResourceLimitError of the library is a usage error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows = args.builder(args, parser)
    except (ValueError, ResourceLimitError) as exc:
        parser.error(str(exc))
    text = _render(header, rows, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
