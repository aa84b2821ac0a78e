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
import decimal
import io
import json
import math
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
from .fields import prime_power
from .genericity import (
    _KINDS,
    _clamp01,
    min_extension_degree,
    msrd_prob_bounds_BR,
    msrd_prob_lb_A,
    msrd_prob_lb_U,
)
from .volumes import CodeParams, volume_table

__all__ = ["curve_rows", "run"]


def _params_from(args, parser) -> CodeParams:
    eta, ell, n = args.eta, args.ell, args.n
    given = sum(v is not None for v in (eta, ell, n))
    if given < 2:
        parser.error("provide two of --eta/--ell/--n")
    if any(v is not None and v < 1 for v in (eta, ell, n)):  # before any n % v
        parser.error("--eta, --ell and --n must be >= 1")
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


def _add_param_flags(sub):
    sub.add_argument("--q", type=int, required=True, help="base field size (prime power)")
    sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--eta", type=int, help="block length")
    sub.add_argument("--ell", type=int, help="number of blocks")
    sub.add_argument("--n", type=int, help="code length (= eta*ell)")


def _add_output_flags(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, as pairs d, n // d with d <= sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


# ---------------------------------------------------------------------------
# subcommand row builders; each returns (header, rows)

def _cmd_volume(args, parser):
    params = _params_from(args, parser)
    top = params.max_weight
    radius = args.radius if args.radius is not None else top
    if not 0 <= radius <= top:
        parser.error(f"--radius {radius} outside [0, {top}]")
    table = volume_table(params)
    if args.format == "json":
        rows = [[t, table.sphere(t), table.ball(t)] for t in range(radius + 1)]
    else:
        rows = _decimal_volume_rows(table, radius)
    return ["t", "sphere", "ball"], rows


def _decimal_volume_rows(table, radius: int):
    """Yield the CSV volume rows, sphere and ball spelled in decimal.  Balls are
    running sums of Decimals: CPython's int->str is quadratic in the digit
    count, Decimal addition and str() are linear."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    ball = decimal.Decimal(0)
    for t in range(radius + 1):
        sphere = str(table.sphere(t))
        ball = ctx.add(ball, decimal.Decimal(sphere))
        yield [t, sphere, str(ball)]


def _max_ks(params: CodeParams, d: int) -> list:
    """The Singleton, exact SP, simplified SP, exact GV and simplified GV
    max-k at distance d; "" for simplified GV, which needs d > 2."""
    return [
        singleton_max_k(params, d),
        sp_max_k(params, d),
        sp_simplified_max_k(params, d),
        gv_max_k(params, d),
        gv_simplified_max_k(params, d) if d > 2 else "",
    ]


def _cmd_bounds(args, parser):
    params = _params_from(args, parser)
    d = args.d
    row = [params.q, params.m, params.eta, params.ell, params.n, d, *_max_ks(params, d)]
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
    top = params.max_weight
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
        singleton, sp, sp_s, gv, gv_s = (k / n if k != "" else "" for k in _max_ks(params, d))
        rows.append([
            delta, d,
            singleton, sp, sp_s, _clamp01(raw_sp_a),
            gv, gv_s, _clamp01(raw_gv_a) if raw_gv_a != "" else "",
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
    a = msrd_prob_lb_A(params, k)
    u_lemma = msrd_prob_lb_U(params, k, "lemma")
    u_printed = msrd_prob_lb_U(params, k, "printed")
    br_cells = ["", "", ""]
    if 1 <= k < params.n and params.msrd_attainable(k):
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
    prime_power(args.q)  # raises for non-prime-powers, whichever --bounds
    kinds = [s.strip() for s in args.bounds.split(",") if s.strip()]
    bad = [s for s in kinds if s not in ("A", "U", "BR")]
    if bad:
        parser.error(f"--bounds entries must be A, U or BR; got {bad}")
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.k < 1 or args.k > args.n:
        parser.error(f"--k {args.k} outside [1, {args.n}]")
    if args.m_cap < 1:
        parser.error(f"--m-cap {args.m_cap} must be >= 1")
    # a --bounds entry names its kinds up to the first "-": U is both U variants
    wanted = [kind for kind in _KINDS
              if kind.split("-")[0] in kinds and (kind != "BR" or args.k < args.n)]
    rows = []
    for ell in _divisors(args.n):
        mmins = (min_extension_degree(args.q, args.n, args.k, ell, kind, args.m_cap)
                 if kind in wanted else "" for kind in _KINDS)
        rows.append([ell, *(-1 if m is None else m for m in mmins)])
    return ["ell", *(f"mmin_{kind.replace('-', '_')}" for kind in _KINDS)], rows


def _cmd_montecarlo(args, parser):
    params = _params_from(args, parser)
    d, top = args.d, params.max_weight
    if args.predicate == "msrd":
        if d is not None:
            parser.error("--d applies only to --predicate mindist")
        predicate = is_msrd
    else:
        if d is None:
            parser.error("--predicate mindist needs --d")
        if not 1 <= d <= top:
            parser.error(f"--d {d} outside [1, {top}]")
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


def _volume_flags(sub):
    _add_param_flags(sub)
    sub.add_argument("--radius", type=int, help="largest radius (default: ell*mu)")


def _bounds_flags(sub):
    _add_param_flags(sub)
    sub.add_argument("--d", type=int, required=True, help="minimum distance")


def _curve_flags(sub):
    _add_param_flags(sub)
    sub.add_argument("--grid", type=int, default=64, help="number of delta points in (0,1]")
    sub.add_argument(
        "--asym-mode", choices=("blocks", "xi"), default="blocks",
        help="asymptotic reference: many blocks (ell->inf) or growing block (m=eta*xi)",
    )


def _genericity_flags(sub):
    _add_param_flags(sub)
    sub.add_argument("--k", type=int, required=True, help="code dimension")
    sub.add_argument(
        "--with-br-upper", action="store_true",
        help="also evaluate the exact BR upper bound (one q^m-binomial of "
        "about k(n-k)*log2(q^m) bits: costly for large n)",
    )


def _mmin_flags(sub):
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--bounds", default="A,U,BR", help="comma list among A,U,BR")
    sub.add_argument("--m-cap", type=int, default=2**20, help="search cap (-1 cell beyond it)")


def _montecarlo_flags(sub):
    _add_param_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    sub.add_argument("--predicate", choices=("msrd", "mindist"), default="msrd")
    sub.add_argument("--d", type=int, help="distance threshold for --predicate mindist")


# name: (help, flags before the output flags, row builder), in --help order
_COMMANDS = {
    "volume": ("sphere/ball volume table", _volume_flags, _cmd_volume),
    "bounds": ("max-k bounds at one distance", _bounds_flags, _cmd_bounds),
    "curve-sp-gv": ("rate-vs-delta curve sweep", _curve_flags, _cmd_curve),
    "genericity": ("MSRD probability bounds", _genericity_flags, _cmd_genericity),
    "mmin": ("minimal extension degree per divisor ell of n", _mmin_flags, _cmd_mmin),
    "montecarlo": ("random-code experiments", _montecarlo_flags, _cmd_montecarlo),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a command name, only that subcommand gets flags.

    Every subcommand is listed, so usage, --help and the invalid-choice
    error read the same either way.  Adding a flag is most of the cost of
    building the parser (argparse formats each one as it is added), and one
    request parses the flags of one subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="sumrank",
        description="Sum-rank-metric code bounds, volumes and experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, builder) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command in (None, name):
            add_flags(sub)
            _add_output_flags(sub)
        sub.set_defaults(builder=builder)
    return parser


def run(argv=None) -> int:
    """Parse argv, run the subcommand, write its table; returns the exit code.

    Exit codes: 0 success, 2 usage error (via argparse), 1 output I/O failure.
    A ValueError or ResourceLimitError of the library is a usage error.
    Lifts CPython's limit on int-to-str digits: the volume table prints balls
    up to q^(mn), which can exceed 4,300 decimal digits.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse dispatches on the first positional token.  No top-level flag
    # takes a value, so a command name there is the first in argv; any
    # other token there fails as an invalid choice before dispatch.
    parser = _build_parser(next((a for a in argv if a in _COMMANDS), None))
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


if __name__ == "__main__":
    sys.exit(run())
