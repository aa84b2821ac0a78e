"""Singleton, sphere-packing and Gilbert-Varshamov bounds for sum-rank codes.

The exact SP/GV decisions compare big integers (no floating point); the
simplified variants replace the ball volume by its gamma_q bounds and work in
log_q domain; the asymptotic forms are closed-form rate functions of the
relative distance delta = d/n.

Every max-k solver returns a k that satisfies the defining inequality while
k+1 does not.  The exact SP/GV solvers get it in closed form, from the
integer floor or ceiling of log base q^m of the ball volume; the simplified
solvers binary-search their monotone float predicates, which a closed form
could round differently at the boundary.

When one block spans at least B0 bits (q^(m eta) >= 2^(B0-1)), the exact
solvers read that logarithm from volumes.ball_enclosure, decimal bounds on
the ball and on the powers of q^m, and build the exact volume table only
when those bounds cannot decide it.  Below B0 the exact table is cheaper to
build than the enclosure.  Both ways give the same k.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .combinatorics import binomial, log_gamma_q, logq_int
from .volumes import CodeParams, ball_enclosure, volume_table

__all__ = [
    "singleton_max_k",
    "sp_holds",
    "sp_max_k",
    "sp_simplified_holds",
    "sp_simplified_max_k",
    "sp_asymptotic_rate",
    "gv_holds",
    "gv_max_k",
    "gv_simplified_holds",
    "gv_simplified_max_k",
    "gv_asymptotic_rate",
]

# Bit size of q^(m eta) from which the exact SP/GV solvers use ball_enclosure.
# The exact table forms about ell*mu^2 products of an up-to-ell-block integer
# by a one-block one, B bits per block; the enclosure about (ell*mu)^2 decimal
# operations of fixed size.  Both grow as ell^2, so the ratio of their costs
# depends on B alone.  Measured on single builds, the two are within 40% of
# each other at 1,025 bits; the enclosure is 1.8 times faster at 1,281 bits
# and 14 times at 4,097.
B0 = 1280


def _check_k(params: CodeParams, k: int):
    if not 1 <= k <= params.n:
        raise ValueError(f"k={k} outside [1, {params.n}]")


def _largest_k(pred, hi: int) -> int:
    """Largest k in [0, hi] with pred(k) true, where pred is monotone
    (true up to some threshold, then false) and pred(0) is taken as true."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _floor_log(x: int, base: int) -> int:
    """Largest e with base**e <= x, for x >= 1 and base >= 2, in exact integers.

    The float estimate from the bit length lies at most 2 below e and never
    above it (the -1 absorbs rounding); exact products then step it up.
    """
    e = max(0, int((x.bit_length() - 1) / math.log2(base)) - 1)
    power = base**e
    while power * base <= x:
        power *= base
        e += 1
    return e


def _enclosed_log(lo, hi, lo_Q: list, hi_Q: list, ceil: bool) -> int | None:
    """ceil (if ceil) or floor of log_Q x for any lo <= x <= hi, given
    lo_Q[e] <= Q^e <= hi_Q[e] for e = 0, 1, ...; None when the bounds allow
    two answers.

    The largest e with hi_Q[e] <= lo is the floor if hi < lo_Q[e+1]; the
    smallest c with lo_Q[c] >= hi is the ceiling if c == 0 or hi_Q[c-1] < lo.
    """
    if ceil:
        c = bisect_left(lo_Q, hi)
        return c if c == 0 or hi_Q[c - 1] < lo else None
    e = bisect_right(hi_Q, lo) - 1
    return e if hi < lo_Q[e + 1] else None


def _log_ball(params: CodeParams, t: int, ceil: bool) -> int:
    """ceil (if ceil) or floor of log_{q^m} ball(t), exact.  From B0 bits on
    it is read from the enclosure; below B0, or where the enclosure allows two
    answers, from the exact ball."""
    Q = params.q**params.m
    if (Q**params.eta).bit_length() >= B0:
        lo, hi, lo_Q, hi_Q = ball_enclosure(params)
        log = _enclosed_log(lo[t], hi[t], lo_Q, hi_Q, ceil)
        if log is not None:
            return log
    ball = volume_table(params).ball(t)
    if ceil:  # ceil(log_Q x) = floor(log_Q (x - 1)) + 1 for x >= 2
        return 0 if ball == 1 else _floor_log(ball - 1, Q) + 1
    return _floor_log(ball, Q)


# ---------------------------------------------------------------------------
# Singleton

def singleton_max_k(params: CodeParams, d: int) -> int:
    """Largest dimension allowed by the sum-rank Singleton bound,
    k <= min(n - d + 1, (eta/m)(ell m - d + 1)), evaluated exactly."""
    params.check_weight(d, low=1, name="d")
    first = params.n - d + 1
    second = params.eta * (params.ell * params.m - d + 1) // params.m
    return min(first, second)


# ---------------------------------------------------------------------------
# sphere-packing

def _sp_radius(params: CodeParams, d: int) -> int:
    """The packing radius (d-1)//2 whose ball the SP bound weighs at distance d."""
    params.check_weight(d, low=1, name="d")
    return (d - 1) // 2


def sp_holds(params: CodeParams, k: int, d: int) -> bool:
    """Exact sphere-packing feasibility:
    q^{m k} * ball((d-1)//2) <= q^{m n}, that is ball <= q^{m (n-k)}."""
    _check_k(params, k)
    return volume_table(params).ball(_sp_radius(params, d)) <= params.q ** (params.m * (params.n - k))


def sp_max_k(params: CodeParams, d: int) -> int:
    """Largest k passing the exact sphere-packing bound; 0 if none.

    q^{m k} ball <= q^{m n} holds exactly for k <= n - ceil(log_{q^m} ball).
    """
    return params.n - _log_ball(params, _sp_radius(params, d), ceil=True)


def _sp_simplified_pred(params: CodeParams, d: int):
    """The simplified sphere-packing inequality at distance d, as a predicate of k."""
    t = _sp_radius(params, d)
    ell, m = params.ell, params.m
    # the k-free terms, each formed once; the sum keeps its left-to-right order
    a = (m + params.eta - t / ell) * t
    b = ell / 4
    c = ell * log_gamma_q(params.q)
    return lambda k: m * k + a - b - c <= m * params.n


def sp_simplified_holds(params: CodeParams, k: int, d: int) -> bool:
    """Simplified sphere-packing feasibility, with the ball replaced by the
    lower bound q^{(m + eta - t/ell) t - ell/4} / gamma_q^ell, t = (d-1)//2."""
    _check_k(params, k)
    return _sp_simplified_pred(params, d)(k)


def sp_simplified_max_k(params: CodeParams, d: int) -> int:
    """Largest k passing the simplified sphere-packing bound, capped at n.

    For d <= 2 the packing radius is 0 and the inequality degenerates; the
    cap then yields k = n.
    """
    return _largest_k(_sp_simplified_pred(params, d), params.n)


def sp_asymptotic_rate(
    delta: float,
    mode: str = "finite",
    params: CodeParams | None = None,
    xi: float | None = None,
) -> float:
    """Rate upper bound R(delta) from the simplified sphere-packing bound.

    mode="finite"  full finite-n form (requires params),
    mode="xi"      limit m = eta*xi -> infinity (requires xi),
    mode="blocks"  limit ell -> infinity at fixed q, m, eta (requires params).
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if mode == "xi":
        if xi is None or xi <= 0:
            raise ValueError("mode 'xi' needs xi > 0")
        return delta**2 / (4 * xi) - (delta / 2) * (1 + 1 / xi) + 1
    if params is None:
        raise ValueError(f"mode {mode!r} needs params")
    m, eta = params.m, params.eta
    lg = log_gamma_q(params.q)
    if mode == "blocks":
        return (
            delta**2 * eta / (4 * m)
            - (delta / 2) * (1 + eta / m)
            + (0.25 + lg) / (eta * m)
            + 1
        )
    if mode == "finite":
        n = params.n
        return (
            delta**2 * eta / (4 * m)
            - delta * (0.5 + (eta / m) * (0.5 + 1 / n))
            + (1 + eta / m + eta / (n * m)) / n
            + (0.25 + lg) / (eta * m)
            + 1
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Gilbert-Varshamov

def _gv_radius(params: CodeParams, d: int) -> int:
    """The radius d-1 whose ball the GV bound weighs at distance d."""
    params.check_weight(d, low=1, name="d")
    return d - 1


def gv_holds(params: CodeParams, k: int, d: int) -> bool:
    """Exact Gilbert-Varshamov existence condition:
    q^{m (k-1)} * ball(d-1) < q^{m n}, that is ball < q^{m (n-k+1)}."""
    _check_k(params, k)
    return volume_table(params).ball(_gv_radius(params, d)) < params.q ** (params.m * (params.n - k + 1))


def gv_max_k(params: CodeParams, d: int) -> int:
    """Largest k guaranteed to exist by the exact GV bound; 0 if none.

    q^{m (k-1)} ball < q^{m n} holds exactly for k <= n - floor(log_{q^m} ball).
    """
    return params.n - _log_ball(params, _gv_radius(params, d), ceil=False)


def _gv_simplified_pred(params: CodeParams, d: int):
    """The simplified GV condition at distance d > 2, as a predicate of k."""
    if d <= 2:
        raise ValueError(f"simplified GV bound needs d > 2, got d={d}")
    params.check_weight(d, low=1, name="d")
    ell, m, q = params.ell, params.m, params.q
    # the k-free terms, each formed once; the sum keeps its left-to-right order
    a = math.log(d - 1) / math.log(q)
    b = logq_int(binomial(ell + d - 2, ell - 1), q)
    c = ell * log_gamma_q(q)
    e = (d - 1) * (m + params.eta - (d - 1) / ell)
    return lambda k: m * (k - 1) + a + b + c + e < m * params.n


def gv_simplified_holds(params: CodeParams, k: int, d: int) -> bool:
    """Simplified GV condition (requires d > 2), with the ball replaced by
    the upper bound (d-1) C(ell+d-2, ell-1) gamma_q^ell q^{(d-1)(m+eta-(d-1)/ell)}."""
    _check_k(params, k)
    return _gv_simplified_pred(params, d)(k)


def gv_simplified_max_k(params: CodeParams, d: int) -> int:
    """Largest k satisfying the simplified GV condition; 0 if none.
    Always at most gv_max_k since the ball is over-estimated."""
    return _largest_k(_gv_simplified_pred(params, d), params.n)


def gv_asymptotic_rate(
    delta: float,
    mode: str = "finite",
    params: CodeParams | None = None,
    xi: float | None = None,
) -> float:
    """Rate R(delta) achievable per the simplified GV bound.

    mode="finite" evaluates the full finite-n expression including the
    sum_{i < delta n} log_q(1 + (ell-1)/i) term (requires params and
    delta*n >= 2); mode="xi" is the m = eta*xi -> infinity limit.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if mode == "xi":
        if xi is None or xi <= 0:
            raise ValueError("mode 'xi' needs xi > 0")
        return delta**2 / xi - delta * (1 + 1 / xi) + 1
    if mode != "finite":
        raise ValueError(f"unknown mode {mode!r}")
    if params is None:
        raise ValueError("mode 'finite' needs params")
    m, eta, n, ell, q = params.m, params.eta, params.n, params.ell, params.q
    dn = delta * n
    if dn < 2:
        raise ValueError(f"finite mode needs delta*n >= 2, got {dn}")
    lnq = math.log(q)
    log_sum = sum(
        math.log1p((ell - 1) / i) for i in range(1, math.ceil(dn))
    ) / lnq
    return (
        delta**2 * eta / m
        - delta * (1 + eta / m + 2 * eta / (n * m))
        + 1
        + 1 / n
        + eta / (n * m)
        + eta / (n * n * m)
        - (log_sum + math.log(dn - 1) / lnq) / (m * n)
        - log_gamma_q(q) / (eta * m)
    )
