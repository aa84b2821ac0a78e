"""Exact counting primitives used throughout the sum-rank machinery.

Everything here is exact big-integer arithmetic except gamma_q, which is the
one floating-point constant of the library and is always consumed in log_q
domain.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = [
    "binomial",
    "q_binomial",
    "nm_count",
    "nm_lower_bound_logq",
    "power_coefficients",
    "partition_count",
    "partitions_iter",
    "gamma_q",
    "log_gamma_q",
    "log2_int",
    "logq_int",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; 0 outside the Pascal triangle (k < 0 or k > n)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def q_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial: the number of k-dim subspaces of an n-dim space
    over a field with q elements.  Exact, via the product formula."""
    if k < 0 or n < 0 or k > n:
        return 0
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    k = min(k, n - k)
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def nm_count(n: int, m: int, t: int, q: int) -> int:
    """Number of m-by-n matrices over F_q of rank exactly t.

    Equals qbinom(n, t) * prod_{i=0}^{t-1} (q^m - q^i); 0 when t is outside
    [0, min(n, m)].
    """
    if t < 0 or t > min(n, m):
        return 0
    out = q_binomial(n, t, q)
    for i in range(t):
        out *= q**m - q**i
    return out


def nm_lower_bound_logq(n: int, m: int, t: int, q: int) -> float:
    """log_q of the lower bound q^{(m+n-t)t} / gamma_q on the rank-t count."""
    if t < 0 or t > min(n, m):
        raise ValueError(f"t={t} outside [0, min({n}, {m})]")
    return (m + n - t) * t - log_gamma_q(q)


def power_coefficients(poly: Sequence[int], e: int, top: int) -> list[int]:
    """Coefficients 0..top of poly(z)^e, for integer poly with poly[0] == 1.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): the z^(t-1)
    coefficients of poly * P' = e * poly' * P, with P = poly^e, give
    t p_t = sum_{s=1}^{min(deg, t)} ((e+1) s - t) poly[s] p_{t-s}.  The
    division by t is exact, since P has integer coefficients (poly[0] == 1).
    """
    if not poly or poly[0] != 1 or e < 0 or top < 0:
        raise ValueError(f"need poly[0] == 1, e >= 0 and top >= 0; got e={e}, top={top}")
    deg = len(poly) - 1
    p = [poly[0]]
    for t in range(1, top + 1):
        acc = 0
        for s in range(1, min(deg, t) + 1):
            acc += ((e + 1) * s - t) * poly[s] * p[t - s]
        p.append(acc // t)
    return p


def partition_count(t: int, ell: int, mu: int) -> int:
    """Number of ordered decompositions of t into ell parts with 0 <= part <= mu.

    Inclusion-exclusion over parts forced above mu:
    sum_i (-1)^i C(ell, i) C(t + ell - 1 - (mu+1) i, ell - 1).
    """
    if t < 0 or ell < 1 or mu < 0:
        raise ValueError(f"invalid arguments t={t}, ell={ell}, mu={mu}")
    if t > ell * mu:
        return 0
    total = 0
    for i in range(ell + 1):
        term = binomial(ell, i) * binomial(t + ell - 1 - (mu + 1) * i, ell - 1)
        total += -term if i & 1 else term
    return total


def partitions_iter(t: int, ell: int, mu: int) -> Iterator[tuple[int, ...]]:
    """Yield every ordered decomposition of t into ell parts bounded by mu,
    in lexicographic order (leftmost part varies slowest, ascending)."""
    if t < 0 or ell < 1 or mu < 0:
        raise ValueError(f"invalid arguments t={t}, ell={ell}, mu={mu}")

    def rec(remaining: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if remaining <= mu:
                yield (remaining,)
            return
        lo = max(0, remaining - (parts - 1) * mu)
        hi = min(mu, remaining)
        for v in range(lo, hi + 1):
            for rest in rec(remaining - v, parts - 1):
                yield (v,) + rest

    yield from rec(t, ell)


@lru_cache(maxsize=None)
def gamma_q(q: int) -> float:
    """The constant prod_{i>=1} (1 - q^-i)^-1, as a double.

    Decreasing in q with limit 1; gamma_2 ~ 3.463.  The product runs up to
    the first factor that rounds to 1.0 (i = 54 at q = 2, earlier for larger
    q); every later factor rounds to 1.0 as well.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    acc = 1.0
    i = 1
    while (f := 1.0 - float(q) ** -i) != 1.0:
        acc *= f
        i += 1
    return 1.0 / acc


def log_gamma_q(q: int) -> float:
    """log_q(gamma_q), the form in which gamma_q enters every bound."""
    return math.log(gamma_q(q)) / math.log(q)


def log2_int(x: int) -> float:
    """log2 of a positive integer, exact to float precision for any size."""
    if x <= 0:
        raise ValueError("log of a nonpositive integer")
    bits = x.bit_length()
    if bits <= 1000:
        return math.log2(x)
    shift = bits - 53
    return math.log2(x >> shift) + shift


def logq_int(x: int, q: int) -> float:
    """log base q of a positive integer of arbitrary size."""
    return log2_int(x) / math.log2(q)
