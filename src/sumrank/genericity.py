"""Probability bounds for random systematic codes being MSRD, and the
dimension choice under which random codes almost attain the GV bound.

Three lower bounds on the MSRD probability are provided, differing in how the
full-rank block matrices of the rank criterion are counted:

* variant A counts all of them (failure term k C(k+ell-1, ell-1) q^{eta k - m}),
* variant U counts only reduced-echelon representatives (failure term
  k C(k+ell-1, ell-1) q^{k(eta - k/ell) - m} gamma_q^ell, optionally with an
  extra -ell/4 in the exponent -- see msrd_prob_lb_U),
* the BR bounds come from subspace-counting densities and give an upper bound
  as well (the exact complement fraction Q^{k(n-k)} / [n k]_Q, Q = q^m).

Failure terms are evaluated in log domain so that extreme parameters neither
overflow nor lose the sign of 1 - failure; raw (unclamped) values are kept so
that sign changes can be searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial, log2_int, q_binomial
from .combinatorics import gamma_q as _gamma_q
from .fields import prime_power
from .volumes import CodeParams, volume_table

__all__ = [
    "ProbabilityBound",
    "GvAttainment",
    "msrd_prob_lb_A",
    "msrd_prob_lb_U",
    "msrd_prob_bounds_BR",
    "min_extension_degree",
    "gv_attainment_epsilon_max",
    "gv_attainment_dimension",
]

_LN_OVERFLOW = 700.0  # beyond this, exp() overflows a double


@dataclass(frozen=True)
class ProbabilityBound:
    """Lower and/or upper bound on a probability.

    lower/upper are clamped to [0, 1]; raw_lower keeps the unclamped value
    (possibly negative or -inf) so callers can detect where a bound becomes
    vacuous.
    """

    lower: float | None
    upper: float | None
    raw_lower: float

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper + 1e-12:
                raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


@dataclass(frozen=True)
class GvAttainment:
    """Dimension choice k for which a random [n, k] code has minimum distance
    >= d with probability 1 - exp(-Omega(m n)); the rate constant is not
    quantified, so only the (epsilon, k) pair is numeric."""

    epsilon: float
    k: int


def _raw_from_log_failure(ln_failure: float) -> float:
    """1 - exp(ln_failure), safe for any magnitude."""
    if ln_failure > _LN_OVERFLOW:
        return -math.inf
    return -math.expm1(ln_failure)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _ln_failure(q: int, m: int, eta: int, ell: int, k: int, kind: str) -> float:
    """ln of the failure term k C(k+ell-1, ell-1) q^e of bound A (e = eta k - m)
    or U (e = k(eta - k/ell) - m, less ell/4 if "U-printed", times gamma_q^ell)."""
    lnq = math.log(q)
    ln_head = math.log(k) + log2_int(binomial(k + ell - 1, ell - 1)) * math.log(2)
    if kind == "A":
        return ln_head + (eta * k - m) * lnq
    exponent = k * (eta - k / ell) - m
    if kind == "U-printed":
        exponent -= ell / 4
    return ln_head + exponent * lnq + ell * math.log(_gamma_q(q))


def _lower_only(kind: str, q: int, m: int, eta: int, ell: int, k: int) -> ProbabilityBound:
    """Bound A or U: a lower bound only, clamped from its raw value."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > ell * min(m, eta):
        raise ValueError(
            f"k={k} exceeds the largest total rank {ell * min(m, eta)}; "
            "no code of that dimension can be MSRD"
        )
    raw = _RAW_LOWER[kind](q, m, eta, ell, k)
    return ProbabilityBound(lower=_clamp01(raw), upper=None, raw_lower=raw)


def msrd_prob_lb_A(q: int, m: int, eta: int, ell: int, k: int) -> ProbabilityBound:
    """Lower bound 1 - k C(k+ell-1, ell-1) q^{eta k - m} on the probability
    that a uniform systematic [n, k] code (n = ell*eta) is MSRD."""
    return _lower_only("A", q, m, eta, ell, k)


def msrd_prob_lb_U(
    q: int, m: int, eta: int, ell: int, k: int, variant: str = "lemma"
) -> ProbabilityBound:
    """Lower bound on the MSRD probability via echelon-form counting:
    1 - k C(k+ell-1, ell-1) q^{k(eta - k/ell) - m} gamma_q^ell.

    variant="printed" additionally subtracts ell/4 in the q-exponent; the
    default "lemma" follows the counting bound that the echelon enumeration
    actually satisfies (see tests against echelon_blocks_iter).
    """
    if variant not in ("lemma", "printed"):
        raise ValueError(f"variant must be 'lemma' or 'printed', got {variant!r}")
    return _lower_only(f"U-{variant}", q, m, eta, ell, k)


def _msrd_upper_exact(Q: int, n: int, k: int) -> Fraction:
    """Exact upper bound on the MSRD density of [n, k] codes over a field
    with Q elements: the fraction of k-dim subspaces meeting a fixed
    (n-k)-dim subspace of low-weight words trivially.

    Those subspaces are exactly the complements of the fixed one, and there
    are Q^{k(n-k)} of them among the [n k]_Q k-dim subspaces.
    """
    return Fraction(Q ** (k * (n - k)), q_binomial(n, k, Q))


def _ln_qexp_minus1(q: int, e: int) -> float:
    """ln(q^e - 1) for e >= 1 without forming the big integer."""
    lnq = math.log(q)
    return e * lnq + math.log1p(-math.exp(-e * lnq))


def _br_raw_lower(q: int, m: int, eta: int, ell: int, k: int) -> float:
    """Unclamped BR lower bound
    1 - (q^{mk}-1) / ((q^m-1)(q^{mn}-1)) * ((n-k) C(ell+n-k-1, ell-1)
        gamma_q^ell q^{(n-k)(m+eta-(n-k)/ell)} - 1),
    evaluated in log domain."""
    n = ell * eta
    w = n - k
    lnq = math.log(q)
    ln_ratio = (
        _ln_qexp_minus1(q, m * k)
        - _ln_qexp_minus1(q, m)
        - _ln_qexp_minus1(q, m * n)
    )
    ln_t = (
        math.log(w)
        + log2_int(binomial(ell + w - 1, ell - 1)) * math.log(2)
        + ell * math.log(_gamma_q(q))
        + w * (m + eta - w / ell) * lnq
    )
    if ln_t <= 0:
        # ball bound below 1: the subtracted term is nonpositive
        return 1.0 - math.exp(ln_ratio) * math.expm1(ln_t)
    ln_bracket = ln_t + math.log1p(-math.exp(-ln_t)) if ln_t < _LN_OVERFLOW else ln_t
    return _raw_from_log_failure(ln_ratio + ln_bracket)


def msrd_prob_bounds_BR(
    params: CodeParams, k: int, with_upper: bool = True
) -> ProbabilityBound:
    """Lower and upper bounds on the probability that a uniformly random
    [n, k] code is MSRD, via subspace-counting densities.

    The upper bound divides by one q^m-binomial [n k]_{q^m}, an integer of
    about k(n-k) log2(q^m) bits, so it grows costly for large n; pass
    with_upper=False to skip it.
    """
    n = params.n
    if not 1 <= k < n:
        raise ValueError(f"k={k} outside [1, {n - 1}]")
    if not params.msrd_attainable(k):
        raise ValueError(f"target distance n-k+1={n - k + 1} exceeds the largest "
                         f"weight {params.ell * params.mu}; MSRD is unattainable")
    raw = _br_raw_lower(params.q, params.m, params.eta, params.ell, k)
    upper = None
    if with_upper:
        upper = float(_msrd_upper_exact(params.q**params.m, n, k))
    return ProbabilityBound(
        lower=min(_clamp01(raw), upper if upper is not None else 1.0),
        upper=upper,
        raw_lower=raw,
    )


# bound kind -> unclamped lower bound as a function of (q, m, eta, ell, k)
_RAW_LOWER = {
    "A": lambda *a: _raw_from_log_failure(_ln_failure(*a, "A")),
    "U-lemma": lambda *a: _raw_from_log_failure(_ln_failure(*a, "U-lemma")),
    "U-printed": lambda *a: _raw_from_log_failure(_ln_failure(*a, "U-printed")),
    "BR": _br_raw_lower,
}


def min_extension_degree(
    q: int, n: int, k: int, ell: int, bound_kind: str, m_cap: int = 2**20
) -> int | None:
    """Smallest extension degree m for which the chosen MSRD lower bound is
    positive, or None if no m <= m_cap works.

    bound_kind is one of "A", "U-lemma", "U-printed", "BR".  Each raw bound is
    increasing in m, so an exponential-then-binary search applies.  m_cap
    must be at least 1.
    """
    prime_power(q)  # raises for non-prime-powers
    if m_cap < 1:
        raise ValueError(f"m_cap={m_cap} must be >= 1")
    if bound_kind not in _RAW_LOWER:
        raise ValueError(f"bound_kind must be one of {tuple(_RAW_LOWER)}, got {bound_kind!r}")
    if n % ell:
        raise ValueError(f"ell={ell} does not divide n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if bound_kind == "BR" and k >= n:
        raise ValueError("BR bound needs k < n")
    eta = n // ell
    raw = lambda m: _RAW_LOWER[bound_kind](q, m, eta, ell, k)

    hi = 1
    while raw(hi) <= 0:
        hi *= 2
        if hi > m_cap:
            return None
    lo = hi // 2  # raw(lo) <= 0 when lo >= 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if raw(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def _logq_ball(params: CodeParams, d: int) -> float:
    """log_q of ball(d-1), from its bit length."""
    ball = volume_table(params).ball(d - 1)
    return log2_int(ball) / math.log2(params.q) if ball > 1 else 0.0


def gv_attainment_epsilon_max(params: CodeParams, d: int) -> float:
    """Right endpoint of the admissible interval for epsilon:
    1 - log_q(ball(d-1)) / (m n) - 1/n."""
    if not 1 <= d <= params.ell * params.mu:
        raise ValueError(f"d={d} outside [1, {params.ell * params.mu}]")
    return 1 - _logq_ball(params, d) / (params.m * params.n) - 1 / params.n


def gv_attainment_dimension(
    params: CodeParams, d: int, epsilon: float
) -> GvAttainment:
    """Dimension k = floor(n (1 - log_q(ball(d-1))/(m n) - epsilon)) for which
    random [n, k] codes have minimum distance >= d with probability
    1 - exp(-Omega(m n)); epsilon must lie in (0, gv_attainment_epsilon_max]."""
    eps_max = gv_attainment_epsilon_max(params, d)
    if not 0 < epsilon <= eps_max:
        raise ValueError(f"epsilon={epsilon} outside (0, {eps_max}]")
    k = math.floor(params.n * (1 - _logq_ball(params, d) / (params.m * params.n) - epsilon))
    return GvAttainment(epsilon=epsilon, k=k)
