"""Exact sum-rank sphere and ball volumes, plus the log_q-domain bounds on them.

A word of length n = ell*eta over F_{q^m} is split into ell blocks of length
eta; its weight is the sum of the F_q-ranks of the m-by-eta expansion of each
block.  The sphere volumes, words of each weight, are the coefficients of
(sum_s nm_count(eta, m, s) z^s)^ell, exact big integers computed in one pass
by combinatorics.power_coefficients; a direct sum over bounded weight
decompositions serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .combinatorics import (
    binomial,
    log_gamma_q,
    logq_int,
    nm_count,
    partitions_iter,
    power_coefficients,
)
from .fields import prime_power

__all__ = [
    "CodeParams",
    "VolumeTable",
    "volume_table",
    "sphere_volume",
    "sphere_volume_direct",
    "ball_volume",
    "sphere_lower_bound_logq",
    "sphere_upper_bound_logq",
]


@dataclass(frozen=True)
class CodeParams:
    """Ambient-space parameters: blocks of length eta over F_{q^m}, ell blocks.

    n = ell*eta is the code length and mu = min(m, eta) the largest possible
    rank of a single block.
    """

    q: int
    m: int
    eta: int
    ell: int

    def __post_init__(self):
        prime_power(self.q)  # raises for non-prime-powers
        if self.m < 1 or self.eta < 1 or self.ell < 1:
            raise ValueError(f"m, eta, ell must be >= 1, got {self}")

    @property
    def n(self) -> int:
        return self.ell * self.eta

    @property
    def mu(self) -> int:
        return min(self.m, self.eta)

    @property
    def max_weight(self) -> int:
        """The largest sum-rank weight of a word, ell*mu."""
        return self.ell * self.mu

    @property
    def space_size(self) -> int:
        """Number of words in the ambient space, q^(m n)."""
        return self.q ** (self.m * self.n)

    def check_weight(self, t: int, low: int = 0, name: str = "radius t"):
        """Raise ValueError unless the weight t (a radius or a distance) lies
        in [low, max_weight]."""
        if not low <= t <= self.max_weight:
            raise ValueError(f"{name}={t} outside [{low}, {self.max_weight}]")

    def msrd_attainable(self, k: int) -> bool:
        """Whether an [n, k] code can be MSRD: n - k + 1 <= ell*mu."""
        return self.n - k + 1 <= self.max_weight

    def check_msrd_attainable(self, k: int):
        """Raise ValueError unless an [n, k] code can be MSRD."""
        if not self.msrd_attainable(k):
            raise ValueError(f"target distance n-k+1={self.n - k + 1} exceeds the largest "
                             f"weight {self.max_weight}; MSRD is unattainable")


class VolumeTable:
    """Sphere and ball volumes for all radii 0..ell*mu, built in one pass.

    ball(t) is the number of words of weight at most t, sphere(t) the number
    of weight exactly t; both exact integers.  Only the ball column is kept,
    and sphere(t) = ball(t) - ball(t-1).
    """

    def __init__(self, params: CodeParams):
        self.params = params
        self.radius_max = radius_max = params.max_weight
        block = [nm_count(params.eta, params.m, s, params.q) for s in range(params.mu + 1)]
        self._ball = list(accumulate(power_coefficients(block, params.ell, radius_max)))

    def sphere(self, t: int) -> int:
        return self.ball(t) - (self.ball(t - 1) if t else 0)

    def ball(self, t: int) -> int:
        self.params.check_weight(t)
        return self._ball[t]


@lru_cache(maxsize=32)
def volume_table(params: CodeParams) -> VolumeTable:
    """Shared full-range VolumeTable for the given parameters."""
    return VolumeTable(params)


def sphere_volume(params: CodeParams, t: int) -> int:
    """Exact number of words of sum-rank weight t (from the shared VolumeTable)."""
    return volume_table(params).sphere(t)


def ball_volume(params: CodeParams, t: int) -> int:
    """Exact number of words of sum-rank weight at most t."""
    return volume_table(params).ball(t)


def sphere_volume_direct(params: CodeParams, t: int) -> int:
    """Sphere volume as the explicit sum over weight decompositions.

    sum over (t_1..t_ell), 0 <= t_i <= mu, sum t_i = t, of
    prod_i nm_count(eta, m, t_i); independent oracle for sphere_volume.
    """
    params.check_weight(t)
    block = [nm_count(params.eta, params.m, s, params.q) for s in range(params.mu + 1)]
    return sum(math.prod(block[s] for s in parts) for parts in partitions_iter(t, params.ell, params.mu))


def sphere_lower_bound_logq(params: CodeParams, t: int) -> float:
    """log_q of the sphere-volume lower bound
    q^{(m + eta - t/ell) t - ell/4} / gamma_q^ell, for t >= 1.

    When ell divides t the quasi-uniform weight decomposition is exact and the
    ell/4 penalty is dropped.
    """
    params.check_weight(t, low=1)
    ell = params.ell
    exponent = (params.m + params.eta - t / ell) * t - ell * log_gamma_q(params.q)
    if t % ell:
        exponent -= ell / 4
    return exponent


def sphere_upper_bound_logq(params: CodeParams, t: int) -> float:
    """log_q of the sphere-volume upper bound
    C(ell + t - 1, ell - 1) * gamma_q^ell * q^{t (m + eta - t/ell)}."""
    params.check_weight(t)
    ell = params.ell
    return (
        logq_int(binomial(ell + t - 1, ell - 1), params.q)
        + ell * log_gamma_q(params.q)
        + t * (params.m + params.eta - t / ell)
    )
