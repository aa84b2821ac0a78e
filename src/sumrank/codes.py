"""Random systematic linear codes over F_{q^m} and their sum-rank statistics.

Provides the sum-rank weight, a brute-force minimum distance (message
enumeration), enumeration of the block-diagonal reduced-echelon matrices used
by the MSRD rank criterion, the criterion itself, and a reproducible
Monte-Carlo harness.

Randomness contract: all sampling goes through numpy Generators.  Trial i of
a Monte-Carlo run uses default_rng(SeedSequence(entropy=seed, spawn_key=(i,))),
so results are identical for identical (seed, trials, params) regardless of
scheduling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .combinatorics import partitions_iter, power_coefficients, q_binomial
from .fields import ExtensionField, ext_make, field_make, matrix_rank, prime_power
from .volumes import CodeParams

__all__ = [
    "ResourceLimitError",
    "LinearCode",
    "TrialResult",
    "ambient_field",
    "block_rank_profile",
    "sum_rank_weight",
    "random_systematic_code",
    "min_distance_bruteforce",
    "echelon_count",
    "echelon_blocks_iter",
    "is_msrd",
    "monte_carlo",
]


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured cap."""


def ambient_field(params: CodeParams) -> ExtensionField:
    """The tower F_p < F_q < F_{q^m} for the given parameters, cached by ext_make."""
    p, e = prime_power(params.q)
    return ext_make(field_make(p, e), params.m)


def block_rank_profile(
    ext: ExtensionField, x: Sequence[int], ell: int, eta: int
) -> tuple[int, ...]:
    """Per-block ranks (the weight decomposition) of a length-(ell*eta) word.

    Block i is expanded column-wise into an m-by-eta matrix over the base
    field; its rank contributes the i-th entry.
    """
    if len(x) != ell * eta:
        raise ValueError(f"word length {len(x)} != ell*eta = {ell * eta}")
    base = ext.base
    m = ext.degree
    profile = []
    for i in range(ell):
        block = x[i * eta : (i + 1) * eta]
        if base.order == 2:  # an encoding is its coordinate column as bits
            profile.append(_xor_rank(block))
            continue
        cols = [ext.decode(v) for v in block]
        rows = [[col[r] for col in cols] for r in range(m)]
        profile.append(matrix_rank(base, rows))
    return tuple(profile)


def _xor_rank(vectors: Sequence[int]) -> int:
    """F_2-rank of bit vectors, by elimination into an XOR basis whose
    members have distinct leading bits."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def sum_rank_weight(ext: ExtensionField, x: Sequence[int], ell: int, eta: int) -> int:
    """Sum of the per-block expansion ranks of x; between 0 and ell*min(m,eta)."""
    return sum(block_rank_profile(ext, x, ell, eta))


@dataclass(frozen=True)
class LinearCode:
    """A systematic [n, k] code over F_{q^m}: G = [I_k | X], rows over the
    ambient extension field (entries are field-encoded ints)."""

    params: CodeParams
    k: int
    G: tuple[tuple[int, ...], ...]

    @property
    def ext(self) -> ExtensionField:
        return ambient_field(self.params)


def random_systematic_code(
    params: CodeParams, k: int, rng: np.random.Generator
) -> LinearCode:
    """[I_k | X] with the entries of X independent and uniform over F_{q^m}.

    Uniformity is exact: an element is uniform iff its base-q coefficient
    vector is, so each entry is assembled from m uniform digits.
    """
    if not 1 <= k < params.n:
        raise ValueError(f"k={k} outside [1, {params.n - 1}]")
    ext = ambient_field(params)
    q, m = params.q, params.m
    rows = []
    for i in range(k):
        x_digits = rng.integers(0, q, size=(params.n - k, m))
        row = [0] * k
        row[i] = 1
        row += [ext.encode(int(d) for d in entry) for entry in x_digits]
        rows.append(tuple(row))
    return LinearCode(params=params, k=k, G=tuple(rows))


def min_distance_bruteforce(code: LinearCode, cap: int = 2**20) -> int:
    """Minimum sum-rank weight over all nonzero codewords, by enumerating all
    q^{mk} message vectors.  Raises ResourceLimitError above the cap."""
    params, k = code.params, code.k
    ext = code.ext
    Q = ext.order
    if Q**k > cap:
        raise ResourceLimitError(f"q^(mk) = {Q**k} exceeds cap {cap}")
    best = None
    n = params.n
    for msg in itertools.product(range(Q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for i, u in enumerate(msg):
            if u == 0:
                continue
            row = code.G[i]
            for j in range(n):
                if row[j]:
                    word[j] = ext.add(word[j], ext.mul(u, row[j]))
        w = sum_rank_weight(ext, word, params.ell, params.eta)
        if best is None or w < best:
            best = w
            if best == 1:
                break
    return best


# ---------------------------------------------------------------------------
# reduced-echelon block matrices

@lru_cache(maxsize=32)
def _rref_full_rank(eta: int, r: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All rank-r reduced-row-echelon r x eta matrices over a q-element field.

    Entry values are the field's element encodings; only their count matters
    here, so plain range(q) enumerates them.  There are qbinom(eta, r) such
    matrices, cached in one tuple that every is_msrd call shares.
    """
    if r == 0:
        return ((),)
    out = []
    for pivots in itertools.combinations(range(eta), r):
        free_pos = [
            (row, col)
            for row in range(r)
            for col in range(pivots[row] + 1, eta)
            if col not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_pos)):
            mat = [[0] * eta for _ in range(r)]
            for row, p in enumerate(pivots):
                mat[row][p] = 1
            for (row, col), v in zip(free_pos, values):
                mat[row][col] = v
            out.append(tuple(tuple(row) for row in mat))
    return tuple(out)


def echelon_count(params: CodeParams, t: int) -> int:
    """|set of block-diagonal full-rank echelon matrices of total rank t|,
    the coefficient of z^t in (sum_r qbinom(eta, r) z^r)^ell."""
    poly = [q_binomial(params.eta, r, params.q) for r in range(min(params.eta, t) + 1)]
    return power_coefficients(poly, params.ell, t)[t]


def echelon_blocks_iter(params: CodeParams, t: int) -> Iterator[tuple]:
    """Yield every block-diagonal full-rank reduced-echelon matrix of total
    rank t exactly once (outer order: lexicographic weight decompositions),
    as the tuple of its ell diagonal blocks: block i is a full-rank
    reduced-row-echelon t_i x eta matrix (a tuple of rows), empty if t_i = 0."""
    if not 0 <= t <= params.n:
        raise ValueError(f"t={t} outside [0, {params.n}]")
    for parts in partitions_iter(t, params.ell, min(params.eta, t)):
        yield from itertools.product(*(_rref_full_rank(params.eta, r, params.q) for r in parts))


def is_msrd(code: LinearCode, cap: int = 200_000) -> bool:
    """Whether the code attains minimum distance n - k + 1: every block-
    diagonal full-rank echelon matrix U of total rank k must satisfy
    rank(U G^T) = k over F_{q^m}.

    Raises ValueError when n - k + 1 exceeds the largest possible weight and
    ResourceLimitError when the echelon enumeration would exceed the cap.
    """
    params, k = code.params, code.k
    params.check_msrd_attainable(k)
    count = echelon_count(params, k)
    if count > cap:
        raise ResourceLimitError(f"|echelon set| = {count} exceeds cap {cap}")
    ext = code.ext
    eta = params.eta
    # P = U G^T over F_{q^m} is block-diagonal in U: a row of block i pairs
    # with each code row on the eta columns of block i.  The rows of each
    # (i, block) are formed once per code; there are at most
    # ell * sum_r qbinom(eta, r) of them.
    g_blocks = [[g[i * eta : (i + 1) * eta] for g in code.G] for i in range(params.ell)]
    block_rows: dict[tuple[int, tuple], list[tuple[int, ...]]] = {}
    for blocks in echelon_blocks_iter(params, k):
        prod_rows = []
        for i, block in enumerate(blocks):
            rows = block_rows.get((i, block))
            if rows is None:
                rows = block_rows[i, block] = [_row_products(ext, urow, g_blocks[i]) for urow in block]
            prod_rows += rows
        if matrix_rank(ext, prod_rows) < k:
            return False
    return True


def _row_products(ext: ExtensionField, urow: Sequence[int], gs: list[Sequence[int]]) -> tuple[int, ...]:
    """sum_c urow[c] * g[c] for each g in gs, with urow over the base field."""
    out = []
    for g in gs:
        acc = 0
        for uc, gc in zip(urow, g):
            if uc and gc:
                acc = ext.add(acc, ext.scalar_mul(uc, gc))
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of a Monte-Carlo run; estimate = successes / trials."""

    trials: int
    successes: int
    seed: int

    @property
    def estimate(self) -> float:
        return self.successes / self.trials


def monte_carlo(
    params: CodeParams,
    k: int,
    trials: int,
    seed: int,
    predicate: Callable[[LinearCode], bool],
) -> TrialResult:
    """Fraction of `trials` random systematic codes satisfying the predicate.

    Trial i draws its code from an independent substream derived from
    (seed, i); the aggregate is order-insensitive counting.
    """
    import numpy as np  # imported here so that the exact computations load without it

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    successes = 0
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        code = random_systematic_code(params, k, rng)
        if predicate(code):
            successes += 1
    return TrialResult(trials=trials, successes=successes, seed=seed)
