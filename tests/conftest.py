"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's computation
paths: the weight histogram enumerates actual vectors, the reduced-row-echelon
routine is coded from scratch, and the Hamming ball is the textbook binomial
sum.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from sumrank.codes import ambient_field, block_rank_profile
from sumrank.volumes import CodeParams, ball_enclosure, volume_table


@lru_cache(maxsize=None)
def weight_histogram(params: CodeParams) -> tuple[int, ...]:
    """Exhaustive sum-rank weight distribution of the full space F_{q^m}^n.

    Enumerates all q^(mn) words as ell-tuples of blocks; per-block weights are
    computed once per block value (a rank computation), then every word is
    visited.  Keep q^(mn) <= 2^16 or so.
    """
    ext = ambient_field(params)
    eta, ell = params.eta, params.ell
    block_weights = [
        block_rank_profile(ext, block, 1, eta)[0]
        for block in itertools.product(range(ext.order), repeat=eta)
    ]
    hist = [0] * (ell * params.mu + 1)
    for combo in itertools.product(block_weights, repeat=ell):
        hist[sum(combo)] += 1
    return tuple(hist)


def independent_rref(field, rows):
    """Reduced row echelon form coded independently of the library.

    Returns (rref_rows, pivot_columns).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def hamming_ball(n: int, alphabet: int, t: int) -> int:
    """Number of words within Hamming distance t in an n-length space."""
    import math

    return sum(math.comb(n, i) * (alphabet - 1) ** i for i in range(t + 1))


def systematic_census(params: CodeParams, k: int):
    """Enumerate every systematic code [I_k | X] and classify it.

    Returns (msrd_count, total); also asserts on every code that the echelon
    rank criterion agrees with the brute-force minimum distance hitting
    n - k + 1.  Keep q^(m k (n-k)) small.
    """
    from sumrank.codes import LinearCode, is_msrd, min_distance_bruteforce

    ext = ambient_field(params)
    n = params.n
    msrd = total = 0
    for xs in itertools.product(range(ext.order), repeat=k * (n - k)):
        rows = []
        for i in range(k):
            row = [0] * k
            row[i] = 1
            row += list(xs[i * (n - k) : (i + 1) * (n - k)])
            rows.append(tuple(row))
        code = LinearCode(params=params, k=k, G=tuple(rows))
        ok = is_msrd(code)
        dist = min_distance_bruteforce(code)
        assert ok == (dist == n - k + 1), (params, k, xs, ok, dist)
        msrd += ok
        total += 1
    return msrd, total


def assert_encloses(params: CodeParams):
    """Every exact ball and every power Q^e, Q = q^m, e = 0..n+1, lies
    within the bounds of ball_enclosure."""
    lo, hi, lo_Q, hi_Q = ball_enclosure(params)
    table, Q = volume_table(params), params.q**params.m
    assert len(lo) == len(hi) == params.max_weight + 1
    assert [t for t in range(params.max_weight + 1) if not lo[t] <= table.ball(t) <= hi[t]] == []
    assert len(lo_Q) == len(hi_Q) == params.n + 2
    assert [e for e in range(params.n + 2) if not lo_Q[e] <= Q**e <= hi_Q[e]] == []
