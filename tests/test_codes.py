import itertools
import math

import numpy as np
import pytest

from sumrank.codes import (
    LinearCode,
    ResourceLimitError,
    ambient_field,
    block_rank_profile,
    echelon_blocks_iter,
    echelon_count,
    is_msrd,
    min_distance_bruteforce,
    monte_carlo,
    random_systematic_code,
    sum_rank_weight,
)
from sumrank.combinatorics import binomial, gamma_q, partitions_iter, q_binomial
from sumrank.fields import matrix_rank
from sumrank.genericity import msrd_prob_lb_A
from sumrank.volumes import CodeParams

P2222 = CodeParams(q=2, m=2, eta=2, ell=2)


def _rng(seed, trial=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def test_sum_rank_weight_basics():
    ext = ambient_field(P2222)
    assert sum_rank_weight(ext, [0, 0, 0, 0], 2, 2) == 0
    with pytest.raises(ValueError):
        sum_rank_weight(ext, [0, 0, 0], 2, 2)
    # a block repeating one non-subfield element has rank 1
    p = CodeParams(q=2, m=2, eta=2, ell=1)
    alpha = 2  # not in the prime field
    assert sum_rank_weight(ambient_field(p), [alpha, alpha], 1, 2) == 1
    assert block_rank_profile(ambient_field(p), [alpha, alpha], 1, 2) == (1,)


def test_sum_rank_weight_hamming_cases():
    # eta = 1: the weight is the Hamming weight
    p = CodeParams(q=2, m=2, eta=1, ell=4)
    ext = ambient_field(p)
    for vec in itertools.product(range(ext.order), repeat=4):
        assert sum_rank_weight(ext, vec, 4, 1) == sum(v != 0 for v in vec)


def test_sum_rank_weight_at_most_hamming():
    p = CodeParams(q=3, m=2, eta=3, ell=2)
    ext = ambient_field(p)
    rng = _rng(11)
    for _ in range(200):
        vec = [int(v) for v in rng.integers(0, ext.order, size=p.n)]
        w = sum_rank_weight(ext, vec, p.ell, p.eta)
        assert w <= sum(v != 0 for v in vec)
        assert 0 <= w <= p.ell * p.mu


def test_random_systematic_code_shape_and_determinism():
    p = CodeParams(q=2, m=3, eta=2, ell=3)
    code1 = random_systematic_code(p, 5, _rng(42))
    code2 = random_systematic_code(p, 5, _rng(42))
    assert code1 == code2
    assert len(code1.G) == 5
    for i, row in enumerate(code1.G):
        assert len(row) == p.n
        assert all(row[j] == (1 if j == i else 0) for j in range(5))
    assert random_systematic_code(p, 5, _rng(43)) != code1
    with pytest.raises(ValueError):
        random_systematic_code(p, p.n, _rng(0))


def test_random_entries_are_uniform():
    # q^m = 4: each element should show up in ~1/4 of 10^4 draws (5 sigma)
    p = CodeParams(q=2, m=2, eta=1, ell=2)
    rng = _rng(7)
    counts = [0, 0, 0, 0]
    draws = 10_000
    for _ in range(draws):
        code = random_systematic_code(p, 1, rng)
        counts[code.G[0][1]] += 1
    sigma = math.sqrt(0.25 * 0.75 / draws)
    for c in counts:
        assert abs(c / draws - 0.25) <= 5 * sigma


def test_min_distance_simple_codes():
    # identity generator: distance 1
    p = CodeParams(q=2, m=2, eta=1, ell=3)
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert min_distance_bruteforce(LinearCode(params=p, k=3, G=eye)) == 1
    # k=1, [1 | x] with x != 0 over two length-1 blocks: every codeword
    # has both blocks nonzero
    p2 = CodeParams(q=2, m=2, eta=1, ell=2)
    for x in range(1, 4):
        code = LinearCode(params=p2, k=1, G=((1, x),))
        assert min_distance_bruteforce(code) == 2
    with pytest.raises(ResourceLimitError):
        min_distance_bruteforce(LinearCode(params=p2, k=1, G=((1, 1),)), cap=3)


def test_echelon_iter_frozen_count():
    # eta=2, ell=2, t=2 over F_2: decompositions (2,0),(1,1),(0,2)
    # give 1 + 3*3 + 1 = 11
    mats = list(echelon_blocks_iter(P2222, 2))
    assert len(mats) == 11
    assert echelon_count(P2222, 2) == 11
    assert len(mats) == len(set(mats))


def test_echelon_iter_t_zero():
    mats = list(echelon_blocks_iter(P2222, 0))
    assert len(mats) == 1
    assert mats[0] == ((), ())


def _is_rref_full_rank(rows, eta, q):
    r = len(rows)
    pivots = []
    for row in rows:
        nz = [i for i, v in enumerate(row) if v != 0]
        if not nz:
            return False
        p = nz[0]
        if row[p] != 1:
            return False
        pivots.append(p)
    if pivots != sorted(set(pivots)):
        return False
    for p, owner in zip(pivots, range(r)):
        for other in range(r):
            if other != owner and rows[other][p] != 0:
                return False
    return True


def test_echelon_iter_validity_and_counts():
    for q in (2, 3):
        for eta in (1, 2, 3):
            for ell in (1, 2, 3):
                params = CodeParams(q=q, m=2, eta=eta, ell=ell)
                for t in range(min(ell * eta, 4) + 1):
                    mats = list(echelon_blocks_iter(params, t))
                    expected = sum(
                        math.prod(q_binomial(eta, r, q) for r in parts)
                        for parts in partitions_iter(t, ell, min(eta, t))
                    )
                    assert len(mats) == expected == echelon_count(params, t)
                    for blocks in mats:
                        assert len(blocks) == ell
                        assert sum(len(block) for block in blocks) == t
                        for block in blocks:
                            if block:
                                assert _is_rref_full_rank(block, eta, q)
                    assert len(set(mats)) == len(mats)
                    if t >= 1:
                        lemma_ub = (
                            binomial(t + ell - 1, ell - 1)
                            * float(q) ** (t * (eta - t / ell))
                            * gamma_q(q) ** ell
                        )
                        assert len(mats) <= lemma_ub


def test_is_msrd_single_row_criterion():
    # k=1, eta=1, ell=n: MSRD iff every coordinate is nonzero
    p = CodeParams(q=2, m=2, eta=1, ell=3)
    for x in range(4):
        for y in range(4):
            code = LinearCode(params=p, k=1, G=((1, x, y),))
            assert is_msrd(code) == (x != 0 and y != 0)


def test_is_msrd_fixed_seeds():
    params = CodeParams(q=2, m=3, eta=2, ell=2)
    non_msrd = random_systematic_code(params, 2, _rng(0))
    msrd = random_systematic_code(params, 2, _rng(4))
    assert not is_msrd(non_msrd)
    assert is_msrd(msrd)
    assert min_distance_bruteforce(msrd) == params.n - 2 + 1
    assert min_distance_bruteforce(non_msrd) < params.n - 2 + 1
    # a square all-identity X is not automatically MSRD
    eye_x = LinearCode(params=params, k=2, G=((1, 0, 1, 0), (0, 1, 0, 1)))
    assert not is_msrd(eye_x)


def _random_full_rank_block_matrix(params, t, rng):
    """A random member of the unrestricted full-rank block-matrix family."""
    from sumrank.fields import field_make, prime_power

    F = field_make(*prime_power(params.q))
    parts_list = list(partitions_iter(t, params.ell, min(params.eta, t)))
    parts = parts_list[rng.integers(0, len(parts_list))]
    rows = []
    for i, r in enumerate(parts):
        while True:
            cand = [[int(v) for v in rng.integers(0, params.q, size=params.eta)] for _ in range(r)]
            if matrix_rank(F, cand) == r:
                break
        for row in cand:
            full = [0] * params.n
            full[i * params.eta : (i + 1) * params.eta] = row
            rows.append(full)
    return rows


def test_msrd_criterion_extends_to_random_full_rank_matrices():
    # echelon criterion true -> random full-rank block matrices of total
    # rank k are also nonsingular against G
    params = CodeParams(q=2, m=3, eta=2, ell=2)
    code = random_systematic_code(params, 2, _rng(4))
    assert is_msrd(code)
    ext = code.ext
    rng = _rng(99)
    for _ in range(100):
        a = _random_full_rank_block_matrix(params, 2, rng)
        prod = [
            [
                _scalar_row_dot(ext, arow, grow)
                for grow in code.G
            ]
            for arow in a
        ]
        assert matrix_rank(ext, prod) == 2


def _scalar_row_dot(ext, arow, grow):
    acc = 0
    for c, g in zip(arow, grow):
        if c and g:
            acc = ext.add(acc, ext.scalar_mul(c, g))
    return acc


def _lrs_code(params, k):
    """Linearized Reed-Solomon code (Martinez-Penas, J. Algebra 504, 2018).

    Row j, block i, column c holds sigma^j(beta_c) * N_j(a_i), where sigma is
    the Frobenius x -> x^q, N_j(a) = a^((q^j - 1)/(q - 1)), the evaluation
    points a_i = gamma^i (gamma primitive) have pairwise distinct norms, and
    beta_c = alpha^c, encoded q^c, runs over the polynomial basis.  The code
    is MSRD when ell <= q - 1 and eta <= m.
    """
    q, ext = params.q, ambient_field(params)
    Q = ext.order
    gamma = next(x for x in range(2, Q) if len({ext.pow(x, e) for e in range(Q - 1)}) == Q - 1)
    points = [ext.pow(gamma, i) for i in range(params.ell)]
    assert len({ext.pow(a, (Q - 1) // (q - 1)) for a in points}) == params.ell  # distinct norms
    G = tuple(
        tuple(ext.mul(ext.pow(q**c, q**j), ext.pow(a, (q**j - 1) // (q - 1)))
              for a in points for c in range(params.eta))
        for j in range(k)
    )
    return LinearCode(params=params, k=k, G=G)


@pytest.mark.parametrize("q,m,eta,ell", [(3, 2, 2, 2), (4, 2, 2, 3), (3, 3, 3, 2), (4, 2, 1, 3)])
def test_linearized_reed_solomon_codes_are_msrd(q, m, eta, ell):
    # known answers: every LRS code is MSRD; the brute-force distance is
    # checked where at most 4,096 messages are enumerated
    params = CodeParams(q=q, m=m, eta=eta, ell=ell)
    for k in range(1, params.n):
        code = _lrs_code(params, k)
        assert is_msrd(code), k
        if (q**m) ** k <= 4096:
            assert min_distance_bruteforce(code) == params.n - k + 1, k


def test_is_msrd_validation_and_cap():
    # n - k + 1 beyond the largest weight is rejected
    p = CodeParams(q=2, m=1, eta=2, ell=2)
    code = random_systematic_code(p, 1, _rng(0))
    with pytest.raises(ValueError):
        is_msrd(code)
    params = CodeParams(q=2, m=3, eta=2, ell=2)
    big = random_systematic_code(params, 2, _rng(1))
    with pytest.raises(ResourceLimitError):
        is_msrd(big, cap=3)


def test_monte_carlo_contracts():
    res = monte_carlo(P2222, 1, 25, 3, lambda code: True)
    assert res.successes == res.trials == 25
    assert res.estimate == 1.0
    assert monte_carlo(P2222, 1, 25, 3, lambda c: True) == res
    with pytest.raises(ValueError):
        monte_carlo(P2222, 1, 0, 3, lambda c: True)
    for seed in (-1, 2**64):  # seeds are 64-bit
        with pytest.raises(ValueError):
            monte_carlo(P2222, 1, 25, seed, lambda c: True)
    assert monte_carlo(P2222, 1, 1, 2**64 - 1, lambda c: True).seed == 2**64 - 1


def test_monte_carlo_msrd_frequency_vs_bound():
    params = CodeParams(q=2, m=10, eta=2, ell=2)
    lb = msrd_prob_lb_A(2, 10, 2, 2, 2).lower
    assert lb >= 0.9
    res = monte_carlo(params, 2, 200, 2024, is_msrd)
    assert res.estimate >= lb - 3 * math.sqrt(0.25 / 200)
