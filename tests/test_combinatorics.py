import itertools
import math
from fractions import Fraction

import pytest

from sumrank.combinatorics import (
    binomial,
    gamma_q,
    log2_int,
    log_gamma_q,
    logq_int,
    nm_count,
    nm_lower_bound_logq,
    partition_count,
    partitions_iter,
    power_coefficients,
    q_binomial,
)
from sumrank.fields import field_make, matrix_rank, prime_power


def test_binomial_values_and_edges():
    assert binomial(5, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(3 + 2 - 1, 2 - 1) == 4  # stars and bars, t=3 ell=2
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-2, 1) == 0


def _lincomb(F, coeffs, rows, j):
    acc = 0
    for c, row in zip(coeffs, rows):
        acc = F.add(acc, F.mul(c, row[j]))
    return acc


def _subspace_count_bruteforce(n: int, k: int, q: int) -> int:
    """Count k-dim subspaces of F_q^n by collecting row spaces of all k x n
    matrices (q^(kn) small only)."""
    F = field_make(*prime_power(q))
    spaces = set()
    vectors = list(itertools.product(range(q), repeat=n))
    for rows in itertools.product(vectors, repeat=k):
        if matrix_rank(F, rows) != k:
            continue
        span = frozenset(
            tuple(_lincomb(F, coeffs, rows, j) for j in range(n))
            for coeffs in itertools.product(range(q), repeat=k)
        )
        spaces.add(span)
    return len(spaces)


def test_q_binomial_small_cases():
    assert q_binomial(2, 1, 2) == 3
    assert q_binomial(4, 0, 3) == 1
    assert q_binomial(4, 4, 3) == 1
    assert q_binomial(4, 5, 3) == 0
    assert q_binomial(4, -1, 3) == 0
    for q in (1, 0):
        with pytest.raises(ValueError):
            q_binomial(4, 2, q)


@pytest.mark.parametrize("n,k,q", [(2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3), (3, 2, 3)])
def test_q_binomial_counts_subspaces(n, k, q):
    assert q_binomial(n, k, q) == _subspace_count_bruteforce(n, k, q)


def test_q_binomial_lower_bound_and_symmetry():
    for q in (2, 3):
        for n in range(9):
            for k in range(n + 1):
                v = q_binomial(n, k, q)
                assert v >= q ** ((n - k) * k)
                assert v == q_binomial(n, n - k, q)


def _rank_histogram(m: int, n: int, q: int):
    F = field_make(*prime_power(q))
    hist = {}
    for entries in itertools.product(range(q), repeat=m * n):
        mat = [entries[i * n : (i + 1) * n] for i in range(m)]
        r = matrix_rank(F, mat)
        hist[r] = hist.get(r, 0) + 1
    return hist


@pytest.mark.parametrize("m,n,q", [(1, 1, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_nm_count_matches_enumeration(m, n, q):
    hist = _rank_histogram(m, n, q)
    for t in range(min(m, n) + 1):
        assert nm_count(n, m, t, q) == hist.get(t, 0)


def test_nm_count_edges_and_partition_of_space():
    assert nm_count(3, 5, 0, 2) == 1
    assert nm_count(2, 2, 1, 2) == 9
    assert nm_count(2, 2, 3, 2) == 0
    assert nm_count(2, 2, -1, 2) == 0
    for q in (2, 3):
        for n in range(1, 5):
            for m in range(1, 5):
                assert sum(nm_count(n, m, t, q) for t in range(min(n, m) + 1)) == q ** (m * n)


def test_nm_lower_bound():
    # t = 0: bound is -log_q(gamma) < 0 while the exact count is 1
    assert nm_lower_bound_logq(3, 3, 0, 2) == pytest.approx(-log_gamma_q(2))
    assert nm_lower_bound_logq(3, 3, 0, 2) < 0
    b = nm_lower_bound_logq(2, 2, 1, 2)
    assert b == pytest.approx(3 - math.log2(gamma_q(2)), abs=1e-12)
    assert b == pytest.approx(1.208, abs=2e-3)
    assert math.log2(9) >= b
    for q in (2, 3, 4):
        for n in range(1, 7):
            for m in range(1, 7):
                for t in range(min(n, m) + 1):
                    exact = logq_int(nm_count(n, m, t, q), q)
                    assert nm_lower_bound_logq(n, m, t, q) <= exact + 1e-9
    with pytest.raises(ValueError):
        nm_lower_bound_logq(2, 2, 3, 2)


def _compositions_bruteforce(t, ell, mu):
    return [
        parts
        for parts in itertools.product(range(mu + 1), repeat=ell)
        if sum(parts) == t
    ]


def test_partition_count_small_cases():
    assert partition_count(0, 3, 2) == 1
    assert partition_count(2, 2, 1) == 1
    assert partition_count(2, 2, 2) == 3
    assert partition_count(7, 3, 2) == 0
    with pytest.raises(ValueError):
        partition_count(-1, 2, 2)


def test_partition_count_matches_enumeration_and_upper_bound():
    for ell in range(1, 6):
        for mu in range(6):
            for t in range(11):
                expected = len(_compositions_bruteforce(t, ell, mu))
                assert partition_count(t, ell, mu) == expected
                assert partition_count(t, ell, mu) <= binomial(t + ell - 1, ell - 1)


def test_power_of_all_ones_counts_bounded_decompositions():
    # [z^t] (1 + z + ... + z^mu)^ell against inclusion-exclusion
    for ell in range(1, 7):
        for mu in range(0, 5):
            top = ell * mu + 2
            coeffs = power_coefficients([1] * (mu + 1), ell, top)
            assert coeffs == [partition_count(t, ell, mu) for t in range(top + 1)]


def test_power_coefficients_small_cases_and_validation():
    assert power_coefficients([1, 2, 3], 2, 5) == [1, 4, 10, 12, 9, 0]  # (1+2z+3z^2)^2
    assert power_coefficients([1, -1], 3, 3) == [1, -3, 3, -1]
    assert power_coefficients([1, 5], 0, 2) == [1, 0, 0]
    for bad in ([], [2, 1], [0, 1]):
        with pytest.raises(ValueError):
            power_coefficients(bad, 2, 3)
    with pytest.raises(ValueError):
        power_coefficients([1, 1], -1, 3)
    with pytest.raises(ValueError):
        power_coefficients([1, 1], 2, -1)


def test_partitions_iter_order_and_counts():
    assert list(partitions_iter(1, 2, 1)) == [(0, 1), (1, 0)]
    assert list(partitions_iter(0, 3, 2)) == [(0, 0, 0)]
    for bad in ((-1, 2, 1), (1, 0, 1), (1, 2, -1)):  # t < 0, ell < 1, mu < 0
        with pytest.raises(ValueError):
            next(partitions_iter(*bad))
    for ell in range(1, 5):
        for mu in range(5):
            for t in range(9):
                seq = list(partitions_iter(t, ell, mu))
                assert seq == sorted(set(seq))  # unique, lexicographic
                assert len(seq) == partition_count(t, ell, mu)
                assert seq == _compositions_bruteforce(t, ell, mu)


def test_gamma_q_reference_values():
    assert round(gamma_q(2), 3) == 3.463
    assert round(gamma_q(3), 3) == 1.785
    assert round(gamma_q(4), 3) == 1.452


def test_gamma_q_monotone_to_one():
    prev = math.inf
    for q in range(2, 12):
        g = gamma_q(q)
        assert 1 < g < prev
        prev = g
    assert gamma_q(2**20) < 1.000002


GAMMA_Q_HEX = {
    2: "0x1.bb3b47fe72707p+1",
    3: "0x1.c90a3aca07649p+0",
    4: "0x1.73cd72c48c28cp+0",
    5: "0x1.50b1d5e923a16p+0",
    16: "0x1.12357c080dd3ep+0",
    2**16: "0x1.0001000200030p+0",
}


def test_gamma_q_exact_bits():
    for q, want in GAMMA_Q_HEX.items():
        g = gamma_q(q)
        assert g.hex() == want, q
        # exact product up to q^-terms < 2^-80, so the omitted tail is far
        # below the float product's own rounding: at most 54 rounded factors,
        # 53 products and one division, (2*54 + 1) * 2^-53 < 2^-46 relative
        # (it is 7 ulp at q = 3)
        terms = math.ceil(80 / math.log2(q)) + 1
        exact = 1 / math.prod(1 - Fraction(1, q**i) for i in range(1, terms + 1))
        assert abs(Fraction(g) - exact) < exact * Fraction(1, 2**46), q
    with pytest.raises(ValueError):
        gamma_q(1)


def test_log2_int_large():
    x = 3**5000
    assert log2_int(x) == pytest.approx(5000 * math.log2(3), rel=1e-12)
    assert logq_int(2**4096, 2) == pytest.approx(4096.0, rel=1e-12)
    with pytest.raises(ValueError):
        log2_int(0)
