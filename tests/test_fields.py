import itertools
import random

import pytest

from sumrank.fields import (
    ExtensionField,
    _prime_factors,
    ext_make,
    field_make,
    is_prime,
    matrix_rank,
    prime_power,
)

from conftest import independent_rref


def _check_field_axioms(F, exhaustive_triples: bool = True, seed: int = 0):
    elems = list(F.elements())
    n = len(elems)
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    if exhaustive_triples:
        triples = itertools.product(elems, repeat=3)
    else:
        rng = random.Random(seed)
        triples = (tuple(rng.choice(elems) for _ in range(3)) for _ in range(20000))
    for a, b, c in triples:
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_prime_checks():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    for n in (0, 1, -3, 2**16, 3**10, 12):
        assert not is_prime(n), n
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(65537) == (65537, 1)
    assert prime_power(2**16) == (2, 16)
    assert prime_power(3**10) == (3, 10)
    for q in (0, 1, -3, 12):
        with pytest.raises(ValueError):
            prime_power(q)


def _trial_division_prime_power(q):
    """(p, e) with q = p^e, p prime, by trial division; None if there is none."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        return None
    p, e = factors[0], 1
    while p**e < q:
        e += 1
    return p, e


def _prime_power_or_none(q):
    try:
        return prime_power(q)
    except ValueError:
        return None


def test_prime_power_matches_trial_division():
    for q in range(-2, 10**5 + 1):
        expected = _trial_division_prime_power(q)
        assert _prime_power_or_none(q) == expected, q
        assert is_prime(q) == (expected == (q, 1)), q
    rng = random.Random(2017)
    for _ in range(50):
        q = rng.randint(10**5, 10**12)
        assert _prime_power_or_none(q) == _trial_division_prime_power(q), q
    # exact powers, where only the root is trial-divided
    for e in (2, 3, 4):
        for _ in range(40):
            x = rng.randint(2, int(10 ** (12 / e)))
            root = _trial_division_prime_power(x)
            assert _prime_power_or_none(x**e) == (root and (root[0], root[1] * e)), (x, e)


def test_prime_power_of_large_primes():
    # strong pseudoprimes to bases 2..31 and to bases 2..37 (Sorenson and Webster)
    for q in (3825123056546413051, 318665857834031151167461):
        assert not is_prime(q)
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)
    mersenne = 2**61 - 1
    for e in (1, 2, 3):
        assert prime_power(mersenne**e) == (mersenne, e)
    assert prime_power(4611686018427387847) == (4611686018427387847, 1)
    # above 3.3e24 the bases 2..41 decide nothing; a prime there is refused
    with pytest.raises(ValueError, match="proven to decide"):
        prime_power(2**89 - 1)
    with pytest.raises(ValueError, match="not a prime power"):
        prime_power((2**89 - 1) * 3)


def test_f2_arithmetic():
    F = field_make(2, 1)
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1
    for field in (F, ext_make(F, 2)):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_field_make_rejects_non_prime():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)


def test_f4_modulus_is_smallest_irreducible():
    F4 = field_make(2, 2)
    # y^2 = y + 1 under the modulus y^2 + y + 1
    assert F4.modulus == (1, 1, 1)
    assert F4.mul(2, 2) == 3
    # every smaller monic quadratic over F_2 has a root, hence is reducible
    F2 = field_make(2, 1)
    for c0, c1 in [(0, 0), (1, 0), (0, 1)]:
        assert any((x * x + c1 * x + c0) % 2 == 0 for x in range(2))
    _check_field_axioms(F4)


def test_f256_is_the_aes_field():
    # x^8 + x^4 + x^3 + x + 1 is the AES modulus, and a byte's bit i is its
    # coefficient of x^i in both encodings, so published AES values apply:
    # the two products are worked examples of FIPS-197 (section 4.2) and
    # {53}^-1 = {ca} is the usual example of an inverse in that field
    F = ext_make(field_make(2, 1), 8)
    assert F.modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    for mul, inv in ((F.mul, F.inv), (F._mul_raw, F._inv_raw)):
        assert mul(0x57, 0x83) == 0xC1
        assert mul(0x57, 0x13) == 0xFE
        assert inv(0x53) == 0xCA


@pytest.mark.parametrize(
    "p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1), (7, 1)]
)
def test_axioms_small_prime_extensions(p, e):
    _check_field_axioms(field_make(p, e), exhaustive_triples=p**e <= 81)


@pytest.mark.parametrize(
    "base_pe,m",
    [((2, 1), 2), ((2, 1), 4), ((2, 2), 2), ((3, 1), 2), ((2, 1), 8), ((2, 2), 4)],
)
def test_axioms_extension_towers(base_pe, m):
    base = field_make(*base_pe)
    ext = ext_make(base, m)
    _check_field_axioms(ext, exhaustive_triples=ext.order <= 81)


def test_ext_degree_one_is_base_copy():
    F2 = field_make(2, 1)
    E = ext_make(F2, 1)
    assert E.order == 2
    assert E.decode(1) == [1]
    assert E.mul(1, 1) == 1


def test_ext_f2_2_nonzero_cyclic_of_order_3():
    E = ext_make(field_make(2, 1), 2)
    orders = []
    for x in range(1, 4):
        k = 1
        y = x
        while y != 1:
            y = E.mul(y, x)
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 3, 3]


def test_ext_f4_2_lagrange():
    E = ext_make(field_make(2, 2), 2)
    assert E.order == 16
    for x in range(1, 16):
        assert E.pow(x, 15) == 1


def test_expand_conventions():
    E = ext_make(field_make(2, 1), 3)
    assert E.decode(0) == [0, 0, 0]
    assert E.decode(1) == [1, 0, 0]
    # scalar embedding sits in coordinate 0
    F4 = field_make(2, 2)
    E4 = ext_make(F4, 2)
    for c in range(4):
        assert E4.decode(c)[0] == c


@pytest.mark.parametrize("base_pe,m", [((2, 1), 2), ((2, 2), 2), ((3, 1), 2)])
def test_expand_is_linear(base_pe, m):
    base = field_make(*base_pe)
    E = ext_make(base, m)
    for a in base.elements():
        for b in base.elements():
            for x in E.elements():
                for y in E.elements():
                    lhs = E.decode(E.add(E.scalar_mul(a, x), E.scalar_mul(b, y)))
                    rhs = [
                        base.add(base.mul(a, u), base.mul(b, v))
                        for u, v in zip(E.decode(x), E.decode(y))
                    ]
                    assert lhs == rhs


def test_matrix_rank_basics():
    F2 = field_make(2, 1)
    assert matrix_rank(F2, [[0, 0], [0, 0]]) == 0
    assert matrix_rank(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert matrix_rank(F2, []) == 0


def test_rank_one_2x2_count_over_f2():
    F2 = field_make(2, 1)
    count = 0
    for bits in itertools.product(range(2), repeat=4):
        m = [[bits[0], bits[1]], [bits[2], bits[3]]]
        if matrix_rank(F2, m) == 1:
            count += 1
    assert count == 9


def test_large_order_fields_use_raw_ops_consistently():
    # published lexicographically-first degree-13 binary irreducible; F_{2^13}
    # is below the lookup-table cap
    E13 = ext_make(field_make(2, 1), 13)
    assert E13.modulus == (1, 1, 0, 1, 1) + (0,) * 8 + (1,)
    assert E13.mul(1234, E13.inv(1234)) == 1 and E13._exp is not None
    # fields up to the cap build their tables on construction
    assert ExtensionField(field_make(2, 1), 16)._exp is not None
    # orders above the cap take the polynomial arithmetic path
    E17 = ext_make(field_make(2, 1), 17)
    assert E17.order == 131072
    # x^17 + x^3 + 1, the lexicographically-first degree-17 binary irreducible
    assert E17.modulus == (1, 0, 0, 1) + (0,) * 13 + (1,)
    for x in (1, 2, 1234, 131071):
        assert E17.mul(x, E17.inv(x)) == 1
        assert E17.pow(x, E17.order - 1) == 1
    x, y = 1234, 777
    assert E17.mul(x, y) == E17.mul(y, x)
    assert E17.add(x, y) == x ^ y  # characteristic 2 adds digit-wise
    assert E17._exp is None
    # odd characteristic above the cap: add, sub and neg decode and encode,
    # so they must agree with coordinate-wise arithmetic mod 3
    E311 = ext_make(field_make(3, 1), 11)
    assert E311.order == 177147
    rng = random.Random(311)
    for _ in range(40):
        x, y, z = (rng.randrange(E311.order) for _ in range(3))
        dx, dy = E311.decode(x), E311.decode(y)
        assert E311.add(x, y) == E311.encode((a + b) % 3 for a, b in zip(dx, dy))
        assert E311.sub(x, y) == E311.encode((a - b) % 3 for a, b in zip(dx, dy))
        assert E311.neg(x) == E311.encode(-a % 3 for a in dx)
        assert E311.mul(x, E311.add(y, z)) == E311.add(E311.mul(x, y), E311.mul(x, z))
        if x:
            assert E311.mul(x, E311.inv(x)) == 1
    assert E311._exp is None
    tower = ext_make(field_make(2, 4), 8)  # order 2^32
    v = tower.encode([3, 7, 0, 1, 15, 2, 9, 4])
    assert tower.mul(v, tower.inv(v)) == 1
    assert tower.sub(v, v) == 0
    assert tower.decode(v)[1] == 7


def test_odd_characteristic_add_path():
    E = ext_make(field_make(3, 1), 2)
    # (1 + 2a) + (2 + 2a) = 0 + a
    assert E.add(E.encode([1, 2]), E.encode([2, 2])) == E.encode([0, 1])
    assert E.neg(E.encode([1, 2])) == E.encode([2, 1])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_rank_transpose_and_rref_agreement(p, e):
    F = field_make(p, e)
    rng = random.Random(1234)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(F.order) for _ in range(cols)] for _ in range(rows)]
        r = matrix_rank(F, mat)
        transposed = [[mat[i][j] for i in range(rows)] for j in range(cols)]
        assert r == matrix_rank(F, transposed)
        _, pivots = independent_rref(F, mat)
        assert r == len(pivots)
        assert r <= min(rows, cols)
