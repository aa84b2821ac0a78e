"""Finite fields built as explicit towers F_p < F_q < F_{q^m}.

Elements are plain Python ints: an element of an extension of degree d over a
base field with b elements is encoded as the integer whose base-b digits
(least significant digit first) are the coefficients of its polynomial
representation, constant term first.  The zero element is 0 and the
multiplicative identity is 1 in every field.

The reduction modulus of every extension is chosen deterministically as the
lexicographically smallest monic irreducible polynomial (coefficients compared
constant-term first, as base-b integers), so identical parameters always yield
identical arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from operator import xor
from typing import Iterable, Sequence

__all__ = [
    "PrimeField",
    "ExtensionField",
    "field_make",
    "ext_make",
    "matrix_rank",
    "is_prime",
    "prime_power",
]

# extension fields up to this order build discrete-log tables (exp/log, and
# Zech logarithms in odd characteristic) when they are constructed
_TABLE_CAP = 1 << 16


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in increasing order, by trial division;
    empty for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_SMALL_PRIMES = [p for p in range(2, 256) if all(p % r for r in range(2, min(p, 16)))]
# Strong probable-prime tests to the first 13 prime bases decide primality of
# every n below _MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: whether odd n > a passes the strong test to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: trial division by the primes below 256, then strong
    probable-prime tests to the prime bases 2..41, which decide it below
    _MR_BOUND (about 3.3e24).  Raises ValueError for an n at or above that
    bound that passes every test, since no proof covers it."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return n > 1
    if not all(_strong_probable_prime(n, a) for a in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} passes the strong tests to bases 2..41 but is not below "
                         f"{_MR_BOUND}, where they are proven to decide primality")
    return True


def _iroot(x: int, e: int) -> int:
    """Largest r with r**e <= x, for x >= 1, by integer Newton steps from above."""
    r = 1 << -(-x.bit_length() // e)
    while True:
        s = ((e - 1) * r + x // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError.

    A small prime factor p ends the search: q is a power of p or of no prime.
    Otherwise every prime factor exceeds 2^8, so e < bits(q)/8; the largest e
    with an exact e-th root is the only candidate, and its root must be prime.
    """
    if q >= 2:
        for p in _SMALL_PRIMES:
            if q % p == 0:
                rest, e = q // p, 1
                while rest % p == 0:
                    rest //= p
                    e += 1
                if rest == 1:
                    return p, e
                break
        else:
            for e in range(q.bit_length() // 8, 0, -1):
                r = _iroot(q, e)
                if r**e == q:
                    if is_prime(r):
                        return r, e
                    break
    raise ValueError(f"q={q} is not a prime power")


class PrimeField:
    """The prime field F_p with elements 0..p-1 and arithmetic mod p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p = p
        self.order = p
        self.characteristic = p
        self.degree = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# polynomial arithmetic over an arbitrary field object
#
# Polynomials are lists of field-element ints, constant term first; the zero
# polynomial is [].

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_sub(F, f: Sequence[int], g: Sequence[int]) -> list[int]:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(F.sub(a, b))
    return _poly_trim(out)


def _poly_mul(F, f: Sequence[int], g: Sequence[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g, i):
            if b:
                out[j] = F.add(out[j], F.mul(a, b))
    return _poly_trim(out)


def _poly_divmod(F, f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    lead_inv = F.inv(g[-1])
    quo = [0] * max(0, len(rem) - dg)
    low = g[:-1]  # each step cancels the top coefficient, which is popped
    for shift in reversed(range(len(quo))):
        c = rem.pop()
        if c:
            if lead_inv != 1:  # a monic divisor needs no scaling
                c = F.mul(c, lead_inv)
            quo[shift] = c
            for j, gc in enumerate(low, shift):
                if gc:
                    rem[j] = F.sub(rem[j], F.mul(c, gc))
    return _poly_trim(quo), _poly_trim(rem)


def _poly_mod(F, f: Sequence[int], g: Sequence[int]) -> list[int]:
    return _poly_divmod(F, f, g)[1]


def _poly_gcd(F, f: Sequence[int], g: Sequence[int]) -> list[int]:
    a, b = list(f), list(g)
    while b:
        a, b = b, _poly_mod(F, a, b)
    if a:  # make monic so the result is canonical
        c = F.inv(a[-1])
        a = [F.mul(x, c) for x in a]
    return a


def _poly_powmod(F, f: Sequence[int], e: int, mod: Sequence[int]) -> list[int]:
    result = [1]
    base = _poly_mod(F, f, mod)
    while e:
        if e & 1:
            result = _poly_mod(F, _poly_mul(F, result, base), mod)
        base = _poly_mod(F, _poly_mul(F, base, base), mod)
        e >>= 1
    return result


def _is_irreducible(F, f: Sequence[int]) -> bool:
    """Rabin's test for a monic polynomial f over the field F."""
    d = len(f) - 1
    if d < 1:
        return False
    q = F.order
    # x^(q^d) == x (mod f)
    xq = _poly_powmod(F, [0, 1], q**d, f)
    if _poly_sub(F, xq, _poly_mod(F, [0, 1], f)):
        return False
    for r in _prime_factors(d):
        xe = _poly_powmod(F, [0, 1], q ** (d // r), f)
        g = _poly_gcd(F, _poly_sub(F, xe, [0, 1]), f)
        if len(g) != 1:
            return False
    return True


def _smallest_irreducible(F, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are ordered by their lower-coefficient vector read as a base-q
    integer (constant term least significant); degree 1 yields x.
    """
    q = F.order
    for idx in range(q**degree):
        # digits of idx are base-q ints; they are exactly the F-encodings
        f = _digits(idx, q, degree) + [1]
        if _is_irreducible(F, f):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {degree} over order-{q} field")


def _digits(x: int, base: int, length: int) -> list[int]:
    """The lowest `length` base-`base` digits of x, least significant first."""
    out = []
    for _ in range(length):
        x, r = divmod(x, base)
        out.append(r)
    return out


def _power(mul, x: int, e: int) -> int:
    """x^e for e >= 0 by square-and-multiply with the multiplication mul."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


class ExtensionField:
    """Degree-m extension of a base field, F_{b^m} with b = base.order.

    Elements are ints in [0, order); the base-b digits of an element are its
    coordinates with respect to the polynomial basis {1, a, ..., a^(m-1)},
    where a is a root of the modulus.
    """

    def __init__(self, base, degree: int):
        if degree < 1:
            raise ValueError(f"extension degree must be >= 1, got {degree}")
        self.base = base
        self.degree = degree
        self.order = base.order**degree
        self.characteristic = base.characteristic
        self.modulus = _smallest_irreducible(base, degree)
        # characteristic 2: every level's order is a power of two, so
        # digit-wise addition of the int encodings is plain XOR
        self._xor_add = self.characteristic == 2
        # None above _TABLE_CAP (the raw path); else exp has period order-1 and
        # length 2*(order-1), so a sum of two logs indexes it without reduction;
        # zech[d] = log(1 + g^d), None where 1 + g^d = 0 (odd characteristic)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int | None] | None = None
        if self.order <= _TABLE_CAP:
            self._build_log_tables()

    # -- encoding ----------------------------------------------------------
    def decode(self, x: int) -> list[int]:
        """Coefficient vector of x over the base field, constant term first."""
        return _digits(x, self.base.order, self.degree)

    def encode(self, coeffs: Iterable[int]) -> int:
        b = self.base.order
        x = 0
        for c in reversed(list(coeffs)):
            x = x * b + c
        return x

    # -- arithmetic --------------------------------------------------------
    def add(self, x: int, y: int) -> int:
        if self._xor_add:
            return x ^ y
        if not x or not y:
            return x or y
        if self._exp is None:
            return self._add_raw(x, y)
        # g^a + g^b = g^a (1 + g^(b-a)); a negative index wraps around zech
        lx = self._log[x]
        z = self._zech[self._log[y] - lx]
        return 0 if z is None else self._exp[lx + z]

    def _add_raw(self, x: int, y: int) -> int:
        B = self.base
        return self.encode(B.add(a, b) for a, b in zip(self.decode(x), self.decode(y)))

    def sub(self, x: int, y: int) -> int:
        if self._xor_add:
            return x ^ y
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self._xor_add or not x:
            return x
        if self._exp is None:
            return self._neg_raw(x)
        # -1 = g^((order-1)/2) in odd characteristic
        return self._exp[self._log[x] + (self.order - 1) // 2]

    def _neg_raw(self, x: int) -> int:
        B = self.base
        return self.encode(B.neg(a) for a in self.decode(x))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._exp is None:
            return self._mul_raw(x, y)
        return self._exp[self._log[x] + self._log[y]]

    def _mul_raw(self, x: int, y: int) -> int:
        B = self.base
        return self.encode(_poly_mod(B, _poly_mul(B, self.decode(x), self.decode(y)), self.modulus))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is None:
            return self._inv_raw(x)
        return self._exp[-self._log[x]]  # exp[-l] = exp[2(order-1) - l] = g^(-l)

    def _inv_raw(self, x: int) -> int:
        # extended Euclid in base[t] modulo the modulus
        B = self.base
        a, b = list(self.modulus), _poly_trim(self.decode(x))
        s0, s1 = [], [1]
        while b:
            quo, rem = _poly_divmod(B, a, b)
            a, b = b, rem
            s0, s1 = s1, _poly_sub(B, s0, _poly_mul(B, quo, s1))
        # a is now gcd = nonzero constant (modulus irreducible)
        c = B.inv(a[0])
        s0 = [B.mul(v, c) for v in s0]
        return self.encode(s0 + [0] * (self.degree - len(s0)))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.inv(x), -e
        return _power(self.mul, x, e)

    def scalar_mul(self, c: int, x: int) -> int:
        """Action of a base-field scalar c on x (coefficient-wise).

        A base scalar is encoded as itself, so on the table path the action
        is the product c*x.
        """
        if self._exp is None:
            B = self.base
            return self.encode(B.mul(c, a) for a in self.decode(x))
        return self._exp[self._log[c] + self._log[x]] if c and x else 0

    def elements(self) -> range:
        return range(self.order)

    def _build_log_tables(self):
        """Exp/log tables over a deterministic primitive element (the
        smallest encoding that generates the multiplicative group), and
        Zech logarithms in odd characteristic."""
        n = self.order
        group = n - 1
        factors = _prime_factors(group) if group > 1 else []
        gen = None
        for cand in range(2, n):
            if all(_power(self._mul_raw, cand, group // r) != 1 for r in factors):
                gen = cand
                break
        if gen is None:  # order 2: the group is trivial
            gen = 1
        # x -> gen*x is F_b-linear: with x = lo + hi*b^h, gen*x is the sum
        # of the two halves' products, each looked up in a table of b^h or
        # b^(degree-h) entries
        b = self.base.order
        split = b ** (self.degree // 2)
        gen_lo = [self._mul_raw(gen, v) for v in range(split)]
        gen_hi = [self._mul_raw(gen, v * split) for v in range(n // split)]
        add = xor if self._xor_add else self._add_raw
        exp = [1] * (2 * group)
        val = 1
        for i in range(1, group):
            hi, lo = divmod(val, split)
            val = add(gen_lo[lo], gen_hi[hi])
            exp[i] = val
        exp[group:] = exp[:group]
        log = [0] * n
        for i in range(group):
            log[exp[i]] = i
        zech = None
        if not self._xor_add:
            # 1 + g^d differs from g^d only in the constant coordinate
            B = self.base
            zech = [None] * group
            for d in range(group):
                c = exp[d] % b
                v = exp[d] - c + B.add(c, 1)
                if v:
                    zech[d] = log[v]
        self._exp, self._log, self._zech = exp, log, zech

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.base, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"ExtensionField(order={self.order}, degree={self.degree}, base={self.base!r})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int):
    """F_{p^e} with the smallest irreducible modulus; p must be prime.

    e = 1 returns the prime field itself (modulus x).
    """
    if e == 1:
        return PrimeField(p)
    return ExtensionField(PrimeField(p), e)


@lru_cache(maxsize=None)
def ext_make(base, m: int) -> ExtensionField:
    """The degree-m extension of a constructed field, F_{q^m} over F_q."""
    return ExtensionField(base, m)


def matrix_rank(F, rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix with entries in the field F, by Gaussian elimination."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pinv = F.inv(mat[row][col])
        for r in range(row + 1, nrows):
            c = mat[r][col]
            if c == 0:
                continue
            factor = F.mul(c, pinv)
            mr, mp = mat[r], mat[row]
            for j in range(col, ncols):
                if mp[j]:
                    mr[j] = F.sub(mr[j], F.mul(factor, mp[j]))
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
