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
from typing import Iterable, Sequence

__all__ = [
    "PrimeField",
    "ExtensionField",
    "field_make",
    "ext_make",
    "expand",
    "matrix_rank",
    "is_prime",
    "prime_power",
]

# discrete-log multiplication tables are built lazily for extension fields
# up to this order
_TABLE_CAP = 4096


def is_prime(n: int) -> bool:
    """Primality by trial division; intended for field characteristics."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    p = q
    d = 2
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 1
    e = 0
    r = q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"q={q} is not a prime power")
    return p, e


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

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

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
        for j, b in enumerate(g):
            if b:
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return _poly_trim(out)


def _poly_divmod(F, f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    lead_inv = F.inv(g[-1])
    quo = [0] * max(0, len(rem) - dg)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        c = F.mul(rem[-1], lead_inv)
        quo[shift] = c
        for j, gc in enumerate(g):
            rem[shift + j] = F.sub(rem[shift + j], F.mul(c, gc))
        _poly_trim(rem)
    return _poly_trim(quo), rem


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


def _prime_factors(n: int) -> list[int]:
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
        f = _digits_to_coeffs(idx, q, degree) + [1]
        if _is_irreducible(F, f):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {degree} over order-{q} field")


def _digits_to_coeffs(idx: int, base: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        idx, r = divmod(idx, base)
        out.append(r)
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
        self._exp: list[int] | None = None
        self._log: list[int] | None = None

    # -- encoding ----------------------------------------------------------
    def decode(self, x: int) -> list[int]:
        """Coefficient vector of x over the base field, constant term first."""
        b = self.base.order
        out = []
        for _ in range(self.degree):
            x, r = divmod(x, b)
            out.append(r)
        return out

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
        B = self.base
        return self.encode(B.add(a, b) for a, b in zip(self.decode(x), self.decode(y)))

    def sub(self, x: int, y: int) -> int:
        if self._xor_add:
            return x ^ y
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self._xor_add:
            return x
        B = self.base
        return self.encode(B.neg(a) for a in self.decode(x))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        if self._exp is None and self.order <= _TABLE_CAP:
            self._build_log_tables()
        if self._exp is not None:
            return self._exp[(self._log[x] + self._log[y]) % (self.order - 1)]
        return self._mul_raw(x, y)

    def _mul_raw(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        B = self.base
        f, g = self.decode(x), self.decode(y)
        prod = [0] * (2 * self.degree - 1)
        for i, a in enumerate(f):
            if a == 0:
                continue
            for j, b in enumerate(g):
                if b:
                    prod[i + j] = B.add(prod[i + j], B.mul(a, b))
        # reduce modulo the monic modulus
        for i in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(self.degree):
                mc = self.modulus[j]
                if mc:
                    prod[i - self.degree + j] = B.sub(
                        prod[i - self.degree + j], B.mul(c, mc)
                    )
        return self.encode(prod[: self.degree])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is None and self.order <= _TABLE_CAP:
            self._build_log_tables()
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[x]) % (self.order - 1)]
        return self._inv_raw(x)

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
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def scalar_mul(self, c: int, x: int) -> int:
        """Action of a base-field scalar c on x (coefficient-wise)."""
        B = self.base
        return self.encode(B.mul(c, a) for a in self.decode(x))

    def expand(self, x: int) -> tuple[int, ...]:
        """Coordinates of x over the base field (constant term in slot 0)."""
        return tuple(self.decode(x))

    def elements(self) -> range:
        return range(self.order)

    def _build_log_tables(self):
        """Exp/log tables over a deterministic primitive element (the
        smallest encoding that generates the multiplicative group)."""
        n = self.order
        group = n - 1
        factors = _prime_factors(group) if group > 1 else []
        gen = None
        for cand in range(2, n):
            if all(self._pow_raw(cand, group // r) != 1 for r in factors):
                gen = cand
                break
        if gen is None:  # order 2: the group is trivial
            gen = 1
        exp = [1] * group
        val = 1
        for i in range(1, group):
            val = self._mul_raw(val, gen)
            exp[i] = val
        log = [0] * n
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def _pow_raw(self, x: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return out

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
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if e == 1:
        return PrimeField(p)
    return ExtensionField(PrimeField(p), e)


@lru_cache(maxsize=None)
def ext_make(base, m: int) -> ExtensionField:
    """The degree-m extension of a constructed field, F_{q^m} over F_q."""
    return ExtensionField(base, m)


def expand(ext: ExtensionField, x: int) -> tuple[int, ...]:
    """Base-field coordinate vector of x with respect to the polynomial basis."""
    return ext.expand(x)


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
