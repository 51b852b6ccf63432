"""Table-driven arithmetic for the finite fields GF(p^r).

A field element is an index in [0, q).  The index encodes a polynomial
over GF(p) in base-p digits (least significant digit = constant term),
reduced modulo a fixed irreducible polynomial of degree r: the first
monic irreducible in the deterministic candidate order below.  Index 0
is the additive identity and index 1 the multiplicative identity.  With
j the lowest nonzero digit of b, the tables grow from earlier entries:
b + c is (b - p^j) + c with digit j incremented mod p, and a * b is
a * (b - p^j) + a * x^j, from the addition table and multiplication by x.

Polynomials over a field are plain tuples of element indices, ascending
by degree, with no trailing zeros (the empty tuple is zero).
"""

from __future__ import annotations

import functools

from .config import FACTOR_TRIAL_BOUND, FIELD_SIZE_BOUND
from .errors import BoundExceeded

FieldPoly = tuple[int, ...]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, a), ...], primes ascending; [] for n < 2.

    Trial division stops at FACTOR_TRIAL_BOUND: a cofactor left with no
    prime factor up to it raises BoundExceeded, so 2^61 - 1 fails at once
    instead of dividing for minutes.
    """
    out = []
    p = 2
    while p * p <= n:
        if p > FACTOR_TRIAL_BOUND:
            raise BoundExceeded(f"{n} has no prime factor up to {FACTOR_TRIAL_BOUND}")
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r, or raise if q is not a prime power."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


class GF:
    """GF(p^r) with precomputed addition/negation/multiplication/inverse tables."""

    __slots__ = ("p", "r", "q", "modulus", "_add", "_neg", "_mul", "_inv")

    def __init__(self, p: int, r: int, modulus: FieldPoly):
        q = p**r
        self.p = p
        self.r = r
        self.q = q
        self.modulus = modulus  # over GF(p), ascending, monic of degree r

        digits = [_digits(i, p, r) for i in range(q)]
        # b - p^j and j for each b > 0, j the lowest nonzero digit of b
        steps = []
        for b in range(1, q):
            j = next(j for j, d in enumerate(digits[b]) if d)
            steps.append((b - p**j, j))

        # row a is row a - p^j with digit j of every entry incremented mod p
        bump = [
            tuple(v - (p - 1) * p**j if ds[j] == p - 1 else v + p**j for v, ds in enumerate(digits))
            for j in range(r)
        ]
        add = [tuple(range(q))]
        for prev, j in steps:
            add.append(tuple(map(bump[j].__getitem__, add[prev])))
        self._add = tuple(add)
        self._neg = tuple(row.index(0) for row in self._add)

        # row a grows from a * (b - p^j) to a * b by adding a * x^j
        mul = []
        for a in range(q):
            times_x = [a]  # a * x^j for j < r
            for _ in range(r - 1):
                times_x.append(_times_x(digits[times_x[-1]], modulus, p))
            row = [0]
            for prev, j in steps:
                row.append(self._add[row[prev]][times_x[j]])
            mul.append(tuple(row))
        self._mul = tuple(mul)

        self._inv = (0,) + tuple(row.index(1) for row in self._mul[1:])

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _digits(i: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(i % p)
        i //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def _times_x(da: list[int], modulus: FieldPoly, p: int) -> int:
    # the element with digits da times x, reduced by x^r = -(modulus - x^r)
    top = da[-1]
    out = [0] + da[:-1]
    return _undigits([(d - top * c) % p for d, c in zip(out, modulus)], p)


@functools.lru_cache(maxsize=None)
def _build_field(p: int, r: int) -> GF:
    if r == 1:
        modulus: FieldPoly = (0, 1)  # the polynomial x; GF(p)[x]/(x) = GF(p)
    else:
        prime = _build_field(p, 1)
        modulus = find_irreducible(r, prime)
    return GF(p, r, modulus)


def gf_build(p: int, r: int = 1) -> GF:
    """The field GF(p^r).  Deterministic; instances are cached and shared."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("exponent must be >= 1")
    if p**r > FIELD_SIZE_BOUND:
        raise BoundExceeded(f"field size {p**r} exceeds bound {FIELD_SIZE_BOUND}")
    return _build_field(p, r)


def gf_of(q: int | GF) -> GF:
    """Coerce an integer order (or a field) to a field instance."""
    if isinstance(q, GF):
        return q
    if q > FIELD_SIZE_BOUND:  # before factoring q
        raise BoundExceeded(f"field size {q} exceeds bound {FIELD_SIZE_BOUND}")
    p, r = factor_prime_power(q)
    return gf_build(p, r)


# ---------------------------------------------------------------------------
# polynomials over a field: tuples of element indices, ascending degree
# ---------------------------------------------------------------------------


def fp_trim(cs: list[int]) -> FieldPoly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fp_mul(F: GF, a: FieldPoly, b: FieldPoly) -> FieldPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return fp_trim(out)


def fp_divmod(F: GF, a: FieldPoly, b: FieldPoly) -> tuple[FieldPoly, FieldPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for deg in range(len(rem) - len(b), -1, -1):
        c = rem[deg + len(b) - 1]
        if c == 0:
            continue
        factor = F.mul(c, inv_lead)
        quo[deg] = factor
        for k, bc in enumerate(b):
            rem[deg + k] = F.sub(rem[deg + k], F.mul(factor, bc))
    return fp_trim(quo), fp_trim(rem)


def monic_polys(F: GF, degree: int):
    """All monic polynomials of the given degree, in candidate order.

    Candidate order: the vector of non-leading coefficients read as a
    base-q integer, ascending (constant term least significant).
    """
    for n in range(F.q**degree):
        yield (*_digits(n, F.q, degree), 1)


def fp_is_irreducible(F: GF, poly: FieldPoly) -> bool:
    """Irreducibility over F by trial division.

    The trial divisors are all monic polynomials of degree 1..deg/2, not
    only the irreducible ones: a reducible divisor of poly has an
    irreducible factor of lower degree that divides poly too.  The linear
    divisor x - a divides poly exactly when a is a root.
    """
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for divisor in monic_polys(F, d):
            if not fp_divmod(F, poly, divisor)[1]:
                return False
    return True


def _first(m: int, q: int | GF, test) -> FieldPoly:
    """First monic polynomial of degree m over GF(q), in candidate order,
    that passes test."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    F = gf_of(q)
    return next(cand for cand in monic_polys(F, m) if test(F, cand))


def find_irreducible(m: int, q: int | GF) -> FieldPoly:
    """First monic irreducible of degree m over GF(q), in candidate order."""
    return _first(m, q, fp_is_irreducible)


def fp_is_primitive(F: GF, poly: FieldPoly) -> bool:
    """x generates the unit group of GF(q)[x]/(poly), of order N = q^deg - 1.

    That is, poly(0) != 0, x^N = 1 and x^(N/p) != 1 for every prime p
    dividing N, the powers taken by square-and-multiply modulo poly.  A
    reducible poly has fewer than N units, so the order of x falls short
    and the test is exact.
    """
    degree = len(poly) - 1
    if degree < 1 or poly[0] == 0:
        return False

    def power(e: int) -> FieldPoly:  # x^e mod poly, from the top bit of e down
        acc: FieldPoly = (1,)
        for bit in bin(e)[2:]:
            acc = fp_divmod(F, fp_mul(F, acc, acc), poly)[1]
            if bit == "1":
                acc = fp_divmod(F, (0,) + acc, poly)[1]
        return acc

    order = F.q**degree - 1
    return power(order) == (1,) and all(power(order // p) != (1,) for p, _ in factorize(order))


def find_primitive(m: int, q: int | GF) -> FieldPoly:
    """First monic primitive polynomial of degree m over GF(q)."""
    return _first(m, q, fp_is_primitive)
