"""Table-driven arithmetic for the finite fields GF(p^r).

A field element is an index in [0, q).  The index encodes a polynomial
over GF(p) in base-p digits (least significant digit = constant term),
reduced modulo a fixed irreducible polynomial of degree r: the first
monic irreducible in the deterministic candidate order below.  Index 0
is the additive identity and index 1 the multiplicative identity.

Polynomials over a field are plain tuples of element indices, ascending
by degree, with no trailing zeros (the empty tuple is zero).
"""

from __future__ import annotations

import functools

from .config import FIELD_SIZE_BOUND
from .errors import BoundExceeded

FieldPoly = tuple[int, ...]


def is_prime(n: int) -> bool:
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


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    r = 0
    n = q
    while n % p == 0:
        n //= p
        r += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, r


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
        add = []
        for a in range(q):
            da = digits[a]
            add.append(
                tuple(_undigits([(x + y) % p for x, y in zip(da, digits[b])], p) for b in range(q))
            )
        self._add = tuple(add)
        self._neg = tuple(row.index(0) for row in self._add)

        mul = []
        for a in range(q):
            da = digits[a]
            row = []
            for b in range(q):
                prod = _polymul_mod(da, digits[b], modulus, p)
                row.append(_undigits(prod, p))
            mul.append(tuple(row))
        self._mul = tuple(mul)

        inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            inv[a] = row.index(1)
        self._inv = tuple(inv)

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

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self._mul[acc][base]
            base = self._mul[base][base]
            e >>= 1
        return acc

    def elements(self) -> range:
        return range(self.q)

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


def _polymul_mod(a: list[int], b: list[int], modulus: FieldPoly, p: int) -> list[int]:
    # schoolbook product of GF(p) digit vectors, reduced mod the monic modulus
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    r = len(modulus) - 1
    for deg in range(len(out) - 1, r - 1, -1):
        c = out[deg]
        if c:
            out[deg] = 0
            for k in range(r):
                out[deg - r + k] = (out[deg - r + k] - c * modulus[k]) % p
    out = out[:r] if len(out) > r else out
    return out + [0] * (r - len(out))


@functools.lru_cache(maxsize=None)
def _build_field(p: int, r: int) -> GF:
    if r == 1:
        modulus: FieldPoly = (0, 1)  # the polynomial x; GF(p)[x]/(x) = GF(p)
    else:
        prime = _build_field(p, 1)
        modulus = find_irreducible(r, prime)
    return GF(p, r, modulus)


def gf_build(p: int, r: int = 1, bound: int | None = None) -> GF:
    """The field GF(p^r).  Deterministic; instances are cached and shared."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("exponent must be >= 1")
    limit = FIELD_SIZE_BOUND if bound is None else bound
    if p**r > limit:
        raise BoundExceeded(f"field size {p**r} exceeds bound {limit}")
    return _build_field(p, r)


def gf_of(q: int | GF) -> GF:
    """Coerce an integer order (or a field) to a field instance."""
    if isinstance(q, GF):
        return q
    p, r = factor_prime_power(q)
    return gf_build(p, r)


# ---------------------------------------------------------------------------
# polynomials over a field: tuples of element indices, ascending degree
# ---------------------------------------------------------------------------


def fp_trim(cs: list[int]) -> FieldPoly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fp_add(F: GF, a: FieldPoly, b: FieldPoly) -> FieldPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return fp_trim(out)


def fp_neg(F: GF, a: FieldPoly) -> FieldPoly:
    return tuple(F.neg(c) for c in a)


def fp_sub(F: GF, a: FieldPoly, b: FieldPoly) -> FieldPoly:
    return fp_add(F, a, fp_neg(F, b))


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


def fp_eval(F: GF, a: FieldPoly, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def monic_polys(F: GF, degree: int):
    """All monic polynomials of the given degree, in candidate order.

    Candidate order: the vector of non-leading coefficients read as a
    base-q integer, ascending (constant term least significant).
    """
    q = F.q
    for n in range(q**degree):
        coeffs = []
        m = n
        for _ in range(degree):
            coeffs.append(m % q)
            m //= q
        yield tuple(coeffs) + (1,)


def fp_is_irreducible(F: GF, poly: FieldPoly) -> bool:
    """Irreducibility over F by root search plus low-degree trial division."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    if degree == 1:
        return True
    for x in F.elements():
        if fp_eval(F, poly, x) == 0:
            return False
    if degree <= 3:
        return True
    for d in range(2, degree // 2 + 1):
        for divisor in monic_polys(F, d):
            if fp_is_irreducible(F, divisor):
                _, rem = fp_divmod(F, poly, divisor)
                if not rem:
                    return False
    return True


def find_irreducible(m: int, q: int | GF) -> FieldPoly:
    """First monic irreducible of degree m over GF(q), in candidate order."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    F = gf_of(q)
    for cand in monic_polys(F, m):
        if fp_is_irreducible(F, cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def fp_powmod(F: GF, a: FieldPoly, e: int, modulus: FieldPoly) -> FieldPoly:
    _, acc = fp_divmod(F, (1,), modulus)
    _, base = fp_divmod(F, a, modulus)
    while e:
        if e & 1:
            _, acc = fp_divmod(F, fp_mul(F, acc, base), modulus)
        _, base = fp_divmod(F, fp_mul(F, base, base), modulus)
        e >>= 1
    return acc


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def fp_is_primitive(F: GF, poly: FieldPoly) -> bool:
    """Irreducible with a root of full multiplicative order q^deg - 1.

    Equivalently, x generates the unit group of GF(q)[x]/(poly).
    """
    if not poly or poly[0] == 0 or not fp_is_irreducible(F, poly):
        return False
    order = F.q ** (len(poly) - 1) - 1
    if order == 1:
        return True
    x: FieldPoly = (0, 1)
    if fp_powmod(F, x, order, poly) != (1,):
        return False
    return all(fp_powmod(F, x, order // p, poly) != (1,) for p in _prime_factors(order))


def find_primitive(m: int, q: int | GF) -> FieldPoly:
    """First monic primitive polynomial of degree m over GF(q)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    F = gf_of(q)
    for cand in monic_polys(F, m):
        if fp_is_primitive(F, cand):
            return cand
    raise AssertionError("no primitive polynomial found")  # unreachable
