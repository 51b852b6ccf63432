"""Exact univariate integer polynomials in the indeterminate q.

Coefficients are arbitrary-precision Python ints, stored ascending by
degree with no trailing zeros ([] is the zero polynomial).  The degree
of the zero polynomial is -inf.  All arithmetic is exact; there is no
floating point anywhere on these paths.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from operator import sub
from typing import Iterable, Iterator

NEG_INF = float("-inf")


class IntPoly:
    """Immutable integer polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int) -> "IntPoly":
        """q^degree"""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls([0] * degree + [1])

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, degree: int) -> int:
        """Coefficient of q^degree (0 beyond the stored range)."""
        if degree < 0 or degree >= len(self.coeffs):
            return 0
        return self.coeffs[degree]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPoly":
        return IntPoly((other,)) - self

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, q: int) -> int:
        """Evaluate at an integer point, exactly (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self})"

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Human form, descending degree: "q^4+q^3+2q^2+q+1"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for deg in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[deg]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                x = "q" if deg == 1 else f"q^{deg}"
                body = x if mag == 1 else f"{mag}{x}"
            parts.append(sign + body)
        return "".join(parts)


def poly_product(factors: Iterable[IntPoly]) -> IntPoly:
    return math.prod(factors, start=IntPoly.one())


@functools.lru_cache(maxsize=None)
def qbinom(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n, k]_q: the subspace-counting polynomial.

    It lives here, below `linalg`, `rings` and `formulas`, so that all
    of them can import it, as does matrix_codegree.  Without recursion:
    step i multiplies by 1 - q^(n-i) and divides by 1 - q^(i+1) (prefix
    sums at stride i + 1), so after it c holds [n, i+1]_q.  No step reads
    a coefficient above the one it writes, and the coefficients are
    palindromic, so only those up to half the degree k(n - k) are kept.
    """
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    k = min(k, n - k)
    top = k * (n - k)
    half = top // 2
    c = [1]
    for i in range(k):
        a, b = n - i, i + 1
        c += [0] * (min(b * a, half) + 1 - len(c))
        c[a:] = map(sub, c[a:], c)
        for r in range(b):
            c[r::b] = accumulate(c[r::b])
        del c[b * (a - 1) + 1 :]
    return IntPoly(c + c[: top - half][::-1])


def matrix_codegree(m: int) -> IntPoly:
    """prod_{k<m} (q^m - q^k): |GL_m(q)|, which is also the number of common
    neighbours of an edge of the matrix-ring line."""
    if m < 0:
        raise ValueError("negative dimension")
    return poly_product(IntPoly.monomial(m) - IntPoly.monomial(k) for k in range(m))
