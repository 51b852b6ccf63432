"""Partitions, two-colored distinct partitions, and truncated q-series.

Partitions are tuples of weakly decreasing positive ints.  A two-colored
distinct partition keeps red and white rows separately, each strictly
decreasing; D2(h, k) fixes exactly k red rows and any number of white
ones.  Signed (parity) counts weigh a partition by (-1)^rows, the empty
partition counting as even.

All q-series arithmetic carries an explicit truncation order N and is
exact below it; the expansions here are generated, never hard-coded, one
in-place stride update per factor 1 - q^i.  The coefficient checks read
the closed forms of `ringline.formulas` (C_{m,k} and its terms
distcoeff_poly) and compare them with these expansions and counts.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import Record
from .formulas import c_extension_poly, distcoeff_poly

Partition = tuple[int, ...]


def enumerate_partitions(
    h: int, max_part: int | None = None, max_len: int | None = None
) -> list[Partition]:
    """All partitions of h with parts <= max_part and length <= max_len,
    in descending lexicographic order."""
    return list(_partitions(h, max_part, max_len, distinct=False))


def enumerate_distinct_partitions(
    h: int, max_part: int | None = None, max_len: int | None = None
) -> list[Partition]:
    """Partitions of h into pairwise distinct parts, same bounds and order."""
    return list(_partitions(h, max_part, max_len, distinct=True))


def _partitions(
    h: int, max_part: int | None, max_len: int | None, distinct: bool
) -> Iterator[Partition]:
    if h < 0:
        return
    top = h if max_part is None else min(max_part, h)
    length = h if max_len is None else max_len

    def rec(remaining: int, largest: int, room: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if room == 0:
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part - 1 if distinct else part, room - 1, prefix)
            prefix.pop()

    yield from rec(h, top, length, [])


class TwoDistinctPartition(Record):
    """Red rows and white rows, each strictly decreasing."""

    __slots__ = ("red", "white")

    def __post_init__(self) -> None:
        for rows in (self.red, self.white):
            if any(p < 1 for p in rows):
                raise ValueError("parts must be positive")
            if any(a <= b for a, b in zip(rows, rows[1:])):
                raise ValueError("rows of one color must be strictly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.red) + sum(self.white)

    @property
    def rows(self) -> int:
        return len(self.red) + len(self.white)


def enumerate_D2(h: int, k: int) -> list[TwoDistinctPartition]:
    """All of D2(h, k): weight h, exactly k red rows, both colors distinct."""
    if h < 0 or k < 0:
        raise ValueError("h and k must be >= 0")
    out = []
    for red_weight in range(h + 1):
        whites = _distinct(h - red_weight)
        for red in _distinct(red_weight):
            if len(red) == k:
                out.extend(TwoDistinctPartition(red, white) for white in whites)
    return out


@functools.lru_cache(maxsize=None)
def _distinct(h: int) -> tuple[Partition, ...]:
    """enumerate_distinct_partitions(h), enumerated once per weight."""
    return tuple(_partitions(h, None, None, distinct=True))


def parity_count(items: Iterable) -> int:
    """Even-row-count items minus odd-row-count items.

    Accepts TwoDistinctPartition objects (their total row count) or
    plain partitions (their length); the empty partition is even.
    """
    total = 0
    for item in items:
        rows = item.rows if isinstance(item, TwoDistinctPartition) else len(item)
        total += 1 if rows % 2 == 0 else -1
    return total


def dist2p_bijection(x: TwoDistinctPartition) -> TwoDistinctPartition:
    """Remove one cell from every red row.

    Sends D2(h, k) onto D2(h-k, k) u D2(h-k, k-1): a red row of length 1
    (unique if present) disappears and the row count drops by one;
    otherwise the row count is preserved.  Globally a bijection onto the
    union, inverted by growing every red row (adding a length-1 red row
    first in the k-1 case).
    """
    red = tuple(r - 1 for r in x.red if r > 1)
    return TwoDistinctPartition(red, x.white)


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------


def qseries_product(exponent: int, truncation: int) -> list[int]:
    """Coefficients of prod_{i>=1} (1 - q^i)^exponent up to q^truncation.

    Each factor 1 - q^i is applied |exponent| times in place with stride
    i: multiplying subtracts the series shifted by i (from the top down),
    dividing adds it (from the bottom up), since 1 / (1 - q^i) is
    1 + q^i + q^2i + ...
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    n = truncation
    series = [1] + [0] * n
    for i in range(1, n + 1):
        for _ in range(exponent):
            for d in range(n, i - 1, -1):
                series[d] -= series[d - i]
        for _ in range(-exponent):
            for d in range(i, n + 1):
                series[d] += series[d - i]
    return series


OEIS_SERIES_EXPONENT = {
    "A000041": -1,  # partition numbers
    "A000007": 0,  # 1, 0, 0, ...
    "A010815": 1,  # pentagonal-number expansion
    "A002107": 2,
}


def oeis_prefix(tag: str) -> list[int]:
    """First 12 terms of the four catalogued expansions, generated locally."""
    if tag not in OEIS_SERIES_EXPONENT:
        raise ValueError(f"unknown sequence id {tag!r}")
    return qseries_product(OEIS_SERIES_EXPONENT[tag], 11)


# ---------------------------------------------------------------------------
# coefficient checks
# ---------------------------------------------------------------------------


def distcoeff_check(m: int, k: int, h: int) -> bool:
    """Coefficient of q^(m^2-h) in distcoeff_poly(m, k) versus the signed
    count of D2(h, k); defined for h <= m only."""
    if h > m:
        raise ValueError("the coefficient identity requires h <= m")
    if h < 0:
        raise ValueError("h must be >= 0")
    coeff = distcoeff_poly(m, k).coefficient(m * m - h)
    return coeff == parity_count(enumerate_D2(h, k))


def _coefficient_comparison(m: int, k: int) -> list[tuple[int, int, int]]:
    """(h, coefficient of q^(m^2-h) in C_{m,k}(q), coefficient of q^h in
    prod (1 - q^i)^(k-1)) for every h <= m."""
    poly = c_extension_poly(m, k)
    series = qseries_product(k - 1, m)
    return [(h, poly.coefficient(m * m - h), series[h]) for h in range(m + 1)]


def coeffs_theorem_check(m: int, k: int) -> bool:
    """For all h <= m: coefficient of q^(m^2-h) in C_{m,k}(q) equals the
    coefficient of q^h in prod (1 - q^i)^(k-1)."""
    return all(a == b for _, a, b in _coefficient_comparison(m, k))


def coefficient_comparison_rows(m_max: int) -> list[tuple[int, int, int, int, int, bool]]:
    """(m, k, h, polynomial coefficient, series coefficient, equal) rows
    for every m <= m_max, k <= 3 (the closed forms), h <= m; the CSV-facing
    table."""
    return [
        (m, k, h, a, b, a == b)
        for m in range(m_max + 1)
        for k in range(4)
        for h, a, b in _coefficient_comparison(m, k)
    ]
