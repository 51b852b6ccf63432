"""Partition enumeration, parity counts, and truncated q-series."""

import pytest

from ringline.formulas import c_extension_poly
from ringline.partitions import (
    TwoDistinctPartition,
    coefficient_comparison_rows,
    coeffs_theorem_check,
    dist2p_bijection,
    distcoeff_check,
    distcoeff_poly,
    enumerate_D2,
    enumerate_distinct_partitions,
    enumerate_partitions,
    oeis_prefix,
    parity_count,
    qseries_product,
)

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def test_enumerate_partitions_basic():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(-1) == []
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(4, max_part=2, max_len=2) == [(2, 2)]
    for h, p in enumerate(PARTITION_NUMBERS):
        assert len(enumerate_partitions(h)) == p


def test_enumerate_distinct_partitions():
    assert enumerate_distinct_partitions(6) == [(6,), (5, 1), (4, 2), (3, 2, 1)]
    for h in range(12):
        for parts in enumerate_distinct_partitions(h):
            assert len(set(parts)) == len(parts)


def test_two_distinct_partition_validation():
    TwoDistinctPartition((3, 1), (2,))
    with pytest.raises(ValueError):
        TwoDistinctPartition((2, 2), ())
    with pytest.raises(ValueError):
        TwoDistinctPartition((0,), ())
    x = TwoDistinctPartition((3, 1), (2,))
    assert x.weight == 6 and x.rows == 3


def test_enumerate_D2_figure_counts():
    assert len(enumerate_D2(4, 1)) == 5
    assert len(enumerate_D2(4, 2)) == 2
    assert len(enumerate_D2(6, 2)) == 7
    assert enumerate_D2(0, 0) == [TwoDistinctPartition((), ())]
    assert enumerate_D2(3, 4) == []


def test_parity_counts_from_figures():
    assert parity_count([]) == 0
    assert parity_count(enumerate_D2(4, 1)) == 1
    assert parity_count(enumerate_D2(4, 2)) == 0
    # plain partitions count by their length
    assert parity_count([(2, 2), (3,)]) == 0
    assert parity_count([()]) == 1  # the empty partition is even


def test_d2_recurrence_counts_and_parities():
    for h in range(15):
        for k in range(1, 6):
            if h < k:
                assert enumerate_D2(h, k) == []
                continue
            whole = enumerate_D2(h, k)
            same = enumerate_D2(h - k, k)
            drop = enumerate_D2(h - k, k - 1)
            assert len(whole) == len(same) + len(drop)
            assert parity_count(whole) == parity_count(same) - parity_count(drop)


def test_dist2p_bijection_examples():
    assert dist2p_bijection(TwoDistinctPartition((3, 1), ())) == TwoDistinctPartition((2,), ())
    assert dist2p_bijection(TwoDistinctPartition((2, 1), (1,))) == TwoDistinctPartition((1,), (1,))
    assert dist2p_bijection(TwoDistinctPartition((4,), ())) == TwoDistinctPartition((3,), ())


def test_dist2p_bijection_exhaustive():
    for h in range(15):
        for k in range(1, 6):
            src = enumerate_D2(h, k)
            image = [dist2p_bijection(x) for x in src]
            for x, y in zip(src, image):
                # row count drops exactly when a red row disappears
                assert y.rows == x.rows - (1 if len(y.red) < k else 0)
            assert len(set(image)) == len(image)
            if h >= k:
                target = set(enumerate_D2(h - k, k)) | set(enumerate_D2(h - k, k - 1))
                assert set(image) == target


def test_qseries_product_table_rows():
    assert qseries_product(-1, 4) == [1, 1, 2, 3, 5]
    assert qseries_product(1, 4) == [1, -1, -1, 0, 0]
    assert qseries_product(2, 4) == [1, -2, -1, 2, 1]
    assert qseries_product(0, 3) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        qseries_product(1, -1)


def test_qseries_inverse_exponents_cancel():
    for e in (1, 2, 3):
        pos = qseries_product(e, 12)
        neg = qseries_product(-e, 12)
        conv = [
            sum(pos[i] * neg[d - i] for i in range(d + 1)) for d in range(13)
        ]
        assert conv == [1] + [0] * 12


def test_qseries_against_partition_enumeration():
    counts = qseries_product(-1, 20)
    for h in range(21):
        assert counts[h] == len(enumerate_partitions(h))
    signed = qseries_product(1, 16)
    for h in range(17):
        assert signed[h] == parity_count(enumerate_distinct_partitions(h))
    two = qseries_product(2, 12)
    for h in range(13):
        total = sum(parity_count(enumerate_D2(h, k)) for k in range(h + 1))
        assert two[h] == total


def test_oeis_prefixes_are_generated():
    assert oeis_prefix("A000041") == PARTITION_NUMBERS[:12]
    assert oeis_prefix("A000007") == [1] + [0] * 11
    assert oeis_prefix("A010815") == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0]
    assert oeis_prefix("A002107")[:5] == [1, -2, -1, 2, 1]
    with pytest.raises(ValueError):
        oeis_prefix("A000001")


def test_distcoeff_check_ranges():
    assert distcoeff_check(4, 1, 4)
    assert distcoeff_check(4, 2, 4)
    for m in range(7):
        for k in range(m + 1):
            assert distcoeff_check(m, k, 0)
            for h in range(m + 1):
                assert distcoeff_check(m, k, h)
    with pytest.raises(ValueError):
        distcoeff_check(3, 1, 4)
    with pytest.raises(ValueError):
        distcoeff_poly(3, 4)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: enumerate_D2(-1, 0), "h and k must be >= 0"),
        (lambda: distcoeff_check(2, 0, -1), "h must be >= 0"),
    ],
    ids=["D2-negative-h", "distcoeff-negative-h"],
)
def test_input_checks(call, want):
    with pytest.raises(ValueError, match=f"^{want}$"):
        call()


def test_distcoeff_poly_value():
    # q^6 (1-q^4)(1-q^3)(1-q^2) has coefficient 1 at q^12
    poly = distcoeff_poly(4, 1)
    assert poly.coefficient(12) == 1
    assert parity_count(enumerate_D2(4, 1)) == 1


def test_coeffs_theorem_check():
    for m in range(6):
        for k in range(4):
            assert coeffs_theorem_check(m, k)
    rows = coefficient_comparison_rows(5)
    assert rows and all(row[5] for row in rows)


def test_distinct_partition_parity_is_codegree_coefficient():
    # every coefficient of the k=2 extension polynomial is a signed count
    # of bounded distinct partitions, not only the h <= m range
    for m in range(6):
        poly = c_extension_poly(m, 2)
        for h in range(m * m + 1):
            pc = parity_count(enumerate_distinct_partitions(h, max_part=m, max_len=m))
            assert poly.coefficient(m * m - h) == pc
