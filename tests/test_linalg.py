"""Matrix algebra over GF(q): ranks, echelon forms, GL, companions."""

import re

import pytest

from ringline.errors import BoundExceeded
from ringline.fields import find_irreducible, gf_build, gf_of
from ringline.linalg import (
    MatrixGF,
    companion_matrix,
    enumerate_gl,
    gl_order,
    identity,
    mat_det,
    mat_hstack,
    mat_mul,
    mat_rank,
    mat_sub,
    mat_vstack,
    matrix,
    matrix_label,
    rref,
    zeros,
)


def test_rank_examples():
    assert mat_rank(zeros(2, 2, 2)) == 0
    assert mat_rank(identity(3, 3)) == 3
    assert mat_rank(matrix(2, [[1, 1], [1, 1]])) == 1


def test_invertibility_examples():
    assert mat_det(identity(5, 2)) != 0
    assert mat_det(zeros(5, 2, 2)) == 0
    assert mat_det(matrix(3, [[0, 2], [1, 0]])) != 0
    with pytest.raises(ValueError):
        mat_det(zeros(2, 2, 3))


def test_rref_examples():
    eye = identity(3, 2)
    assert rref(eye) == eye
    already = matrix(2, [[0, 1], [0, 0]])
    assert rref(already) == already
    assert rref(matrix(2, [[1, 1], [1, 0]])) == identity(2, 2)


def test_rref_idempotent_and_rank_preserving_exhaustive_2x2():
    from itertools import product

    for q in (2, 3):
        F = gf_build(q)
        for entries in product(range(q), repeat=4):
            m = MatrixGF(F, (entries[0:2], entries[2:4]))
            r = rref(m)
            assert rref(r) == r
            assert mat_rank(r) == mat_rank(m)
            stacked = MatrixGF(F, m.rows + r.rows)
            assert mat_rank(stacked) == mat_rank(m)  # row space preserved


def test_det_matches_rank_for_larger_sizes():
    from itertools import product

    F = gf_build(2)
    for entries in product(range(2), repeat=9):
        m = MatrixGF(F, (entries[0:3], entries[3:6], entries[6:9]))
        assert (mat_det(m) != 0) == (mat_rank(m) == 3)


def _det_by_cofactors(m: MatrixGF) -> int:
    # Laplace expansion along the first row: no elimination
    F = m.field

    def det(rows) -> int:
        if not rows:
            return 1
        acc = 0
        for j, e in enumerate(rows[0]):
            if e:
                term = F.mul(e, det([r[:j] + r[j + 1 :] for r in rows[1:]]))
                acc = F.sub(acc, term) if j % 2 else F.add(acc, term)
        return acc

    return det(m.rows)


def test_det_matches_laplace_oracle_exhaustive_3x3_gf2():
    from itertools import product

    F = gf_build(2)
    for entries in product(range(2), repeat=9):
        m = MatrixGF(F, (entries[0:3], entries[3:6], entries[6:9]))
        assert mat_det(m) == _det_by_cofactors(m)


def test_det_matches_laplace_oracle_random_up_to_5x5():
    import random

    rng = random.Random(20161)
    singular = 0
    for q in (3, 4, 5, 7, 9):
        F = gf_of(q)
        for n in range(1, 6):
            for _ in range(24):
                density = rng.choice((0.3, 0.6, 1.0))  # sparse rows force pivot swaps
                rows = tuple(
                    tuple(rng.randrange(q) if rng.random() < density else 0 for _ in range(n))
                    for _ in range(n)
                )
                m = MatrixGF(F, rows)
                det = mat_det(m)
                assert det == _det_by_cofactors(m), m
                assert (det != 0) == (mat_rank(m) == n)
                singular += det == 0
    assert singular > 50  # both verdicts are exercised


def test_enumerate_gl_counts_match_order_formula():
    assert gl_order(0, 7) == 1
    assert len(enumerate_gl(1, 3)) == 2
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert len(enumerate_gl(1, q)) == gl_order(1, q) == q - 1
    for m, q in [(2, 2), (2, 3), (3, 2)]:
        assert len(enumerate_gl(m, q)) == gl_order(m, q)
    with pytest.raises(BoundExceeded):
        enumerate_gl(4, 5)  # 5^16 > GL_ENUMERATION_BOUND


def test_enumerate_gl_is_lexicographic_and_deterministic():
    mats = enumerate_gl(2, 2)
    flat = [tuple(e for row in m.rows for e in row) for m in mats]
    assert flat == sorted(flat)
    assert flat[0] == (0, 1, 1, 0)


def test_companion_matrix_examples():
    assert companion_matrix(2, (1, 1)).rows == ((1,),)
    assert companion_matrix(2, (1, 1, 1)).rows == ((0, 1), (1, 1))
    assert companion_matrix(3, (1, 0, 1)).rows == ((0, 1), (2, 0))
    with pytest.raises(ValueError):
        companion_matrix(3, (1, 2))  # not monic


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: mat_mul(matrix(2, [[1, 0]]), matrix(2, [[1, 0]])), "shape mismatch"),
        (lambda: mat_vstack(matrix(2, [[1, 0]]), matrix(2, [[1]])), "column mismatch"),
        (lambda: mat_hstack(matrix(2, [[1, 0]]), matrix(2, [[1], [0]])), "row mismatch"),
        (lambda: companion_matrix(2, (1,)), "degree must be >= 1"),
    ],
    ids=["mul-shape", "vstack-columns", "hstack-rows", "companion-degree-0"],
)
def test_input_checks(call, want):
    with pytest.raises(ValueError, match=f"^{want}$"):
        call()


@pytest.mark.parametrize(
    "op, a, b, want",
    [
        (mat_sub, matrix(3, [[1, 0], [0, 1]]), matrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "shape mismatch"),
        (mat_sub, matrix(3, [[1, 2]]), matrix(5, [[1, 2]]), "field mismatch: GF(3) and GF(5)"),
        (mat_mul, matrix(3, [[1, 2]]), matrix(5, [[1], [4]]), "field mismatch: GF(3) and GF(5)"),
        (mat_vstack, matrix(3, [[1, 2]]), matrix(5, [[3, 4]]), "field mismatch: GF(3) and GF(5)"),
        (mat_hstack, matrix(3, [[1]]), matrix(5, [[4]]), "field mismatch: GF(3) and GF(5)"),
    ],
    ids=["sub-shape", "sub-field", "mul-field", "vstack-field", "hstack-field"],
)
def test_operands_over_two_fields_or_shapes_are_refused(op, a, b, want):
    # each would otherwise return a truncated matrix, a matrix over the
    # first field, or raise IndexError on the entries of the larger field
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        op(a, b)


def test_companion_char_poly_roundtrip():
    # e_0 C^i = e_i for i < n and e_0 C^n = -(c_0, ..., c_{n-1}): e_0 is a cyclic
    # vector annihilated by poly, so poly is the characteristic polynomial of C
    for q in (2, 3, 5):
        F = gf_of(q)
        for deg in (1, 2, 3):
            poly = find_irreducible(deg, q)
            c = companion_matrix(q, poly)
            v = matrix(q, [[1] + [0] * (deg - 1)])
            for i in range(deg):
                assert v.rows == (tuple(int(j == i) for j in range(deg)),)
                v = mat_mul(v, c)
            assert v.rows == (tuple(F.neg(x) for x in poly[:-1]),)


def test_companion_of_irreducible_has_no_eigenvalues():
    for m in (2, 3):
        for q in (2, 3, 4, 5):
            F = gf_of(q)
            u = companion_matrix(F, find_irreducible(m, F))
            for lam in range(F.q):
                shift = MatrixGF(
                    F,
                    tuple(
                        tuple(F.sub(u.rows[i][j], lam if i == j else 0) for j in range(m))
                        for i in range(m)
                    ),
                )
                assert mat_rank(shift) == m


def test_matrix_product_and_powers():
    F = gf_build(3)
    u = companion_matrix(F, (1, 0, 1))  # square root of -1 behaviour: u^2 = 2I
    assert mat_mul(u, u).rows == ((2, 0), (0, 2))
    u2 = mat_mul(u, u)
    assert mat_mul(u2, u2) == identity(F, 2)
    a = matrix(3, [[1, 2], [0, 1]])
    assert mat_sub(a, a) == zeros(3, 2, 2)


def test_matrix_label_digit_string():
    assert matrix_label(matrix(3, [[2, 2], [0, 1]])) == "2201"
    assert repr(matrix(3, [[2, 2], [0, 1]])) == "MatrixGF(GF(3), [2 2; 0 1])"
    assert matrix_label(identity(2, 2)) == "1001"


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix(2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        matrix(2, [[0, 2]])
