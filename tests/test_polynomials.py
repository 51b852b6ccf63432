"""Exact integer polynomial arithmetic and rendering."""

import pytest

from ringline.polynomials import NEG_INF, IntPoly, poly_product


def test_canonical_form_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly().degree == NEG_INF
    assert IntPoly([5]).degree == 0
    assert IntPoly.monomial(3).degree == 3
    with pytest.raises(ValueError):
        IntPoly.monomial(-1)


def test_arithmetic():
    p = IntPoly([1, 1])  # 1 + q
    q = IntPoly([0, 0, 2])  # 2q^2
    assert (p + q).coeffs == (1, 1, 2)
    assert (p - p) == IntPoly.zero()
    assert (p * q).coeffs == (0, 0, 2, 2)
    assert (p * 3).coeffs == (3, 3)
    assert (2 - p).coeffs == (1, -1)
    assert poly_product([p, p]) == p * p


def test_evaluation_is_exact_on_big_values():
    p = IntPoly.monomial(16)  # degree of a 4x4 matrix count
    assert p(5) == 5**16
    gl = poly_product(IntPoly.monomial(4) - IntPoly.monomial(k) for k in range(4))
    assert gl(5) == (625 - 1) * (625 - 5) * (625 - 25) * (625 - 125)


def test_equality_with_ints():
    assert IntPoly([7]) == 7
    assert IntPoly() == 0
    assert IntPoly([1, 1]) != 1


def test_render_descending_form():
    assert IntPoly([1, 1, 2, 1, 1]).render() == "q^4+q^3+2q^2+q+1"
    assert IntPoly([0, 3, -1, -2, 1]).render() == "q^4-2q^3-q^2+3q"
    assert IntPoly([-1, 1]).render() == "q-1"
    assert IntPoly([0, -1]).render() == "-q"
    assert IntPoly().render() == "0"
    assert IntPoly([2]).render() == "2"


def test_coefficient_access_and_json():
    p = IntPoly([3, 0, 5])
    assert p.coefficient(0) == 3
    assert p.coefficient(2) == 5
    assert p.coefficient(9) == 0
    assert p.coefficient(-1) == 0
    assert list(p) == [3, 0, 5]
