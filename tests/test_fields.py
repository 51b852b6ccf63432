"""Field construction and polynomial-over-field behaviour."""

import time
from math import gcd

import pytest

from ringline.errors import BoundExceeded
from ringline.fields import (
    factor_prime_power,
    factorize,
    find_irreducible,
    find_primitive,
    fp_divmod,
    fp_is_irreducible,
    fp_is_primitive,
    fp_mul,
    fp_trim,
    gf_build,
    gf_of,
    is_prime,
    monic_polys,
)


def test_prime_field_arithmetic():
    F2 = gf_build(2)
    assert F2.add(1, 1) == 0
    F3 = gf_build(3)
    assert F3.mul(2, 2) == 1
    assert F3.sub(0, 1) == 2
    assert F3.inv(2) == 2


def test_gf4_multiplicative_group_cyclic_of_order_3():
    F4 = gf_build(2, 2)
    for a in range(1, 4):
        x, order = a, 1
        while x != 1:
            x = F4.mul(x, a)
            order += 1
        assert order in (1, 3)


def test_field_axioms_exhaustively_small_orders():
    for (p, r) in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (7, 1)]:
        F = gf_build(p, r)
        q = F.q
        els = range(q)
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_multiplication_tables_match_polynomial_products():
    # the tables grow each row by a * x^j; the oracle multiplies the digit
    # polynomials over GF(p) and reduces them by the modulus
    for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125):
        F = gf_of(q)
        P = gf_build(F.p)

        def poly(a):
            return fp_trim([a // F.p**i % F.p for i in range(F.r)])

        for a in range(q):
            for b in range(q):
                _, rem = fp_divmod(P, fp_mul(P, poly(a), poly(b)), F.modulus)
                assert poly(F.mul(a, b)) == rem


def test_addition_tables_are_digitwise_sums_mod_p():
    # the tables grow each row by incrementing one digit; the oracle adds
    # the base-p digits of the two indices mod p
    for q in (2, 4, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 243, 256):
        F = gf_of(q)
        p, r = F.p, F.r
        for a in range(q):
            for b in range(q):
                want = sum((a // p**i + b // p**i) % p * p**i for i in range(r))
                assert F.add(a, b) == want
                assert F.sub(want, b) == a


def test_irreducibility_matches_exhaustive_products():
    # a monic polynomial of degree d is reducible iff it is a product of two
    # monic polynomials of degrees e and d - e, 1 <= e <= d / 2
    for q, top in ((2, 7), (3, 5), (4, 4)):
        F = gf_of(q)
        for d in range(1, top + 1):
            reducible = {
                fp_mul(F, f, g)
                for e in range(1, d // 2 + 1)
                for f in monic_polys(F, e)
                for g in monic_polys(F, d - e)
            }
            for cand in monic_polys(F, d):
                assert fp_is_irreducible(F, cand) == (cand not in reducible)


def test_gf_build_rejects_bad_input():
    with pytest.raises(ValueError):
        gf_build(4)
    with pytest.raises(ValueError):
        gf_build(2, 0)
    with pytest.raises(BoundExceeded):
        gf_build(2, 10)  # 1024 > FIELD_SIZE_BOUND


def test_extension_moduli_are_the_first_irreducibles():
    assert gf_build(2, 2).modulus == (1, 1, 1)
    assert gf_build(3, 2).modulus == (1, 0, 1)
    assert gf_build(2, 3).modulus == find_irreducible(3, 2)


def test_field_instances_cached_and_comparable():
    assert gf_build(3) is gf_build(3)
    assert gf_of(9) == gf_build(3, 2)
    assert gf_of(gf_build(5)) is gf_build(5)


def test_prime_power_type():
    assert factor_prime_power(49) == (7, 2)
    assert is_prime(13) and not is_prime(1)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            factor_prime_power(q)


def test_factorize_agrees_with_a_sieve():
    limit = 5000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    for n in range(-3, limit):
        factors = factorize(n)
        assert is_prime(n) == (n >= 0 and bool(sieve[n]))
        if n < 2:
            assert factors == []
            continue
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(sieve[p] and a >= 1 for p, a in factors)
        prod = 1
        for p, a in factors:
            prod *= p**a
        assert prod == n


def test_factorize_refuses_a_cofactor_past_the_trial_bound():
    assert factorize(2**61) == [(2, 61)]
    # 2^61 - 1 is prime: trial division to its square root would take minutes
    with pytest.raises(BoundExceeded, match="no prime factor up to 1048576"):
        factorize(2**61 - 1)


def test_find_irreducible_examples():
    assert find_irreducible(1, 2) == (0, 1)  # the polynomial x
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    irr = find_irreducible(2, 3)
    F3 = gf_build(3)
    assert all(fp_divmod(F3, irr, (F3.neg(x), 1))[1] for x in range(3))  # no root


def test_irreducibles_have_no_low_degree_factors():
    # cross-check the trial-division path against exhaustive products
    for q in (2, 3):
        F = gf_of(q)
        quartic = find_irreducible(4, q)
        for d in (1, 2):
            for g in monic_polys(F, d):
                _, rem = fp_divmod(F, quartic, g)
                assert rem, f"{quartic} divisible by {g}"


def test_irreducibility_matches_root_and_factor_search():
    F = gf_build(2)
    # degree-2 over GF(2): only x^2+x+1 is irreducible
    flags = [fp_is_irreducible(F, p) for p in monic_polys(F, 2)]
    assert flags.count(True) == 1


def test_primitive_polynomials():
    # x^2+1 over GF(3) is irreducible but its root has order 4, not 8
    F3 = gf_build(3)
    assert fp_is_irreducible(F3, (1, 0, 1))
    assert not fp_is_primitive(F3, (1, 0, 1))
    prim = find_primitive(2, 3)
    assert fp_is_primitive(F3, prim)
    # there are phi(q^m - 1) / m monic primitives of degree m over GF(q)
    for q, m in [(2, 1), (2, 4), (2, 6), (3, 1), (3, 3), (4, 2), (5, 2), (7, 2), (9, 2)]:
        F = gf_of(q)
        phi = sum(gcd(i, q**m - 1) == 1 for i in range(1, q**m))
        assert sum(fp_is_primitive(F, poly) for poly in monic_polys(F, m)) == phi // m
    # reducible with a nonzero constant term: x^2 + 1 = (x + 1)^2 over GF(2)
    assert not fp_is_primitive(gf_build(2), (1, 0, 1))
    # over GF(2) all of F_8^* generates, so irreducible == primitive
    assert find_primitive(3, 2) == find_irreducible(3, 2)


def stepped_is_primitive(F, poly) -> bool:
    """The definition: poly(0) != 0 and x^i, stepped once per i and reduced
    by poly, first returns to 1 at i = q^deg - 1."""
    degree = len(poly) - 1
    if degree < 1 or poly[0] == 0:
        return False
    # times x, then minus t * poly for t the top coefficient over the lead
    lead, one = F.inv(poly[-1]), [1] + [0] * (degree - 1)
    minus = [[F.neg(F.mul(F.mul(top, lead), c)) for c in poly[:-1]] for top in range(F.q)]
    power, order, add = one, F.q**degree - 1, F._add
    for i in range(1, order + 1):
        power = [add[c][d] for c, d in zip([0] + power, minus[power[-1]])]
        if power == one:
            return i == order
    return False


def test_primitive_test_matches_stepping_on_every_small_extension():
    # every monic poly of every degree m over every GF(q), q^m <= 1000, for
    # the q whose field tables are small (q <= 31; every q with m >= 2)
    for q in [q for q in range(2, 32) if len(factorize(q)) == 1]:
        F, m = gf_of(q), 1
        while q**m <= 1000:
            for poly in monic_polys(F, m):
                assert fp_is_primitive(F, poly) == stepped_is_primitive(F, poly), (q, poly)
            m += 1


def test_find_primitive_is_fast_and_first():
    # the first primitive by the order test is the first by the stepping
    # definition; degree 16 over GF(2) stepped 65,535 powers per candidate
    for m, q in [(1, 7), (2, 4), (2, 9), (3, 5), (4, 3), (6, 2)]:
        F = gf_of(q)
        assert find_primitive(m, q) == next(p for p in monic_polys(F, m) if stepped_is_primitive(F, p))
    start = time.perf_counter()
    assert find_primitive(16, 2) == (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
    assert time.perf_counter() - start < 0.5


def test_fp_mul_and_divmod_roundtrip():
    F = gf_build(5)
    a = (2, 0, 1, 3)
    b = (4, 1)
    quo, rem = fp_divmod(F, a, b)
    recomposed = fp_mul(F, quo, b)
    total = list(recomposed) + [0] * (len(a) - len(recomposed))
    for i, c in enumerate(rem):
        total[i] = F.add(total[i], c)
    assert tuple(total[: len(a)]) == a
