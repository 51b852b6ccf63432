"""Lacunary binomial sums and capnN divisibility."""

import pytest

from ringline import identities
from ringline.formulas import cap_n_N_comm
from ringline.identities import (
    capN_divisibility_check,
    lacunary_identity_check,
    lacunary_sum,
)
from ringline.rings import Local, RingSpec, zn_local_decomposition


def test_lacunary_sum_examples():
    assert lacunary_sum(2, 2, 0) == 2
    assert lacunary_sum(4, 3, 1) == -3
    assert lacunary_sum(3, 2, 1) == -4
    with pytest.raises(ValueError):
        lacunary_sum(5, 4, 0)
    with pytest.raises(ValueError):
        lacunary_sum(5, 3, 3)


def test_lacunary_identity_check():
    assert lacunary_identity_check(2, 2)
    assert lacunary_identity_check(5, 3)
    assert lacunary_identity_check(13, 13)


def test_lacunary_identity_check_fails_on_a_sum_not_divisible(monkeypatch):
    # one sum off by one at n = 4, p = 3, m = 1: the check is red from there
    real = identities.lacunary_sum
    monkeypatch.setattr(identities, "lacunary_sum", lambda n, p, m: real(n, p, m) + ((n, p, m) == (4, 3, 1)))
    assert lacunary_identity_check(3, 3)
    assert not lacunary_identity_check(4, 3)


def test_lacunary_congruences_directly():
    for n in range(1, 14):
        for p in (2, 3, 5, 7, 11, 13):
            if p > n:
                continue
            for m in range(p):
                assert lacunary_sum(n, p, m) % p == 0


def test_capN_divisibility():
    spec = RingSpec([Local(9, 3), Local(5, 1)])
    assert cap_n_N_comm(spec, 3) % 6 == 0
    assert capN_divisibility_check(spec, 3)
    for n in (4, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32):
        s = zn_local_decomposition(n)
        for nn in range(1, 8):
            assert capN_divisibility_check(s, nn)
        assert cap_n_N_comm(s, 5) % 30 == 0
    assert capN_divisibility_check(spec, 1)  # vacuous: no prime <= 1
