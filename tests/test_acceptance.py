"""Acceptance gate: one test per criterion, one printed line per run.

Criteria 6 and 7 embed the printed product formula for k-clique counts
of multi-summand rings, |J|^k prod_i C(q_i+1, k).  That formula is
provably short by a matching factor of (k!)^(s-1): a k-clique of a
tensor product picks k-cliques in the factors and a pairing between
them, so N_k(A x B) = k! N_k(A) N_k(B).  Both criteria are implemented
exactly as stated, so `ringline verify` reports them red.  Their tests
pin that verdict to its one proven cause rather than to "red for any
reason": every structural sub-check passes, every census equals the
corrected count, and the printed formula fails on exactly the keys
where the (k!)^(s-1) factor is above 1 and the count is non-zero, and
nowhere else.  Every other criterion passes as written.
"""

import time
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest

from ringline import graphs, verification
from ringline.formulas import comm_clique_count_vertex_sets
from ringline.graphs import Graph, count_cliques
from ringline.rings import local_graph, matrix_ring_graph, zn_local_decomposition
from ringline.verification import (
    COMMUTATIVE_ORDERS,
    CRITERIA,
    TIME_LIMITS,
    _census_suite,
    run_criterion,
)


def _run(number: int):
    result = run_criterion(number)
    print(result.line())
    return result


def test_criterion_01_point_counts():
    r = _run(1)
    assert r.ok, r.detail


def test_criterion_02_degree_codegree():
    r = _run(2)
    assert r.ok, r.detail


def test_criterion_03_cap1N_cap2N():
    r = _run(3)
    assert r.ok, r.detail


def test_criterion_04_four_clique_extension():
    r = _run(4)
    assert r.ok, r.detail


def test_criterion_05_maximal_cliques():
    r = _run(5)
    assert r.ok, r.detail


def test_criterion_06_commutative_suite():
    r = _run(6)
    rec = r.record
    assert rec is not None, r.detail
    # CRT isomorphism, max clique, extension profile and capnN hold on all 15 rings
    assert rec.structural_failure is None, rec.structural_failure
    specs = {n: zn_local_decomposition(n) for n in COMMUTATIVE_ORDERS}
    qs = {n: [summand.q for summand in spec.summands] for n, spec in specs.items()}
    # k runs to one past the max clique order min(q_i) + 1
    keys = {(n, k) for n in COMMUTATIVE_ORDERS for k in range(min(qs[n]) + 3)}
    assert set(rec.census) == keys
    for n, k in keys:
        assert rec.census[n, k] == comm_clique_count_vertex_sets(specs[n], k), (n, k)
    assert rec.corrected_mismatches == {}

    def printed(n, k):
        return specs[n].radical_order ** k * prod(comb(q + 1, k) for q in qs[n])

    wrong = {(n, k) for n, k in keys if len(qs[n]) >= 2 and 2 <= k <= min(qs[n]) + 1}
    assert len(wrong) == 17
    assert rec.printed_mismatches == {key: printed(*key) for key in wrong}
    assert next(iter(rec.printed_mismatches)) == (6, 2)
    for n, k in wrong:
        assert rec.census[n, k] == factorial(k) ** (len(qs[n]) - 1) * printed(n, k)
    for n, k in keys - wrong:  # s = 1 or k <= 1 (or past the max clique)
        assert rec.census[n, k] == printed(n, k)
    assert r.ok is False
    assert "(first: n=6,k=2: census 36 != printed formula 18)" in r.detail
    assert "runtime limit" not in r.detail


def test_criterion_07_tensor_multiplicativity():
    r = _run(7)
    rec = r.record
    assert rec is not None, r.detail
    assert rec.structural_failure is None, rec.structural_failure
    factors = {
        "K3": Graph.complete(3),
        "K4": Graph.complete(4),
        "octahedron": local_graph(4, 2),
        "P(M_2(2))": matrix_ring_graph(2, 2),
    }
    counts = {name: count_cliques(g, 6).as_list() for name, g in factors.items()}
    pairs = list(combinations_with_replacement(factors, 2))
    assert len(pairs) == 10
    keys = {(a, b, k) for a, b in pairs for k in range(7)}
    assert set(rec.census) == keys
    for a, b, k in keys:  # N_k(A x B) = k! N_k(A) N_k(B)
        assert rec.census[a, b, k] == factorial(k) * counts[a][k] * counts[b][k], (a, b, k)
    assert rec.corrected_mismatches == {}

    wrong = {(a, b, k) for a, b, k in keys if k >= 2 and counts[a][k] * counts[b][k]}
    assert len(wrong) == 24
    assert rec.printed_mismatches == {
        (a, b, k): counts[a][k] * counts[b][k] for a, b, k in wrong
    }
    assert next(iter(rec.printed_mismatches.items())) == (("K3", "K3", 2), 9)
    assert rec.census["K3", "K3", 2] == 18
    assert r.ok is False
    assert "(first: K3xK3,k=2: 18 != 9)" in r.detail


def test_criterion_08_inclusion_exclusion():
    r = _run(8)
    assert r.ok, r.detail


def test_criterion_09_coefficient_theorems():
    r = _run(9)
    assert r.ok, r.detail


def test_criterion_10_identities():
    r = _run(10)
    assert r.ok, r.detail


def test_criterion_11_fixtures():
    r = _run(11)
    assert r.ok, r.detail


def test_criterion_12_f1_limit():
    r = _run(12)
    assert r.ok, r.detail


def test_criterion_13_determinism():
    r = _run(13)
    assert r.ok, r.detail


def test_criterion_13_parallel_leg_opens_a_pool(monkeypatch):
    # one of its searches passes the pool probe, so 13 compares serial with a pool
    import concurrent.futures

    opened = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(graphs, "_default_workers", lambda: 4)  # 2 workers open a pool on any host
    serial = _census_suite(1)
    assert not opened
    assert _census_suite(2) == serial and opened


def test_runtime_limit_is_enforced_on_red_and_green_criteria(monkeypatch):
    def slow(ok):
        time.sleep(0.01)
        return ok, "checked"

    monkeypatch.setitem(CRITERIA, 98, ("slow red", lambda: slow(False)))
    monkeypatch.setitem(CRITERIA, 99, ("slow green", lambda: slow(True)))
    monkeypatch.setitem(TIME_LIMITS, 98, 0.001)
    monkeypatch.setitem(TIME_LIMITS, 99, 0.001)
    for number in (98, 99):
        r = run_criterion(number)
        assert r.ok is False
        assert r.detail == "checked; exceeded the 0s runtime limit"


def test_a_criterion_that_raises_fails_with_the_error(monkeypatch):
    def boom():
        raise RuntimeError("engine fault")

    monkeypatch.setitem(CRITERIA, 97, ("raises", boom))
    r = run_criterion(97)
    assert (r.ok, r.detail, r.record) == (False, "raised RuntimeError: engine fault", None)
    assert r.line().startswith("FAIL criterion 97 (raises) [")


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; expected one of \["):
        verification.run_suite("nope")


def test_criterion_06_reports_a_structural_failure_and_stops(monkeypatch):
    # the first ring, n = 4, fails its max clique check: nothing is counted
    monkeypatch.setattr(verification, "max_clique_order", lambda g: -1)
    r = run_criterion(6)
    failure = "n=4: max clique search disagrees with min(q_i)+1"
    assert (r.ok, r.detail) == (False, failure)
    assert r.record.structural_failure == failure
    assert r.record.census == {} and not r.record.printed_mismatches
