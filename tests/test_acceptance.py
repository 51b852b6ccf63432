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

from ringline import graphs, identities, partitions, tables, verification
from ringline.formulas import comm_clique_count_vertex_sets
from ringline.graphs import Graph, count_cliques
from ringline.partitions import TwoDistinctPartition
from ringline.polynomials import IntPoly
from ringline.rings import local_graph, matrix_ring_graph, zn_local_decomposition
from ringline.verification import (
    COMMUTATIVE_ORDERS,
    CRITERIA,
    TIME_LIMITS,
    ProductFormulaRecord,
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


def _zero(*args):
    return IntPoly([0])


def _collapse_without_red_rows(x, real=partitions.dist2p_bijection):
    return real(x) if x.red else None


# name -> (criterion, [(module, name, value)], detail): each patch set
# breaks exactly one check, and the criterion must fail with that check's
# own message.  Criteria 9 and 10 import their helpers when they run, so
# those are patched in the module that defines them.
V = verification
CHECKS = {
    "1-point-count": (1, [(V, "qbinom", _zero)], "P(M_1(2)) has 3 points, polynomial says 0"),
    "1-fixed-values": (
        1,
        [(V, "_mrg", lambda m, q: Graph.empty(1)), (V, "qbinom", lambda n, k: IntPoly([1]))],
        "fixed values off: 1, 1",
    ),
    "2-degree": (2, [(V, "_mrg", lambda m, q: Graph.empty(3))], "q=2: degrees [0] != 16"),
    "2-codegree": (2, [(V, "gl_order", lambda m, q: 0)], "q=2: edge (0,10) codegree != 0"),
    "3-cap1N": (3, [(V, "cap1N_matrix", _zero)], "q=2: cap1N at vertex 0 != 0"),
    "3-cap2N": (3, [(V, "cap2N_matrix", _zero)], "q=2: cap2N at edge (0,10) != 0"),
    "4-extension": (4, [(V, "c_extension_poly", _zero)], "q=2: triangle extension 2 != C_23(2) = 0"),
    "4-oracle": (4, [(V, "mat_det", lambda a: 1)], "q=2: eigenvalue oracle over 16 matrices gives 16 != 2"),
    "4-fixed-values": (
        4,
        [(V, "extension_count", lambda g, s: 0), (V, "c_extension_poly", _zero), (V, "mat_det", lambda a: 0)],
        "values {2: 0, 3: 0} != {2: 2, 3: 27}",
    ),
    "5-max-clique": (5, [(V, "max_clique_order", lambda g: 0)], "max clique of P(M_2(2)) is 0, not 5"),
    "5-spread": (5, [(V, "spread_clique", lambda m, q: [])], "spread clique (2,2) has 0 points"),
    "6-crt": (6, [(V, "verify_isomorphism", lambda a, b, mapping: False)], "n=4: CRT map is not an isomorphism"),
    "6-profile": (
        6,
        [(V, "extension_profile", lambda g, k: {-1: 1})],
        "n=4,k=0: extension profile {-1: 1} not uniformly 6",
    ),
    "6-capnN": (6, [(V, "cap_n_N_comm", lambda spec, n: -1)], "n=4: cap1N oracle 2 != formula"),
    "8-weights": (8, [(V, "incexc_Wprime", lambda *args: 0)], "m=0,q=2: 0 != |GL| = 1"),
    "9-coefficients": (
        9,
        [(partitions, "coeffs_theorem_check", lambda m, k: False)],
        "coefficient identity fails at m=0, k=0",
    ),
    "9-parity": (
        9,
        [(partitions, "distcoeff_check", lambda m, k, h: False)],
        "parity-count identity fails at m=0, k=0, h=0",
    ),
    "9-injective": (
        9,
        [(partitions, "dist2p_bijection", _collapse_without_red_rows)],
        "cell-removal map not injective on D2(3,0)",
    ),
    "9-onto": (
        9,
        [(partitions, "dist2p_bijection", lambda x: (x,))],
        "cell-removal map not onto the union at h=1, k=1",
    ),
    "9-empty": (
        9,
        [
            (partitions, "distcoeff_check", lambda m, k, h: True),
            (partitions, "enumerate_D2", lambda h, k: [TwoDistinctPartition((), ())]),
        ],
        "D2(0,1) should be empty when h < k",
    ),
    "9-C-table": (
        9,
        [(tables, "c_coefficient_table_text", lambda: "")],
        "extension-count coefficient table is not byte-identical",
    ),
    "9-capkN-table": (
        9,
        [(tables, "capkN_coefficient_table_text", lambda: "")],
        "capkN coefficient table is not byte-identical",
    ),
    "10-lacunary": (
        10,
        [(identities, "lacunary_identity_check", lambda a, b: False)],
        "lacunary binomial identity fails below (13, 13)",
    ),
    "10-divisibility": (
        10,
        [(identities, "capN_divisibility_check", lambda spec, n: False)],
        "divisibility fails for Z/4, n=1",
    ),
    "10-mod-30": (10, [(V, "cap_n_N_comm", lambda spec, n: 1)], "cap5N not a multiple of 30 for Z/4"),
    "12-points": (12, [(V, "f1_graph", lambda m: Graph.empty(1))], "m=1: 1 vertices != C(2m,m) = 2"),
    "12-matching": (12, [(V, "f1_graph", lambda m: Graph.empty(2))], "m=1: graph is not 1-regular"),
    "12-q-to-1": (12, [(V, "qbinom", _zero)], "m=1: [2m,m]_q at q=1 differs from C(2m,m)"),
    "13-determinism": (
        13,
        [(V, "_census_suite", lambda w: [w]), (V, "_default_workers", lambda: 3)],
        "outputs differ between 1 worker and 3 workers",
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_each_failed_check_reports_its_own_message(monkeypatch, name):
    number, patches, detail = CHECKS[name]
    for module, attr, value in patches:
        monkeypatch.setattr(module, attr, value)
    r = run_criterion(number)
    assert (r.ok, r.detail) == (False, detail)


def test_criteria_06_and_07_pass_under_the_corrected_law(monkeypatch):
    # with the printed formula replaced by the vertex-set count, and with no
    # tensor census at all, the two red criteria take their green returns
    monkeypatch.setattr(verification, "comm_clique_count", comm_clique_count_vertex_sets)
    monkeypatch.setattr(verification, "_tensor_record", lambda: ProductFormulaRecord(None, {}, {}, {}))
    r = run_criterion(6)
    assert (r.ok, r.detail) == (
        True,
        "CRT isomorphisms, uniform extension counts, capnN values and max-clique "
        "orders all verified on 15 rings; k-clique counts match",
    )
    r = run_criterion(7)
    assert (r.ok, r.detail) == (True, "census of every tensor pair equals the product of factor censuses")


def test_product_formula_record_keeps_each_mismatch_apart():
    rec = ProductFormulaRecord(None, {}, {}, {})
    rec.add(("A", "B", 2), 18, 18, 36)
    rec.add(("A", "B", 3), 6, 1, 6)
    assert rec.census == {("A", "B", 2): 18, ("A", "B", 3): 6}
    assert rec.printed_mismatches == {("A", "B", 3): 1}
    assert rec.corrected_mismatches == {("A", "B", 2): 36}
