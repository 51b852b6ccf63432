"""Closed-form counts against the brute-force graph oracles."""

import contextlib
import inspect
import sys
import warnings
from functools import lru_cache
from itertools import product as iproduct
from math import comb, prod

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from ringline.errors import BoundExceeded, BudgetExceeded
from ringline.fields import gf_build
from ringline.linalg import gl_order
from ringline.formulas import (
    c_extension_poly,
    cap1N_matrix,
    cap1N_product,
    cap2N_matrix,
    cap2N_product,
    cap_k_N_from_extensions,
    cap_n_N_comm,
    comm_clique_count,
    comm_clique_count_vertex_sets,
    comm_extension_count,
    comm_max_clique,
    general_max_clique,
    incexc_Wprime,
    matrix_codegree,
    matrix_degree,
    matrix_point_count,
    qbinom,
    radical_scale,
)
from ringline.graphs import (
    blowup,
    count_cliques,
    extension_profile,
    find_clique,
    is_clique,
    max_clique_order,
    neighborhood_intersection_count,
    tensor_product,
)
from ringline.linalg import MatrixGF, gl_order, identity, mat_det, mat_sub
from ringline.rings import (
    Local,
    MatrixRing,
    RingSpec,
    matrix_ring_graph,
    spec_graph,
    zn_local_decomposition,
    zn_projective_line,
)


def test_qbinom_table_values():
    assert qbinom(4, 2).render() == "q^4+q^3+2q^2+q+1"
    assert qbinom(6, 3).render() == "q^9+q^8+2q^7+3q^6+3q^5+3q^4+3q^3+2q^2+q+1"
    assert qbinom(5, 0) == 1
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def test_qbinom_symmetry_and_q1_limit():
    for n in range(9):
        for k in range(n + 1):
            assert qbinom(n, k) == qbinom(n, n - k)
            assert qbinom(n, k)(1) == comb(n, k)


@lru_cache(maxsize=None)
def pascal(n, k):
    """[n, k]_q by the q-Pascal rule [n-1, k-1] + q^k [n-1, k], as coefficients."""
    if k in (0, n):
        return (1,)
    low, high = pascal(n - 1, k - 1), (0,) * k + pascal(n - 1, k)
    return tuple(map(sum, zip(low + (0,) * (len(high) - len(low)), high)))


def test_qbinom_matches_q_pascal_and_the_product_formula():
    for n in range(17):
        for k in range(n + 1):
            assert qbinom(n, k).coeffs == pascal(n, k), (n, k)
    for n in range(41):
        for k in range(n + 1):
            for q in (2, 3, 5):
                num = den = 1
                for i in range(k):
                    num *= q ** (n - i) - 1
                    den *= q ** (i + 1) - 1
                assert num % den == 0 and qbinom(n, k)(q) == num // den, (n, k, q)


def test_matrix_point_count_needs_no_recursion_depth():
    # the memoised q-Pascal recursion went about 2m frames deep, so the
    # default limit of 1000 stopped it near m = 250; here m = 80 must build
    # within 50 frames of the caller
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        poly = matrix_point_count(80)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 80 * 80 and poly(1) == comb(160, 80)
    num = den = 1
    for i in range(80):
        num *= 2 ** (160 - i) - 1
        den *= 2 ** (i + 1) - 1
    assert poly(2) == num // den


def test_qbinom_counts_subspaces():
    # dual route: polynomial value vs number of vertices of the subspace graph
    for m, q in [(1, 2), (1, 5), (2, 2), (2, 3)]:
        assert qbinom(2 * m, m)(q) == matrix_ring_graph(m, q).n


def test_comm_clique_count_local_matches_census():
    for n in (4, 9, 25, 8):
        spec = zn_local_decomposition(n)
        census = count_cliques(zn_projective_line(n), comm_max_clique(spec) + 1)
        for k, got in census.counts.items():
            assert got == comm_clique_count(spec, k)
            assert got == comm_clique_count_vertex_sets(spec, k)


def test_comm_clique_count_product_rings_needs_matching_factor():
    # the printed product formula undercounts for s >= 2 summands; the
    # (k!)^(s-1)-corrected count is what the graph census produces
    for n in (6, 12, 30):
        spec = zn_local_decomposition(n)
        census = count_cliques(zn_projective_line(n), comm_max_clique(spec) + 1)
        for k, got in census.counts.items():
            assert got == comm_clique_count_vertex_sets(spec, k)
            if k >= 2 and got:
                assert got != comm_clique_count(spec, k)
    spec6 = zn_local_decomposition(6)
    assert comm_clique_count(spec6, 2) == 18
    assert comm_clique_count_vertex_sets(spec6, 2) == 36
    assert comm_clique_count(spec6, 0) == 1


def test_comm_extension_count_matches_profiles():
    for n in (4, 6, 12):
        spec = zn_local_decomposition(n)
        g = zn_projective_line(n)
        for k in range(comm_max_clique(spec) + 1):
            assert extension_profile(g, k) == {
                comm_extension_count(spec, k): count_cliques(g, k).counts[k]
            }
    spec6 = zn_local_decomposition(6)
    assert comm_extension_count(spec6, 1) == 6
    assert comm_extension_count(spec6, 3) == 0
    assert comm_extension_count(zn_local_decomposition(4), 1) == 4


def test_comm_formulas_reject_matrix_specs():
    spec = RingSpec([MatrixRing(2, 2)])
    for func in (comm_clique_count, comm_extension_count, cap_n_N_comm):
        with pytest.raises(ValueError):
            func(spec, 1)
    with pytest.raises(ValueError):
        comm_max_clique(spec)


def test_comm_formulas_accept_field_and_trivial_summands():
    # M_1(q) is the field F_q and M_0(q) the trivial ring: commutative,
    # with the counts of the graph spec_graph builds for them
    for spec in (
        RingSpec([MatrixRing(1, 5)]),
        RingSpec([MatrixRing(1, 5), Local(4, 2)]),
        RingSpec([MatrixRing(0, 3), Local(5, 1)]),
        RingSpec([MatrixRing(1, 4), MatrixRing(1, 3)], radical_multiplier=2),
        RingSpec([MatrixRing(1, 2), Local(9, 3)]),
    ):
        assert spec.is_commutative()
        assert not RingSpec([*spec.summands, MatrixRing(2, 2)]).is_commutative()
        g = spec_graph(spec)
        top = comm_max_clique(spec)
        assert top == max_clique_order(g)
        census = count_cliques(g, top + 1).as_list()
        assert census == [comm_clique_count_vertex_sets(spec, k) for k in range(top + 2)]
        for k in range(top + 1):
            assert extension_profile(g, k) == {comm_extension_count(spec, k): census[k]}
            assert cap_n_N_comm(spec, k) == neighborhood_intersection_count(g, find_clique(g, k))


def test_max_clique_formulas():
    assert comm_max_clique(zn_local_decomposition(6)) == 3
    assert general_max_clique(RingSpec([MatrixRing(2, 2)])) == 5
    assert general_max_clique(RingSpec([MatrixRing(2, 2), Local(3, 1)])) == 4
    with pytest.raises(ValueError):
        general_max_clique(RingSpec([MatrixRing(0, 2)]))
    # oracle: search the 140-vertex tensor graph
    g = tensor_product(matrix_ring_graph(2, 2), matrix_ring_graph(1, 3))
    assert max_clique_order(g) == 4


def test_cap_n_N_comm_values_and_oracle():
    assert cap_n_N_comm(zn_local_decomposition(6), 2) == 2
    for q in (2, 3, 5, 7):
        assert cap_n_N_comm(RingSpec([Local(q, 1)]), 1) == 1
    assert cap_n_N_comm(zn_local_decomposition(4), 1) == 2
    for n in (4, 6, 9, 12, 18):
        spec = zn_local_decomposition(n)
        g = zn_projective_line(n)
        for nn in range(1, comm_max_clique(spec) + 1):
            clique = find_clique(g, nn)
            assert neighborhood_intersection_count(g, clique) == cap_n_N_comm(spec, nn)


def test_matrix_polynomials_fixed_forms():
    assert matrix_point_count(1).render() == "q+1"
    assert matrix_degree(1).render() == "q"
    assert matrix_codegree(1).render() == "q-1"
    assert matrix_degree(2)(3) == 81
    assert matrix_codegree(2)(2) == 6
    assert cap1N_matrix(2).render() == "q^3+2q^2+q+1"
    assert cap2N_matrix(2).render() == "q^2+2q+1"
    assert cap2N_matrix(3).render() == "q^7+3q^6+4q^5+4q^4+2q^3+2q^2+q+1"
    assert cap1N_matrix(0) == 0 and cap2N_matrix(0) == 0
    assert cap1N_matrix(1) == 1 and cap2N_matrix(1) == 0


def test_matrix_polynomial_identities():
    for m in range(6):
        assert cap1N_matrix(m) == matrix_point_count(m) - matrix_degree(m)
        assert cap2N_matrix(m) == (
            matrix_point_count(m) - 2 * matrix_degree(m) + matrix_codegree(m)
        )
        assert matrix_codegree(m)(2) == gl_order(m, 2)


def test_matrix_degree_matches_graph():
    for q in (2, 3):
        g = matrix_ring_graph(2, q)
        assert g.regular_degree() == matrix_degree(2)(q)
        v = 0
        assert neighborhood_intersection_count(g, [v]) == cap1N_matrix(2)(q)
        e = find_clique(g, 2)
        assert neighborhood_intersection_count(g, e) == cap2N_matrix(2)(q)


def test_incexc_Wprime():
    assert incexc_Wprime(3, 0, [0, 0, 0, 0], 2) == 0
    for m in range(5):
        for q in (2, 3, 4, 5):
            zero_capture = [q ** (m * (m - i)) for i in range(m + 1)]
            assert incexc_Wprime(m, 0, zero_capture, q) == gl_order(m, q)
    with pytest.raises(ValueError):
        incexc_Wprime(3, 0, [1, 1], 2)
    with pytest.raises(ValueError):
        incexc_Wprime(2, 3, [1, 1, 1], 2)


def test_incexc_identity_capture_against_exhaustive_count():
    # elements fixing a k-subspace pointwise, counted two ways
    for q in (2, 3):
        m = 2
        F = gf_build(q)
        weights = [q ** (k * (m - k)) * gl_order(m - k, q) for k in range(m + 1)]
        got = incexc_Wprime(m, 0, weights, q)
        eye = identity(F, m)
        brute = 0
        for entries in iproduct(range(q), repeat=4):
            mat = MatrixGF(F, (entries[0:2], entries[2:4]))
            if mat_det(mat) != 0 and mat_det(mat_sub(mat, eye)) != 0:
                brute += 1
        assert got == brute
    assert incexc_Wprime(2, 0, [48, 6, 1], 3) == 27


def test_c_extension_poly_paper_values():
    assert c_extension_poly(0, 3) == 1
    assert c_extension_poly(1, 3).render() == "q-2"
    assert c_extension_poly(2, 3).render() == "q^4-2q^3-q^2+3q"
    assert c_extension_poly(2, 3)(2) == 2
    assert c_extension_poly(2, 3)(3) == 27
    assert c_extension_poly(3, 0) == qbinom(6, 3)
    assert c_extension_poly(2, 1) == matrix_degree(2)
    assert c_extension_poly(4, 2) == matrix_codegree(4)
    with pytest.raises(ValueError):
        c_extension_poly(2, 4)
    for k in range(4):
        with pytest.raises(ValueError, match="negative dimension"):
            c_extension_poly(-1, k)
    for negative in (matrix_degree, matrix_codegree, matrix_point_count, lambda m: gl_order(m, 3)):
        for m in (-1, -2, -3):
            with pytest.raises(ValueError, match="negative dimension"):
                negative(m)


def test_negative_clique_size_is_refused_before_the_factorial():
    spec = RingSpec([Local(4, 2), Local(5, 1)])
    for count in (comm_clique_count, comm_clique_count_vertex_sets):
        with pytest.raises(ValueError, match="k must be >= 0"):
            count(spec, -1)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: comm_extension_count(RingSpec([Local(5, 1)]), -1), "k must be >= 0"),
        (lambda: cap_n_N_comm(RingSpec([Local(5, 1)]), -1), "n must be >= 0"),
        (lambda: c_extension_poly(2, -1), "k must be >= 0"),
    ],
    ids=["extension-count-k", "capnN-n", "extension-poly-k"],
)
def test_negative_sizes_are_refused(call, want):
    with pytest.raises(ValueError, match=f"^{want}$"):
        call()


def test_c_extension_poly_forms_agree_up_to_m6():
    # the sum and nested forms are asserted equal inside; just drive them
    for m in range(7):
        c_extension_poly(m, 3)


def test_extension_polynomials_telescope_the_census():
    # N_k = N_{k-1} * C_{m,k-1}(q) / k while extensions stay uniform (k <= 3),
    # so the census of P(M_2(q)) is determined by the four polynomials
    for q in (2, 3):
        census = count_cliques(matrix_ring_graph(2, q), 4).counts
        expected = 1
        for k in range(1, 5):
            expected = expected * c_extension_poly(2, k - 1)(q) // k
            assert census[k] == expected


def test_triangle_extension_matches_polynomial():
    from ringline.graphs import extension_count
    from ringline.rings import point_from_pair
    from ringline.linalg import identity as eye, zeros

    for q in (2, 3):
        g = matrix_ring_graph(2, q)
        one, zero = eye(q, 2), zeros(q, 2, 2)
        tri = [
            g.index_of(point_from_pair(one, zero).label),
            g.index_of(point_from_pair(zero, one).label),
            g.index_of(point_from_pair(one, one).label),
        ]
        assert extension_count(g, tri) == c_extension_poly(2, 3)(q)


def test_cap_k_N_from_extensions():
    values = [35, 16, 6, 2]
    assert [cap_k_N_from_extensions(values, k) for k in range(4)] == [35, 19, 9, 3]
    with pytest.raises(ValueError):
        cap_k_N_from_extensions([1, 2], 2)
    # the k = 3 value against the triple-neighbourhood oracle
    g = matrix_ring_graph(2, 2)
    tri = find_clique(g, 3)
    assert neighborhood_intersection_count(g, tri) == 3


def test_cap_products_and_radical_scaling():
    assert cap1N_product(RingSpec([MatrixRing(2, 2)])) == 19
    assert cap2N_product(RingSpec([MatrixRing(2, 2)])) == 9
    # fields are the m = 1 matrix rings
    assert cap1N_product(RingSpec([Local(3, 1)])) == cap1N_matrix(1)(3) == 1
    assert cap2N_product(RingSpec([Local(3, 1)])) == 0
    assert radical_scale(19, 1) == 19
    assert radical_scale(19, 2) == 38
    assert radical_scale(0, 7) == 0
    with pytest.raises(ValueError):
        radical_scale(3, 0)
    with pytest.raises(ValueError):
        cap1N_product(RingSpec([Local(4, 2)]))

    # two matrix summands, against the tensor-graph oracle
    spec = RingSpec([MatrixRing(2, 2), MatrixRing(1, 3)])
    g = tensor_product(matrix_ring_graph(2, 2), matrix_ring_graph(1, 3))
    assert cap1N_product(spec) == neighborhood_intersection_count(g, [0])
    e = find_clique(g, 2)
    assert cap2N_product(spec) == neighborhood_intersection_count(g, e)

    # global radical blow-up doubles every capN value
    spec2 = RingSpec([MatrixRing(2, 2)], radical_multiplier=2)
    h = blowup(matrix_ring_graph(2, 2), 2)
    assert cap1N_product(spec2) == 38 == neighborhood_intersection_count(h, [0])
    e2 = find_clique(h, 2)
    assert cap2N_product(spec2) == neighborhood_intersection_count(h, e2)


def test_local_summand_is_the_m1_matrix_summand():
    # a local summand's graph is a blow-up of P(F_q) = K_{q+1}
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert [c_extension_poly(1, k)(q) for k in range(4)] == [q + 1 - k for k in range(4)]
    # products mixing the two kinds, against their tensor-graph oracles
    for spec in (
        RingSpec([MatrixRing(2, 2), Local(3, 1)]),
        RingSpec([MatrixRing(1, 4), Local(5, 1)], radical_multiplier=2),
    ):
        g = spec_graph(spec)
        assert cap1N_product(spec) == neighborhood_intersection_count(g, [0])
        assert cap2N_product(spec) == neighborhood_intersection_count(g, find_clique(g, 2))


# The summand pool of the drawn-spec test: local rings, the matrix rings
# M_m(q) for m <= 3 (m = 0 is the trivial ring, whose graph is T), and a
# radical multiplier of 1-3.  Specs over SPEC_BOUND vertices are not built,
# and each count is checked up to the largest k whose census keeps within
# SPEC_BUDGET nodes, so that the test stays near two seconds.
SPEC_POOL = (
    [Local(q, 1) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [Local(4, 2), Local(8, 4), Local(9, 3), Local(16, 4), Local(27, 9)]
    + [MatrixRing(m, q) for m in range(4) for q in (2, 3, 4, 5, 7, 9)]
)
SPEC_BOUND = 1400
SPEC_BUDGET = 20_000


def census_within_budget(g, kmax: int) -> list[int]:
    """The census to the largest k <= kmax whose walk keeps within SPEC_BUDGET."""
    counts = [1]
    for k in range(1, kmax + 1):
        try:
            counts = count_cliques(g, k, node_budget=SPEC_BUDGET).as_list()
        except BudgetExceeded:
            break
    return counts


@seed(2401)
@settings(max_examples=40, deadline=None, database=None)
@given(
    summands=st.lists(st.sampled_from(SPEC_POOL), min_size=1, max_size=3),
    multiplier=st.integers(1, 3),
)
@example(summands=[MatrixRing(3, 2)], multiplier=1)
@example(summands=[MatrixRing(2, 3)], multiplier=2)
@example(summands=[MatrixRing(2, 2), Local(9, 3)], multiplier=1)
@example(summands=[Local(4, 2), Local(3, 1), MatrixRing(0, 2)], multiplier=3)
def test_closed_forms_against_the_graph_of_drawn_specs(summands, multiplier):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a global multiplier beside local radicals
        spec = RingSpec(summands, radical_multiplier=multiplier)
    fields = [s for s in spec.summands if s.m]
    assume(fields or multiplier == 1)  # T has no blow-up
    try:
        g = spec_graph(spec, vertex_bound=SPEC_BOUND)
    except BoundExceeded:
        assume(False)
    if not fields:
        # the trivial ring: T, a clique of every order
        assert g.is_T
        with pytest.raises(ValueError, match="^trivial ring: a clique of every order exists$"):
            general_max_clique(spec)
        return
    omega = general_max_clique(spec)
    # products and blow-ups carry no generators, and the plain branch and
    # bound can run past the budget on them; then the witness and the
    # census are the oracles for omega
    with contextlib.suppress(BudgetExceeded):
        assert max_clique_order(g, node_budget=SPEC_BUDGET) == omega
    witness = find_clique(g, omega)
    assert len(witness) == omega and is_clique(g, witness)
    counts = census_within_budget(g, omega + 1)
    if len(counts) == omega + 2:
        assert counts[omega] > 0 == counts[omega + 1]
    # the common neighbours of a k-clique: |J| * prod_s C_{m_s,k}(q_s)
    for k in range(min(len(counts), 4, omega + 1)):
        extension = spec.radical_order * prod(c_extension_poly(s.m, k)(s.q) for s in fields)
        assert extension_profile(g, k, node_budget=SPEC_BUDGET) == {extension: counts[k]}
    if all(s.J_order == 1 for s in spec.summands):
        assert cap1N_product(spec) == neighborhood_intersection_count(g, find_clique(g, 1))
        if omega >= 2:
            assert cap2N_product(spec) == neighborhood_intersection_count(g, find_clique(g, 2))
    if spec.is_commutative():
        assert comm_max_clique(spec) == omega
        assert counts == [comm_clique_count_vertex_sets(spec, k) for k in range(len(counts))]
        if len(fields) == 1:
            assert counts == [comm_clique_count(spec, k) for k in range(len(counts))]
        for k in range(min(len(counts), omega + 1)):
            assert extension_profile(g, k, node_budget=SPEC_BUDGET) == {comm_extension_count(spec, k): counts[k]}
            clique = find_clique(g, k)
            assert cap_n_N_comm(spec, k) == neighborhood_intersection_count(g, clique)
