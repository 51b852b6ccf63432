"""Ring descriptions and the distant-graph constructors."""

from itertools import combinations
from math import comb, gcd

import pytest

from ringline.errors import BoundExceeded
from ringline.graphs import (
    Graph,
    blowup,
    complement,
    disjoint_union,
    verify_isomorphism,
)
from ringline.linalg import gl_order, identity, matrix, mat_rank, mat_vstack, zeros
from ringline.rings import (
    Local,
    MatrixRing,
    RingSpec,
    SubspacePoint,
    f1_graph,
    local_graph,
    matrix_ring_graph,
    matrix_ring_points,
    parse_ring_spec,
    point_from_pair,
    points_distant,
    ring_spec_json,
    spec_graph,
    spread_clique,
    unit_difference_graph,
    zn_crt_map,
    zn_local_decomposition,
    zn_projective_line,
)


def test_local_cardinality_validation():
    for R, J in [(2, 1), (4, 2), (8, 4), (9, 3), (16, 4), (25, 5), (27, 9), (32, 16), (4, 1)]:
        Local(R, J)
    for R, J in [(8, 2), (16, 2), (27, 3), (6, 1), (12, 4), (9, 2), (4, 3)]:
        with pytest.raises(ValueError):
            Local(R, J)
    assert Local(9, 3).q == 3


def test_matrix_ring_validation():
    MatrixRing(0, 2)
    MatrixRing(2, 9)
    with pytest.raises(ValueError):
        MatrixRing(-1, 2)
    with pytest.raises(ValueError):
        MatrixRing(2, 6)


def test_ring_spec_radical_and_warning():
    spec = RingSpec([Local(4, 2), Local(3, 1)])
    assert spec.radical_order == 2
    assert spec.is_commutative()
    with pytest.warns(UserWarning):
        RingSpec([Local(4, 2)], radical_multiplier=2)
    with pytest.raises(ValueError):
        RingSpec([], radical_multiplier=0)
    assert RingSpec([MatrixRing(2, 2)], radical_multiplier=3).radical_order == 3


def test_ring_spec_json_roundtrip():
    text = '{"summands":[{"local":{"R":4,"J":2}},{"matrix":{"m":2,"q":3}}],"radical":1}'
    spec = parse_ring_spec(text)
    assert spec.summands == (Local(4, 2), MatrixRing(2, 3))
    assert spec.radical_multiplier == 1
    assert parse_ring_spec(ring_spec_json(spec)) == spec
    with pytest.raises(ValueError):
        parse_ring_spec('{"summands":[{"weird":{}}]}')


def test_zn_local_decomposition():
    spec = zn_local_decomposition(12)
    assert spec.summands == (Local(4, 2), Local(3, 1))
    assert zn_local_decomposition(7).summands == (Local(7, 1),)


def test_local_graph_three_constructions_agree():
    for R, J in [(2, 1), (4, 2), (9, 3), (8, 4), (25, 5)]:
        q = R // J
        built = local_graph(R, J)
        assert built == blowup(Graph.complete(q + 1), J)
        assert built == complement(disjoint_union([Graph.complete(J)] * (q + 1)))
    assert local_graph(2, 1) == Graph.complete(3)
    g = local_graph(9, 3)
    assert g.n == 12 and g.regular_degree() == 9


def test_zn_projective_line_small_cases():
    assert zn_projective_line(2) == Graph.complete(3)
    g4 = zn_projective_line(4)
    assert g4.n == 6 and g4.regular_degree() == 4
    g6 = zn_projective_line(6)
    assert g6.n == 12 and g6.regular_degree() == 6
    assert g6.labels is not None and g6.labels[0] == "0:1"
    with pytest.raises(BoundExceeded):
        zn_projective_line(30, vertex_bound=50)


def test_zn_degree_equals_ring_order():
    for n in (4, 6, 9, 10, 12):
        assert zn_projective_line(n).regular_degree() == n


def test_zn_admissibility_matches_gl_orbit_definition():
    # gcd(a, b, n) = 1 iff (a, b) is the top row of some invertible matrix
    for n in range(2, 13):
        units = {u for u in range(n) if gcd(u, n) == 1}
        for a in range(n):
            for b in range(n):
                top_row_of_invertible = any(
                    (a * d - b * c) % n in units for c in range(n) for d in range(n)
                )
                assert top_row_of_invertible == (gcd(gcd(a, b), n) == 1)


def test_crt_map_is_isomorphism():
    for n in (6, 12, 15, 20, 30):
        g = zn_projective_line(n)
        h = spec_graph(zn_local_decomposition(n))
        assert verify_isomorphism(g, h, zn_crt_map(n))
    # prime power: identity-shaped map onto the single local factor
    g9 = zn_projective_line(9)
    h9 = spec_graph(zn_local_decomposition(9))
    assert verify_isomorphism(g9, h9, zn_crt_map(9))


def test_crt_map_validates_factorizations():
    with pytest.raises(ValueError):
        zn_crt_map(12, [6, 2])
    with pytest.raises(ValueError):
        zn_crt_map(12, [4, 5])


def test_crt_map_with_explicit_factor_order():
    # the mapping tracks the factor order it is given
    g = zn_projective_line(12)
    h = spec_graph(RingSpec([Local(3, 1), Local(4, 2)]))
    assert verify_isomorphism(g, h, zn_crt_map(12, [3, 4]))


def test_spec_graph_cases():
    assert spec_graph(RingSpec([])) == Graph.T()
    assert spec_graph(RingSpec([MatrixRing(1, 4)])) == Graph.complete(5)
    g = spec_graph(RingSpec([Local(2, 1), Local(3, 1)]))
    assert g.n == 12 and g.regular_degree() == 6
    doubled = spec_graph(RingSpec([MatrixRing(2, 2)], radical_multiplier=2))
    assert doubled.n == 70 and doubled.regular_degree() == 32


def test_matrix_ring_graph_point_counts_and_regularity():
    for q in (2, 3, 4, 5, 7, 8, 9):
        g = matrix_ring_graph(1, q)
        assert g == Graph.complete(q + 1)
    g = matrix_ring_graph(2, 2)
    assert g.n == 35 and g.regular_degree() == 16
    assert matrix_ring_graph(0, 5) == Graph.T()
    with pytest.raises(BoundExceeded):
        matrix_ring_graph(2, 3, vertex_bound=100)


def test_matrix_ring_codegree_is_gl_order():
    for q in (2, 3):
        g = matrix_ring_graph(2, q)
        want = gl_order(2, q)
        for u, v in g.edges():
            assert (g.adj[u] & g.adj[v]).bit_count() == want


def test_subspace_points_are_canonical():
    pts = matrix_ring_points(2, 2)
    assert len(pts) == 35
    labels = [p.label for p in pts]
    assert labels == sorted(labels)
    assert len(set(labels)) == 35
    SubspacePoint(matrix(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    SubspacePoint(matrix(2, [[1, 0, 1, 0], [0, 1, 0, 1]]))
    with pytest.raises(ValueError):
        SubspacePoint(matrix(2, [[0, 1, 0, 0], [1, 0, 0, 0]]))  # not in RREF order
    with pytest.raises(ValueError):
        SubspacePoint(matrix(2, [[1, 0, 0, 0], [0, 0, 0, 0]]))  # rank deficient


def test_point_from_pair_and_distance():
    eye = identity(2, 2)
    zero = zeros(2, 2, 2)
    p10 = point_from_pair(eye, zero)
    p01 = point_from_pair(zero, eye)
    p11 = point_from_pair(eye, eye)
    assert p10.label == "10000100"
    assert points_distant(p10, p01)
    assert points_distant(p10, p11) and points_distant(p01, p11)
    with pytest.raises(ValueError):
        point_from_pair(zero, zero)


def test_spread_cliques_verified_sizes():
    for m, q in [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2)]:
        pts = spread_clique(m, q)
        assert len(pts) == q**m + 1
        for p1, p2 in combinations(pts, 2):
            assert mat_rank(mat_vstack(p1.basis, p2.basis)) == 2 * m


def test_spread_clique_lives_inside_the_graph():
    g = matrix_ring_graph(2, 2)
    idx = [g.index_of(p.label) for p in spread_clique(2, 2)]
    from ringline.graphs import is_clique, is_inextensible

    assert is_clique(g, idx)
    assert is_inextensible(g, idx)


def test_unit_difference_graph():
    for q in (3, 5, 7):
        assert unit_difference_graph(1, q) == Graph.complete(q - 1)
    g = unit_difference_graph(2, 3)
    assert g.n == 48
    assert g.index_of("1001") >= 0
    assert unit_difference_graph(2, 5).n == 480
    with pytest.raises(BoundExceeded):
        unit_difference_graph(2, 5, vertex_bound=400)


def test_unit_difference_max_clique_attains_qm_minus_1():
    from ringline.graphs import max_clique_order

    assert max_clique_order(unit_difference_graph(2, 2)) == 3
    assert max_clique_order(unit_difference_graph(2, 3)) == 8
    assert max_clique_order(unit_difference_graph(2, 5), node_budget=2_000_000) == 24


def test_powers_of_primitive_matrix_form_a_unit_clique():
    # the q^m - 1 powers have pairwise invertible differences
    from ringline.fields import find_primitive, gf_of
    from ringline.linalg import companion_matrix, mat_det, mat_mul, mat_sub

    for m, q in [(2, 3), (2, 5)]:
        F = gf_of(q)
        u = companion_matrix(F, find_primitive(m, F))
        powers = [identity(F, m)]
        for _ in range(q**m - 2):
            powers.append(mat_mul(powers[-1], u))
        assert len(set(powers)) == q**m - 1
        for a, b in combinations(powers, 2):
            assert mat_det(mat_sub(a, b)) != 0


def test_f1_graphs_are_perfect_matchings():
    assert f1_graph(1) == Graph.complete(2)
    for m in (1, 2, 3, 4, 5):
        g = f1_graph(m)
        assert g.n == comb(2 * m, m)
        assert g.regular_degree() == 1
        assert g.edge_count() == g.n // 2
    with pytest.raises(BoundExceeded):
        f1_graph(5, vertex_bound=100)


def test_matrix_ring_graph_vertex_count_equals_subspace_census():
    # independent subspace count: RREF profiles summed by pivot choice
    for m, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        total = 0
        for pivots in combinations(range(2 * m), m):
            free = sum(
                1
                for i in range(m)
                for j in range(2 * m)
                if j > pivots[i] and j not in pivots
            )
            total += q**free
        assert matrix_ring_graph(m, q).n == total
