"""Ring descriptions and the distant-graph constructors."""

import pickle
import random
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from ringline.errors import BoundExceeded
from ringline.graphs import (
    Graph,
    _symmetry,
    blowup,
    complement,
    disjoint_union,
    verify_isomorphism,
)
from ringline.fields import gf_of
from ringline.formulas import cap_n_N_comm, comm_max_clique, general_max_clique
from ringline.linalg import (
    _det,
    enumerate_gl,
    gl_order,
    identity,
    mat_det,
    mat_hstack,
    mat_rank,
    mat_sub,
    mat_vstack,
    matrix,
    matrix_label,
    rref,
    zeros,
)
from ringline.rings import (
    Local,
    MatrixRing,
    RingSpec,
    SubspacePoint,
    _pairing_rows,
    _plucker,
    f1_graph,
    local_graph,
    matrix_ring_graph,
    matrix_ring_points,
    parse_ring_spec,
    point_from_pair,
    points_distant,
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


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: zn_local_decomposition(1), "n must be >= 2"),
        (lambda: zn_projective_line(1), "n must be >= 2"),
        (lambda: SubspacePoint(matrix(2, [[1, 0, 0]])), "basis must be m x 2m"),
        (lambda: spread_clique(0, 2), "m must be >= 1"),
        (lambda: f1_graph(0), "m must be >= 1"),
    ],
    ids=["zn-decomposition-1", "zn-line-1", "subspace-shape", "spread-m0", "f1-m0"],
)
def test_input_checks(call, want):
    with pytest.raises(ValueError, match=f"^{want}$"):
        call()


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


def test_records_compare_by_type_and_fields():
    a, b = Local(4, 2), Local(J_order=2, R_order=4)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != MatrixRing(4, 2) and len({a, b, MatrixRing(4, 2)}) == 2
    assert a != Local(8, 4) and a != (4, 2)
    spec = RingSpec([Local(3, 1), MatrixRing(2, 3)], 2)
    assert repr(a) == "Local(R_order=4, J_order=2)"
    assert repr(spec) == "RingSpec(summands=(Local(R_order=3, J_order=1), MatrixRing(m=2, q=3)), radical_multiplier=2)"
    assert pickle.loads(pickle.dumps(spec)) == spec
    for record, name in ((a, "R_order"), (spec, "summands"), (a, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 8)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert a.R_order == 4 and spec.summands == (Local(3, 1), MatrixRing(2, 3))
    for args, kwargs in (((4,), {}), ((4, 2, 1), {}), ((4,), {"R_order": 4}), ((4,), {"j": 2})):
        with pytest.raises(TypeError):
            Local(*args, **kwargs)
    with pytest.raises(ValueError):  # keyword construction validates too
        Local(R_order=8, J_order=2)


def test_ring_spec_json_roundtrip():
    text = '{"summands":[{"local":{"R":4,"J":2}},{"matrix":{"m":2,"q":3}}],"radical":1}'
    spec = parse_ring_spec(text)
    assert spec.summands == (Local(4, 2), MatrixRing(2, 3))
    assert spec.radical_multiplier == 1
    with pytest.raises(ValueError):
        parse_ring_spec('{"summands":[{"weird":{}}]}')


def test_zn_local_decomposition():
    spec = zn_local_decomposition(12)
    assert spec.summands == (Local(4, 2), Local(3, 1))
    assert zn_local_decomposition(7).summands == (Local(7, 1),)


def test_summands_past_the_graph_bounds_stay_usable_in_formulas():
    # the vertex and field bounds are checked by the graph builders, with the
    # caller's bound, and never at parse time
    assert comm_max_clique(zn_local_decomposition(20011)) == 20012
    assert cap_n_N_comm(RingSpec([Local(32768, 1)]), 1) == 1
    spec = parse_ring_spec('{"summands":[{"local":{"R":32768,"J":1}},{"matrix":{"m":2,"q":1031}}]}')
    assert general_max_clique(spec) == 32769
    with pytest.raises(BoundExceeded, match="20012 vertices exceed bound 20005"):
        local_graph(20011, 1, vertex_bound=20005)
    with pytest.raises(BoundExceeded, match="field size 1031 exceeds bound 512"):
        matrix_ring_graph(2, 1031, vertex_bound=10**13)
    with pytest.raises(BoundExceeded, match="no prime factor up to"):
        zn_projective_line(2**61 - 1)


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


def zn_pair_rows(g: Graph, n: int) -> list[int]:
    """Adjacency by the pair determinant: (a:b) ~ (c:d) iff ad - bc is a unit mod n."""
    verts = [tuple(map(int, label.split(":"))) for label in g.labels]
    rows = [0] * g.n
    for i, j in combinations(range(g.n), 2):
        (a, b), (c, d) = verts[i], verts[j]
        if gcd(a * d - b * c, n) == 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


@pytest.mark.parametrize("n", list(range(2, 61)) + [120, 132, 138, 154])
def test_zn_residue_rows_equal_pair_determinants(n):
    g = zn_projective_line(n)
    assert list(g.adj) == zn_pair_rows(g, n)


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


def test_spread_clique_checks_its_points_are_distant(monkeypatch):
    import ringline.rings

    monkeypatch.setattr(ringline.rings, "points_distant", lambda p1, p2: False)
    with pytest.raises(AssertionError, match="^spread construction produced non-distant points$"):
        spread_clique(2, 2)


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
    with pytest.raises(ValueError):
        unit_difference_graph(0, 3)
    # refused from 2^(m(m-1)/2) alone, before the slow exact |GL_m(q)|
    with pytest.raises(BoundExceeded, match=r"^GL_200\(2\) has at least 2\^19900 elements, bound 20000$"):
        unit_difference_graph(200, 2)


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


@pytest.mark.parametrize("m, q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (3, 3)])
def test_minors_from_smaller_minors_equal_determinants(m, q):
    rng = random.Random(m * 100 + q)
    F = gf_of(q)
    bases = [[[rng.randrange(q) for _ in range(2 * m)] for _ in range(m)] for _ in range(40)]
    subsets = list(combinations(range(2 * m), m))
    for rows, minors in zip(bases, _plucker(F, m, bases)):
        assert minors == tuple(_det(F, [[row[c] for c in cols] for row in rows]) for cols in subsets)


# every family is vertex-transitive, and its generators show it; the ones
# that fix vertex 0 move its neighbours as few suborbits
FAMILIES = (
    [("Z", n) for n in list(range(2, 61)) + [132, 138]]
    + [("M", 1, q) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    + [("M", 2, q) for q in (2, 3, 4, 5)]
    + [("M", 3, 2)]
    + [("GL", 1, q) for q in (3, 4, 5, 7, 8, 9)]
    + [("GL", 2, q) for q in (2, 3, 4, 5)]
    + [("GL", 3, 2)]
)
BUILD = {"Z": zn_projective_line, "M": matrix_ring_graph, "GL": unit_difference_graph}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: "-".join(map(str, f)))
def test_ring_generators_give_one_orbit(family):
    kind, *args = family
    g = BUILD[kind](*args)
    orbit_of, orbits = _symmetry(g)
    assert g.generators and [orbit[:2] for orbit in orbits] == [(0, g.n)] and set(orbit_of.values()) == {0}
    ((_, _, suborbits),) = orbits
    if kind == "GL" and args[0] == 1:
        assert suborbits is None  # GL_1(q) is abelian: no generator fixes vertex 0
        return
    assert sum(size for _, size, _, _ in suborbits) == g.degree(0)
    assert all(g.adj[0] >> s & 1 for s, _, _, _ in suborbits)
    sizes = sorted(size for _, size, _, _ in suborbits)
    if kind == "GL":
        partition = gl_suborbit_partition(*args)
        assert suborbit_sets(g) == partition
        assert [(s, size) for s, size, _, _ in suborbits] == sorted((min(orbit), len(orbit)) for orbit in partition)
        assert sizes == GL_SUBORBIT_SIZES[tuple(args)]
    else:
        assert sizes == [g.degree(0)]


def test_matrix_line_moves_vertex_0_by_the_block_swap(monkeypatch):
    # the generator that moves vertex 0 is [[0, I], [I, 0]], so a build
    # searches a primitive polynomial of degree m only, never of degree 2m
    import ringline.rings

    degrees = []
    search = ringline.rings.find_primitive
    monkeypatch.setattr(ringline.rings, "find_primitive", lambda n, F: degrees.append(n) or search(n, F))
    for m, q in [(1, 4), (2, 3), (3, 2)]:
        degrees.clear()
        g = matrix_ring_graph(m, q)
        assert degrees == [m]
        swap = g.generators[0]
        assert g.labels[0] == matrix_label(mat_hstack(zeros(q, m, m), identity(q, m)))
        assert g.labels[swap[0]] == matrix_label(mat_hstack(identity(q, m), zeros(q, m, m)))
        assert all(swap[swap[v]] == v for v in range(g.n))


# sorted suborbit sizes of vertex 0 of the GL_m(q) unit-difference graphs
GL_SUBORBIT_SIZES = {
    (2, 2): [2],
    (2, 3): [1, 6, 8, 12],
    (2, 4): [2, 12, 12, 20, 24, 24, 30],
    (2, 5): [1, 2, 20, 20, 24, 30, 40, 40, 40, 40, 48, 60],
    (3, 2): [48],
}


def suborbit_sets(g: Graph) -> set[frozenset[int]]:
    """The orbits on the neighbours of vertex 0 of the generators fixing it."""
    fixing = [sigma for sigma in g.generators if sigma[0] == 0]
    out, seen = set(), set()
    for v in range(g.n):
        if g.has_edge(0, v) and v not in seen:
            orbit, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for sigma in fixing:
                    if sigma[u] not in orbit:
                        orbit.add(sigma[u])
                        stack.append(sigma[u])
            out.add(frozenset(orbit))
            seen |= orbit
    return out


def gl_suborbit_partition(m: int, q: int) -> set[frozenset[int]]:
    """The suborbits of vertex 0 of the unit-difference graph of GL_m(q), found
    without its generators.  Vertex 0 is the antidiagonal J = J^-1.  Put
    Y = X J for each X with X - J invertible.  The elements of GL_2(M_m(q))
    that fix the point (J | I) and the pair of points 0 and infinity of the
    projective line conjugate the Y, and those that swap 0 and infinity
    also invert them (Blunck & Havlicek 2000).  So the suborbits are the
    conjugacy classes of the Y, each merged with the class of the inverses.
    A class of GL_2(q) is given by its rational canonical form: trace,
    determinant and whether Y is scalar; a class of GL_3(2) is found by
    conjugating with every element."""
    F = gf_of(q)
    add, mul = F._add, F._mul
    mats = [mt.rows for mt in enumerate_gl(m, F)]
    J = mats[0]
    eye = identity(F, m).rows
    assert J == tuple(tuple(int(i + j == m - 1) for j in range(m)) for i in range(m))

    def dot(row, col):
        total = 0
        for x, y in zip(row, col):
            total = add[total][mul[x][y]]
        return total

    def times(a, b):
        return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)

    def inverse(a):
        power = a
        while times(power, a) != eye:
            power = times(power, a)
        return power

    if m == 2:
        def cls(y):
            scalar = y[0][1] == y[1][0] == 0 and y[0][0] == y[1][1]
            return add[y[0][0]][y[1][1]], _det(F, y), scalar
    else:
        assert (m, q) == (3, 2)
        pairs = [(a, inverse(a)) for a in mats]

        def cls(y):
            return frozenset(times(times(b, y), a) for a, b in pairs)

    classes: dict = {}
    partner: dict = {}
    for v, x in enumerate(mats):
        if _det(F, mat_sub(matrix(F, x), matrix(F, J)).rows):
            y = times(x, J)
            key = cls(y)
            classes.setdefault(key, set()).add(v)
            partner[key] = cls(inverse(y))
    return {frozenset(vs | classes[partner[key]]) for key, vs in classes.items()}


# ---------------------------------------------------------------------------
# the Plücker-pairing kernel against the determinant path
# ---------------------------------------------------------------------------


def graph_from_predicate(items, adjacent, labels):
    rows = [0] * len(items)
    for i, j in combinations(range(len(items)), 2):
        if adjacent(items[i], items[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(len(items), rows, labels)


# m = 1 at q = 64, 128 runs the O(q) gather on wide fields
@pytest.mark.parametrize(
    "m, q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9, 64, 128)] + [(2, 2), (2, 3), (2, 4)]
)
def test_matrix_ring_graph_equals_determinant_path(m, q):
    pts = matrix_ring_points(m, q)
    want = graph_from_predicate(pts, points_distant, [p.label for p in pts])
    got = matrix_ring_graph(m, q)
    assert got.adj == want.adj and got.labels == want.labels


# (2, 5) is the GL_2(5) graph of the search-ring benchmark
@pytest.mark.parametrize("m, q", [(1, 64), (1, 128), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_unit_difference_graph_equals_determinant_path(m, q):
    mats = enumerate_gl(m, q)
    want = graph_from_predicate(
        mats, lambda a, b: mat_det(mat_sub(a, b)) != 0, [matrix_label(a) for a in mats]
    )
    got = unit_difference_graph(m, q)
    assert got.adj == want.adj and got.labels == want.labels


def square(m, q):
    return st.lists(st.integers(0, q - 1), min_size=m * m, max_size=m * m).map(
        lambda xs: matrix(q, [xs[i * m : (i + 1) * m] for i in range(m)])
    )


def pairing_distant(F, m, u, w):
    """Adjacency of the two bases u, w as the kernel decides it."""
    return _pairing_rows(F, m, _plucker(F, m, [u.rows, w.rows]))[0] == 0b10


# odd q included: in characteristic 2 every Laplace sign is +1
@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring=st.sampled_from([(2, 5), (3, 2), (3, 3)]))
def test_pairing_agrees_with_points_distant(data, ring):
    m, q = ring
    F = gf_of(q)
    a, b, c, d = (data.draw(square(m, q)) for _ in range(4))
    assume(mat_rank(mat_hstack(a, b)) == m and mat_rank(mat_hstack(c, d)) == m)
    p1 = SubspacePoint(rref(mat_hstack(a, b)))
    p2 = SubspacePoint(rref(mat_hstack(c, d)))
    assert pairing_distant(F, m, p1.basis, p2.basis) == points_distant(p1, p2)
    # the pairing does not need echelon bases
    assert pairing_distant(F, m, mat_hstack(a, b), mat_hstack(c, d)) == points_distant(p1, p2)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring=st.sampled_from([(2, 3), (2, 5), (2, 7), (2, 9), (3, 2), (3, 3)]))
def test_pairing_of_unit_points_is_the_difference_determinant(data, ring):
    m, q = ring
    F = gf_of(q)
    a, b = data.draw(square(m, q)), data.draw(square(m, q))
    assume(mat_det(a) != 0 and mat_det(b) != 0)
    eye = identity(F, m)
    got = pairing_distant(F, m, mat_hstack(a, eye), mat_hstack(b, eye))
    assert got == (mat_det(mat_sub(a, b)) != 0)


MEMO_RINGS = [(1, q) for q in (2, 3, 4, 5, 7, 8, 9, 64)] + [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3)]


def drawn_rows(data, pool, adjacent):
    """3-12 picks with repeats from pool, with every row of _pairing_rows on
    their bases checked against the predicate adjacent."""
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=12))
    return picks, [[adjacent(u, w) for w in picks] for u in picks]


def row_bits(row, n):
    return [bool(row >> j & 1) for j in range(n)]


# _pairing_rows keeps the level sets of each distinct half of a row's
# functional (the minors on the m-subsets with and without column 0) in a
# memo: repeated points share both halves, a zero column 0 zeroes the low
# half, and a point that holds e_0 zeroes the high half
@seed(2101)
@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data(), ring=st.sampled_from(MEMO_RINGS))
def test_pairing_rows_with_shared_and_zero_halves(data, ring):
    m, q = ring
    F = gf_of(q)
    pool = []
    for _ in range(data.draw(st.integers(1, 5))):
        a, b = data.draw(square(m, q)), data.draw(square(m, q))
        rows = [list(x + y) for x, y in zip(a.rows, b.rows)]
        shape = data.draw(st.sampled_from(["any", "zero-low", "zero-high"]))
        if shape == "zero-low":
            for r in rows:
                r[0] = 0
        elif shape == "zero-high":
            rows[0] = [int(j == 0) for j in range(2 * m)]
        basis = matrix(F, rows)
        if mat_rank(basis) == m:
            pool.append(SubspacePoint(rref(basis)))
    assume(pool)
    picks, want = drawn_rows(data, pool, points_distant)
    got = _pairing_rows(F, m, _plucker(F, m, [p.basis.rows for p in picks]))
    assert [row_bits(row, len(picks)) for row in got] == want

    # the points (A | I) of the unit-difference graph; A need not be invertible
    eye = identity(F, m)
    mats = [data.draw(square(m, q)) for _ in range(data.draw(st.integers(1, 5)))]
    if data.draw(st.booleans()):
        mats.append(zeros(F, m, m))  # zero column 0: a zero low half
    picks, want = drawn_rows(data, mats, lambda a, b: mat_det(mat_sub(a, b)) != 0)
    got = _pairing_rows(F, m, _plucker(F, m, [mat_hstack(a, eye).rows for a in picks]))
    assert [row_bits(row, len(picks)) for row in got] == want
