"""Graph algebra and the exact clique census engine.

The census oracle used throughout is itertools.combinations over vertex
subsets, which is feasible at these sizes and shares no code with the
backtracking engine.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from ringline import graphs
from ringline.cli import main
from ringline.errors import BoundExceeded, BudgetExceeded
from ringline.graphs import (
    _SYMMETRY_BLOCK,
    Graph,
    _bits,
    _branch_and_bound,
    _symmetry,
    _with_generators,
    blowup,
    complement,
    count_cliques,
    disjoint_union,
    extension_count,
    extension_profile,
    find_clique,
    is_clique,
    is_inextensible,
    max_clique_order,
    neighborhood_intersection_count,
    tensor_product,
    to_dot,
    verify_isomorphism,
)
from ringline.rings import (
    MatrixRing,
    RingSpec,
    matrix_ring_graph,
    spec_graph,
    unit_difference_graph,
    zn_projective_line,
)


@pytest.fixture
def eager_pool(monkeypatch):
    """Searches with workers hand over to their pool after the first root,
    so that tests of small graphs still run the pool, and as if on 4 CPUs,
    so that the shares do not depend on the host's."""
    monkeypatch.setattr(graphs, "_POOL_PROBE", 0)
    monkeypatch.setattr(graphs, "_default_workers", lambda: 4)


def brute_counts(g: Graph, kmax: int) -> list[int]:
    out = [1]
    for k in range(1, kmax + 1):
        out.append(sum(1 for c in combinations(range(g.n), k) if is_clique(g, c)))
    return out


def brute_profile(g: Graph, k: int, containing=()) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in combinations(range(g.n), k):
        if set(containing) <= set(c) and is_clique(g, c):
            ext = sum(all(g.has_edge(u, v) for v in c) for u in range(g.n))
            hist[ext] = hist.get(ext, 0) + 1
    return dict(sorted(hist.items()))


def random_graph(n: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    )


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [1, 0])  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(2, [2, 0])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0, 0], labels=["a"])
    assert Graph(1, [1]) == Graph.T() and Graph(1, [1]).is_T  # T is read off its row
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: Graph(3, [0, 0]), "adjacency row count mismatch"),
        (lambda: Graph(2, [0b10, 0b101]), "row 1 has bits outside the vertex range"),
        (lambda: Graph.from_edges(2, [(0, 1)]).index_of("0"), "graph has no labels"),
        (lambda: blowup(Graph.complete(2), 0), "blow-up factor must be positive"),
        (lambda: count_cliques(Graph.complete(2), -1), "kmax must be >= 0"),
        (lambda: Graph.from_edges(3, [(0, 5)]), "vertex 5 out of range"),
        (lambda: Graph.from_edges(3, [(0, -1)]), "vertex -1 out of range"),
        (lambda: extension_profile(Graph.complete(2), -1), "k must be >= 0"),
        (lambda: verify_isomorphism(Graph.complete(2), Graph.complete(3), [0, 1]), False),
        (lambda: verify_isomorphism(Graph.T(), Graph.T(), [0]), True),
        (lambda: verify_isomorphism(Graph.T(), Graph.empty(1), [0]), False),
    ],
    ids=[
        "row-count", "row-range", "unlabelled", "blowup-0", "kmax-negative", "edge-above-n", "edge-negative",
        "profile-negative", "iso-sizes", "iso-T-T", "iso-T-vertex",
    ],
)
def test_input_checks(call, want):
    # each check guards input from outside; a string is the ValueError it raises
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{want}$"):
            call()
    else:
        assert call() is want


def test_label_count_is_checked_before_the_symmetry_pass(monkeypatch):
    def check(*args):
        raise AssertionError("the symmetry pass ran before the label count check")

    monkeypatch.setattr(graphs, "_check_transpose", check)
    with pytest.raises(ValueError, match="^label count mismatch$"):
        Graph(3, [0b110, 0b101, 0b011], ["a", "b"])


def first_asymmetric_edge(rows):
    """The edge-by-edge walk: least v, then least u, with u in row v but not v in row u."""
    for v, row in enumerate(rows):
        bits = row
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if not rows[u] >> v & 1:
                return f"asymmetric edge {v}->{u}"
    return None


def test_symmetry_check_catches_every_flipped_bit():
    # more vertices than two column blocks, so flips land in every block
    n = 2 * _SYMMETRY_BLOCK + 37
    g = random_graph(n, 0.02, seed=7)
    assert Graph(n, g.adj).adj == g.adj
    rng = random.Random(11)
    edges = [0, 1, _SYMMETRY_BLOCK - 1, _SYMMETRY_BLOCK, _SYMMETRY_BLOCK + 1]
    edges += [2 * _SYMMETRY_BLOCK - 1, 2 * _SYMMETRY_BLOCK, n - 1]
    flips = [(v, u) for v in edges for u in edges if v != u]
    flips += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(12)]  # above the diagonal
    flips += [tuple(sorted(rng.sample(range(n), 2), reverse=True)) for _ in range(12)]
    mutants = [[f] for f in flips] + [rng.sample(flips, 3) for _ in range(10)]
    for mutant in mutants:
        rows = list(g.adj)
        for v, u in mutant:
            rows[v] ^= 1 << u
        want = first_asymmetric_edge(rows)
        assert want is not None
        with pytest.raises(ValueError) as caught:
            Graph(n, rows)
        assert str(caught.value) == want, mutant
    # flipping both sides of a pair keeps the graph symmetric
    rows = list(g.adj)
    for v, u in flips[:20]:
        rows[v] ^= 1 << u
        rows[u] ^= 1 << v
    assert first_asymmetric_edge(rows) is None
    Graph(n, rows)


def test_complete_and_empty():
    k4 = Graph.complete(4)
    assert k4.edge_count() == 6 and k4.regular_degree() == 3
    e3 = Graph.empty(3)
    assert e3.edge_count() == 0
    assert complement(e3) == Graph.complete(3)


def test_tensor_product_identity_and_small_cases():
    T = Graph.T()
    k3 = Graph.complete(3)
    assert tensor_product(T, k3) == k3
    assert tensor_product(k3, T) == k3
    assert tensor_product(T, T) == T
    k2k2 = tensor_product(Graph.complete(2), Graph.complete(2))
    assert k2k2.n == 4
    assert k2k2.edge_count() == 2
    assert k2k2.degrees() == [1, 1, 1, 1]  # two disjoint edges
    k3k4 = tensor_product(k3, Graph.complete(4))
    assert k3k4.n == 12
    assert k3k4.regular_degree() == 6
    with pytest.raises(BoundExceeded):
        tensor_product(k3, Graph.complete(4), vertex_bound=10)


def test_tensor_adjacency_matches_definition():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(0, 2)])
    t = tensor_product(a, b)
    for va in range(3):
        for vb in range(3):
            for ua in range(3):
                for ub in range(3):
                    expect = a.has_edge(va, ua) and b.has_edge(vb, ub)
                    assert t.has_edge(va * 3 + vb, ua * 3 + ub) == expect


def test_blowup():
    k3 = Graph.complete(3)
    assert blowup(k3, 1) == k3
    octa = blowup(k3, 2)
    assert octa.n == 6 and octa.edge_count() == 12 and octa.regular_degree() == 4
    assert blowup(Graph.complete(2), 3).edge_count() == 9  # K_{3,3}
    with pytest.raises(ValueError):
        blowup(Graph.T(), 2)
    with pytest.raises(BoundExceeded):
        blowup(k3, 100, vertex_bound=100)


def test_complement_and_disjoint_union():
    g = zn_projective_line(6)
    assert complement(complement(g)) == g
    octa = complement(disjoint_union([Graph.complete(2)] * 3))
    assert octa == blowup(Graph.complete(3), 2)
    two = disjoint_union([Graph.complete(1), Graph.complete(1)])
    assert two.n == 2 and two.edge_count() == 0
    with pytest.raises(ValueError):
        complement(Graph.T())
    with pytest.raises(ValueError):
        disjoint_union([Graph.T()])


def test_census_against_subset_oracle(eager_pool):
    cases = [
        Graph.complete(4),
        blowup(Graph.complete(3), 2),
        zn_projective_line(6),
        Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
        Graph.empty(4),
    ]
    for g in cases:
        assert count_cliques(g, 5).as_list() == brute_counts(g, 5)
    rng = random.Random(20161)
    for n in (5, 9, 14):
        for density in (0.25, 0.5, 0.75, 0.9):
            g = random_graph(n, density, rng.randrange(10**6))
            assert count_cliques(g, 5).as_list() == brute_counts(g, 5)
            edge = list(rng.choice(list(g.edges()))) if g.edge_count() else None
            for k in range(5):
                assert extension_profile(g, k) == brute_profile(g, k)
                if edge is not None and k >= 2:
                    assert extension_profile(g, k, containing=edge) == brute_profile(g, k, edge)
    g = random_graph(14, 0.75, 7)
    edge = next(g.edges())
    assert count_cliques(g, 5, workers=3).as_list() == brute_counts(g, 5)
    assert extension_profile(g, 3, workers=3) == brute_profile(g, 3)
    assert extension_profile(g, 4, containing=edge, workers=3) == brute_profile(g, 4, edge)


def naive_bits(bits: int) -> list[int]:
    return [u for u in range(bits.bit_length()) if bits >> u & 1]


@st.composite
def bitsets(draw):
    """Ints of up to 20,000 bits, from one set bit to every bit set."""
    width = draw(st.integers(1, 20_000))
    # 1 / 8 is where _bits changes method; draw on both sides of it
    density = draw(st.sampled_from([0.0, 0.001, 0.05, 0.12, 0.125, 0.13, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = 1 << (width - 1)
    for u in rng.sample(range(width), int(density * width)):
        bits |= 1 << u
    return bits


@settings(max_examples=200, deadline=None)
@given(bits=st.one_of(bitsets(), st.integers(0, 20_000).map(lambda e: 1 << e), st.integers(0, 2**64)))
@example(bits=0)
@example(bits=(1 << 20_000) - 1)
@example(bits=1 << 23 | 1 << 9 | 1)  # 3 of 24 set, the string read
@example(bits=1 << 24 | 1 << 9 | 1)  # 3 of 25 set, the lowest-bit loop
def test_bits_reads_every_density_like_the_naive_loop(bits):
    assert _bits(bits) == naive_bits(bits)


def set_profile(g: Graph, k: int, through: int) -> dict[int, int]:
    """extension_profile(g, k, containing=[through]) for k <= 3 by Python
    set intersections of neighbourhoods."""
    nbrs = [{u for u in range(g.n) if g.has_edge(v, u)} for v in range(g.n)]
    hist: dict[int, int] = {}
    cliques = [()] if k == 1 else [(u,) for u in nbrs[through]]
    if k == 3:
        cliques = [(u, v) for (u,) in cliques for v in nbrs[through] & nbrs[u] if u < v]
    for clique in cliques:
        ext = len(nbrs[through].intersection(*(nbrs[u] for u in clique)))
        hist[ext] = hist.get(ext, 0) + 1
    return dict(sorted(hist.items()))


def test_dense_leaves_against_brute_force():
    # the subset oracle's graphs have at most 14 vertices, so no leaf there
    # has more than 16 candidates; these leaves do, and are dense
    g = random_graph(40, 0.85, 2017)
    wide = g.adj[0] & g.adj[1]
    assert wide.bit_count() > 16 and wide.bit_count() * graphs._DENSE >= wide.bit_length()
    edge = next(g.edges())
    for k in range(4):
        assert extension_profile(g, k) == brute_profile(g, k)
        if k:
            assert extension_profile(g, k, containing=[5]) == brute_profile(g, k, [5])
        if k >= 2:
            assert extension_profile(g, k, containing=edge) == brute_profile(g, k, edge)
    assert count_cliques(g, 4).as_list() == brute_counts(g, 4)
    # GL_2(4) through a vertex: pairs adj[0] & adj[s] of 83-88 of 180 bits
    gl = unit_difference_graph(2, 4)
    for c in (0, 7, gl.n - 1):
        for k in (1, 2, 3):
            assert extension_profile(gl, k, containing=[c]) == set_profile(gl, k, c)


def test_set_bits_are_read_off_the_string_only_when_dense(monkeypatch):
    # the string read costs O(bit length) however few bits are set, so the
    # sparse sets, and the sparse or narrow leaves, keep the lowest-bit loop
    dense, sparse = random_graph(40, 0.85, 2017), random_graph(300, 0.05, 2017)
    read = []

    def spy(value, spec):
        read.append(value)
        return format(value, spec)

    monkeypatch.setattr(graphs, "format", spy, raising=False)
    assert _bits(1 << 10_000) == [10_000] and _bits(1 << 24 | 1 << 9 | 1) == [0, 9, 24] and not read
    assert _bits((1 << 100) - 1) == list(range(100)) and _bits(1 << 23 | 1 << 9 | 1) == [0, 9, 23] and len(read) == 2
    for g, k, wants_leaf in ((dense, 3, True), (sparse, 2, False), (Graph.complete(16), 3, False)):
        read.clear()
        extension_profile(g, k)
        # one read lists the roots of the one anchor, every vertex
        assert read[0] == (1 << g.n) - 1 and (len(read) > 1) == wants_leaf


EXPECTED = json.loads((Path(__file__).resolve().parent.parent / "bench" / "expected.json").read_text())


def frozen_profile(key: str) -> dict[int, int]:
    return {int(c): count for c, count in EXPECTED[key].items()}


def test_benchmark_profiles_equal_their_frozen_answers():
    # the longest search-ring job, and its triangle profile, in Tier-1 too
    gl25 = unit_difference_graph(2, 5)
    for c in (0, 7, 479):
        assert extension_profile(gl25, 3, containing=[c]) == frozen_profile("GL_2(5) profile k=3 through a vertex")
    m23 = matrix_ring_graph(2, 3)
    # (0 | I), (I | 0), (I | I), and (I | B) for B = 0, I and [[0, 1], [2, 0]],
    # whose differences have unit determinants mod 3
    for labels in (["00100001", "10000100", "10100101"], ["10000100", "10100101", "10010120"]):
        triangle = [m23.index_of(label) for label in labels]
        assert is_clique(m23, triangle)
        want = frozen_profile("P(M_2(3)) profile k=4 through a triangle")
        assert extension_profile(m23, 4, containing=triangle) == want


def test_census_monotone_support_and_fixed_values():
    census = count_cliques(Graph.complete(4), 6)
    assert census.as_list() == [1, 4, 6, 4, 1, 0, 0]
    octa = blowup(Graph.complete(3), 2)
    assert count_cliques(octa, 3).counts[3] == 8
    g = matrix_ring_graph(2, 2)
    assert count_cliques(g, 2).counts[2] == 280


def test_census_support_is_monotone():
    for g in (Graph.complete(4), blowup(Graph.complete(3), 2), zn_projective_line(6)):
        counts = count_cliques(g, g.n + 1).as_list()
        seen_zero = False
        for c in counts[1:]:
            if seen_zero:
                assert c == 0
            seen_zero = seen_zero or c == 0


def test_census_and_profile_past_n_walk_no_deeper(monkeypatch):
    # no clique has more than n vertices: a huge k is zeros, not a deeper walk
    big, depths, search = 10**5, [], graphs._search
    monkeypatch.setattr(graphs, "_search", lambda adj, depth, *rest: depths.append(depth) or search(adj, depth, *rest))
    for g in (zn_projective_line(6), plain(zn_projective_line(6)), Graph.complete(5)):
        capped, census = count_cliques(g, g.n), count_cliques(g, big)
        assert census.as_list() == capped.as_list() + [0] * (big - g.n)
        assert census.nodes == capped.nodes
        for k in (g.n + 1, big):  # settled without a walk: no node charged
            assert extension_profile(g, k) == extension_profile(g, k, node_budget=0) == {}
    assert extension_profile(Graph.complete(5), 5) == {0: 1}
    assert extension_profile(Graph.complete(25), 26) == {}
    assert max(depths) == 12  # n: the census walk on the 12 points of P(Z/6)


def test_census_past_n_stores_no_padding():
    # the counts stop at n, so a kmax of 10^6 costs what kmax = n does
    g, big = zn_projective_line(6), 10**6
    tracemalloc.start()
    try:
        start = time.perf_counter()
        census = count_cliques(g, big)
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(census.counts) == list(range(g.n + 1))
    assert seconds < 0.1 and peak < 1 << 20, (seconds, peak)
    assert census.as_list() == count_cliques(g, g.n).as_list() + [0] * (big - g.n)


def test_census_T_returns_one_per_size():
    assert count_cliques(Graph.T(), 7).as_list() == [1] * 8


def test_census_T_stores_two_counts():
    # T has one clique of every size; as_list fills them past the stored two
    census = count_cliques(Graph.T(), 10**6)
    assert census.counts == {0: 1, 1: 1} and census.nodes == 0
    assert census.as_list() == [1] * (10**6 + 1)
    assert count_cliques(Graph.T(), 0).as_list() == [1]


def test_census_budget_is_an_error_not_a_truncation():
    g = Graph.complete(12)
    with pytest.raises(BudgetExceeded):
        count_cliques(g, 6, node_budget=10)


def test_census_parallel_matches_serial(eager_pool):
    g = tensor_product(zn_projective_line(6), Graph.complete(4))
    serial = count_cliques(g, 5, workers=1)
    parallel = count_cliques(g, 5, workers=3)
    assert serial.counts == parallel.counts
    prof_serial = extension_profile(g, 3, workers=1)
    prof_parallel = extension_profile(g, 3, workers=3)
    assert prof_serial == prof_parallel


def test_budget_outcome_is_schedule_independent(eager_pool):
    g = tensor_product(zn_projective_line(6), Graph.complete(4))
    for kmax in range(6):
        census = count_cliques(g, kmax)
        assert census.nodes == sum(census.as_list()[1:])  # one node per clique
    needed = count_cliques(g, 5).nodes
    for workers in (1, 3):
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 5, node_budget=needed - 1, workers=workers)
        assert count_cliques(g, 5, node_budget=needed, workers=workers).nodes == needed


def test_profile_containing_parallel_matches_serial(eager_pool):
    g = matrix_ring_graph(2, 2)
    base = find_clique(g, 2)
    serial = extension_profile(g, 4, containing=base, workers=1)
    parallel = extension_profile(g, 4, containing=base, workers=3)
    assert serial == parallel


def test_tensor_census_carries_matching_factor():
    # vertex-set cliques of a tensor product: k! pairings per factor pair
    pairs = [
        (Graph.complete(3), Graph.complete(4)),
        (Graph.complete(2), Graph.complete(2)),
        (blowup(Graph.complete(3), 2), Graph.complete(3)),
    ]
    for a, b in pairs:
        ca = count_cliques(a, 5).as_list()
        cb = count_cliques(b, 5).as_list()
        ct = count_cliques(tensor_product(a, b), 5).as_list()
        for k in range(6):
            assert ct[k] == factorial(k) * ca[k] * cb[k]


def test_blowup_census_scaling():
    g = zn_projective_line(6)
    base = count_cliques(g, 4).counts
    for t in (2, 3):
        scaled = count_cliques(blowup(g, t), 4).counts
        for k in range(5):
            assert scaled[k] == t**k * base[k]


def test_extension_count_and_errors():
    k4 = Graph.complete(4)
    assert extension_count(k4, []) == 4
    assert extension_count(k4, [0]) == 3
    octa = blowup(Graph.complete(3), 2)
    for v in range(octa.n):
        assert extension_count(octa, [v]) == 4
    with pytest.raises(ValueError):
        extension_count(octa, [0, 1])  # copies of one vertex: not a clique


def test_extension_profile_uniform_on_commutative_graphs():
    g = zn_projective_line(6)
    assert extension_profile(g, 0) == {12: 1}
    assert extension_profile(g, 1) == {6: 12}
    assert extension_profile(g, 2) == {2: 36}
    assert extension_profile(g, 3) == {0: 24}
    assert extension_profile(Graph.complete(4), 2) == {2: 6}


def test_extension_profile_containing_fixed_clique():
    k5 = Graph.complete(5)
    assert extension_profile(k5, 3, containing=[0, 1]) == {2: 3}
    assert extension_profile(k5, 2, containing=[0, 1]) == {3: 1}
    with pytest.raises(ValueError):
        extension_profile(k5, 1, containing=[0, 1])
    with pytest.raises(ValueError):
        extension_profile(blowup(Graph.complete(3), 2), 3, containing=[0, 1])


def test_vertex_out_of_range_raises():
    g = zn_projective_line(6)
    n = g.n
    calls = [
        lambda v: is_clique(g, [v]),
        lambda v: is_inextensible(g, [0, v]),
        lambda v: extension_count(g, [v]),
        lambda v: neighborhood_intersection_count(g, [v]),
        lambda v: extension_profile(g, 2, containing=[v]),
        lambda v: extension_profile(g, 3, containing=[0, v]),
        lambda v: extension_profile(plain(g), 2, containing=[v]),
    ]
    for call in calls:
        for v in (-1, n, -n - 1, 2 * n):
            with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
                call(v)
    assert extension_count(g, [n - 1]) == g.adj[n - 1].bit_count()


def test_is_clique_and_inextensible():
    octa = blowup(Graph.complete(3), 2)
    assert is_clique(octa, [0, 2, 4])
    assert is_inextensible(octa, [0, 2, 4])
    assert not is_inextensible(Graph.complete(4), [0, 1])
    assert not is_clique(octa, [0, 0, 2])


def test_neighborhood_intersection_count():
    octa = blowup(Graph.complete(3), 2)
    assert neighborhood_intersection_count(octa, [0]) == 2  # self + twin
    g = zn_projective_line(6)
    e = find_clique(g, 2)
    assert neighborhood_intersection_count(g, e) == 2


def test_find_clique():
    got = find_clique(Graph.complete(4), 2)
    assert len(got) == 2 and is_clique(Graph.complete(4), got)
    assert find_clique(Graph.empty(3), 2) is None
    assert find_clique(Graph.complete(3), 0) == []
    with pytest.raises(ValueError):
        find_clique(Graph.complete(3), -1)
    with pytest.raises(ValueError):
        find_clique(Graph.T(), 1)


def test_find_clique_against_oracle():
    cases = [
        Graph.complete(6),
        Graph.empty(5),
        zn_projective_line(6),
        blowup(Graph.complete(3), 2),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),
    ]
    rng = random.Random(2003)
    for _ in range(20):
        n = rng.randint(1, 12)
        cases.append(random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10**6)))
    for g in cases:
        for k in range(g.n + 2):
            exists = any(is_clique(g, c) for c in combinations(range(g.n), k))
            got = find_clique(g, k)
            if exists:
                assert got is not None and len(got) == k and is_clique(g, got)
            else:
                assert got is None


def test_find_clique_above_omega_within_default_budget():
    # omega(P(M_2(3))) = 10: the colour bound refutes an 11-clique
    # without walking the cliques one by one
    assert find_clique(matrix_ring_graph(2, 3), 11) is None


def test_branch_and_bound_budget():
    adj, every = Graph.complete(30).adj, [([], (1 << 30) - 1)]
    for ceiling in (31, 1):  # a maximum, a first witness
        with pytest.raises(BudgetExceeded, match="probe exceeded 3 nodes"):
            _branch_and_bound(adj, 0, ceiling, 3, "probe", every)
    assert len(_branch_and_bound(adj, 0, 31, 31, "probe", every)) == 30


def two_orbit_graph() -> Graph:
    """A 5-cycle beside a K_4, each turned by its own shift: orbits of 0 and 5."""
    rows = [(1 << (v + 1) % 5) | (1 << (v - 1) % 5) for v in range(5)]
    rows += [sum(1 << u for u in range(5, 9) if u != v) for v in range(5, 9)]
    shift = [(v + 1) % 5 for v in range(5)] + [5 + (v - 4) % 4 for v in range(5, 9)]
    return _with_generators(Graph(9, rows), [shift])


def test_budget_error_says_how_far_the_search_got():
    # dives from 0 (2 vertices) and 5 (4), then one node per representative
    g = two_orbit_graph()
    assert _symmetry(g)[1] == [(0, 5, None), (5, 4, None)] and max_clique_order(g, node_budget=8) == 4
    with pytest.raises(BudgetExceeded) as err:
        max_clique_order(g, node_budget=7)
    assert str(err.value) == (
        "max-clique search exceeded 7 nodes; largest clique found: 4, representatives searched: 1 of 2"
    )
    # without generators: the dive from 0 stops at the edge 0-1
    h = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(BudgetExceeded) as err:
        max_clique_order(h, node_budget=3)
    assert str(err.value) == (
        "max-clique search exceeded 3 nodes; largest clique found: 2, representatives searched: 0 of 1"
    )
    with pytest.raises(BudgetExceeded) as err:
        _branch_and_bound(Graph.complete(30).adj, 0, 31, 29, "probe", [([], (1 << 30) - 1)])
    assert str(err.value) == "probe exceeded 29 nodes; largest clique found: 30, representatives searched: 0 of 1"


def test_census_and_profile_budget_errors_say_how_far_they_got(eager_pool, serial_pool):
    # P(M_2(3)) is one distant-pair anchor with 48 roots; the walk has
    # reached 3-cliques of it, 5-cliques with the pair, when the budget runs
    # out, and at k = 6 a larger budget has walked more of its roots
    m23 = matrix_ring_graph(2, 3)
    want = {
        (count_cliques, 5, 1000): "census exceeded 1000 nodes; largest clique found: 5, anchors finished: 0 of 1, "
        "roots finished: 4 of 48",
        (count_cliques, 6, 1000): "census exceeded 1000 nodes; largest clique found: 6, anchors finished: 0 of 1, "
        "roots finished: 1 of 48",
        (count_cliques, 6, 5000): "census exceeded 5000 nodes; largest clique found: 6, anchors finished: 0 of 1, "
        "roots finished: 7 of 48",
        (extension_profile, 6, 1000): "profile exceeded 1000 nodes; largest clique found: 6, anchors finished: 0 of 1, "
        "roots finished: 1 of 48",
        (extension_profile, 6, 5000): "profile exceeded 5000 nodes; largest clique found: 6, anchors finished: 0 of 1, "
        "roots finished: 7 of 48",
    }
    for (search, k, budget), message in want.items():
        with pytest.raises(BudgetExceeded) as err:
            search(m23, k, node_budget=budget)
        assert str(err.value) == message
    # two level-1 anchors, adj[0] of the 5-cycle (done at 4 nodes) and adj[5]
    # of the K_4, whose 4-clique is counted at node 7
    g = two_orbit_graph()
    assert count_cliques(g, 4).nodes == 11 and [table for _, _, table in _symmetry(g)[1]] == [None, None]
    want = {
        (count_cliques, 4, 4): "census exceeded 4 nodes; largest clique found: 2, anchors finished: 1 of 2, "
        "roots finished: 0 of 3",
        (count_cliques, 4, 7): "census exceeded 7 nodes; largest clique found: 4, anchors finished: 1 of 2, "
        "roots finished: 0 of 3",
        (extension_profile, 3, 7): "profile exceeded 7 nodes; largest clique found: 3, anchors finished: 1 of 2, "
        "roots finished: 1 of 3",
        # the two anchors alone are over the budget
        (count_cliques, 4, 1): "census exceeded 1 nodes; largest clique found: 1, anchors finished: 0 of 2, "
        "roots finished: 0 of 2",
    }
    for (search, k, budget), message in want.items():
        with pytest.raises(BudgetExceeded) as err:
            search(g, k, node_budget=budget)
        assert str(err.value) == message
        # a pooled run names, in the same words, where its serial prefix
        # handed over to the pool
        progress = r"anchors finished: \d+ of \d+(, roots finished: \d+ of \d+)?"
        with pytest.raises(BudgetExceeded, match=rf"{message.split(';')[0]}; largest clique found: \d+, {progress}$"):
            search(g, k, node_budget=budget, workers=3)
    # the eager prefix hands over after the 5-cycle's first root
    with pytest.raises(BudgetExceeded, match="anchors finished: 0 of 2, roots finished: 1 of 2$"):
        count_cliques(g, 4, node_budget=4, workers=3)
    # without generators: one anchor, the members of `containing` fixed
    k12 = Graph.complete(12)
    with pytest.raises(BudgetExceeded) as err:
        extension_profile(k12, 5, containing=[3, 4], node_budget=10)
    assert str(err.value) == (
        "profile exceeded 10 nodes; largest clique found: 5, anchors finished: 0 of 1, roots finished: 0 of 10"
    )
    with pytest.raises(BudgetExceeded) as err:
        count_cliques(k12, 6, node_budget=10)
    assert str(err.value) == (
        "census exceeded 10 nodes; largest clique found: 5, anchors finished: 0 of 1, roots finished: 0 of 12"
    )


def budget_cases() -> list:
    """(graph, search, k, budget, roots) of searches that run out: P(M_2(3))
    at k = 6, one anchor, and two_orbit_graph(), two anchors; roots lists the
    number of roots of each anchor."""
    m23, g = matrix_ring_graph(2, 3), two_orbit_graph()
    cases = [(m23, search, 6, budget, [48]) for search in (count_cliques, extension_profile) for budget in (1000, 5000)]
    cases += [(g, count_cliques, 4, budget, [2, 3]) for budget in (1, 4, 7)]
    return cases + [(g, extension_profile, 3, 7, [2, 3])]


def test_pooled_budget_errors_do_not_depend_on_the_workers(eager_pool):
    # the shares return to the parent, which raises the one error: 2 and 3
    # workers name the same progress, out of the search's own anchors and the
    # roots of the one named, as the serial run does
    progress = re.compile(r"anchors finished: (\d+) of (\d+), roots finished: \d+ of (\d+)$")
    for g, search, k, budget, roots in budget_cases():
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(BudgetExceeded) as err:
                search(g, k, node_budget=budget, workers=workers)
            messages.append(str(err.value))
        serial, two, three = messages
        assert two == three
        for message in (serial, two):
            done, anchors, of = map(int, progress.search(message).groups())
            assert anchors == len(roots) and of == roots[done]


def test_pool_shares_charge_what_the_prefix_left(eager_pool, serial_pool, monkeypatch):
    # the prefix walks with the whole budget, every share with what the
    # prefix left of it, and no walk raises, whether the budget holds or not
    walk, calls, returned = graphs._walk, [], []

    def spy_walk(adj, depth, anchors, budget, stop, spent=0, leaves=()):
        calls.append(budget)
        out = walk(adj, depth, anchors, budget, stop, spent, leaves)
        returned.append(out[2])
        return out

    monkeypatch.setattr(graphs, "_walk", spy_walk)
    cases = [case[:4] for case in budget_cases()]
    cases += [(g, search, k, search(g, k).nodes if search is count_cliques else 10**6) for g, search, k, _ in cases]
    for g, search, k, budget in cases:
        for workers in (2, 3):
            calls.clear()
            returned.clear()
            serial_pool.clear()
            try:
                search(g, k, node_budget=budget, workers=workers)
            except BudgetExceeded:
                pass
            assert len(returned) == len(calls) and calls[0] == budget
            if serial_pool:
                assert len(calls) > 1 and calls[1:] == [budget - returned[0]] * (len(calls) - 1)
            else:  # the prefix ran out before the hand-over
                assert calls == [budget] and returned[0] > budget


def test_search_goes_on_past_a_greedy_dive_that_is_not_maximum():
    # the dive from 0 takes the edge 0-1; the triangle 2-3-4 is the answer
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert max_clique_order(g) == 3
    assert sorted(find_clique(g, 3)) == [2, 3, 4]
    assert find_clique(g, 4) is None
    assert sorted(_branch_and_bound(g.adj, 0, 6, 10**6, "probe", [([], 31)])) == [2, 3, 4]
    assert _branch_and_bound(g.adj, 3, 4, 10**6, "probe", [([], 31)]) == []


def test_greedy_dive_settles_the_large_ring_graphs_in_a_few_nodes(monkeypatch):
    # the dive from vertex 0 finds a largest clique, and the colour bound of
    # adj[0] refutes a larger one at once: omega + 1 nodes in all
    gl27, line7 = unit_difference_graph(2, 7), matrix_ring_graph(2, 7)
    assert max_clique_order(gl27, node_budget=49) == 48
    assert max_clique_order(line7, node_budget=51) == 50
    monkeypatch.setattr(graphs, "CENSUS_NODE_BUDGET", 49)
    witness = find_clique(gl27, 48)
    assert len(witness) == 48 and is_clique(gl27, witness)
    assert find_clique(gl27, 49) is None
    with pytest.raises(BudgetExceeded, match="exceeded 48 nodes; largest clique found: 48, representatives searched: 0 of 1"):
        max_clique_order(gl27, node_budget=48)


def test_find_clique_expands_no_representative_past_its_witness(monkeypatch):
    # a K_4 on 4..7, each vertex v of it with a private pendant v - 4, below
    # every vertex of the K_4; with the identity every vertex is its own
    # representative.  Every dive stops at 2 vertices (16 nodes), each
    # pendant's search at its root (4), and the search from 4 finds the
    # 4-clique in 4 nodes: the budget has no node to spare for 5, 6 and 7
    edges = [(i, i + 4) for i in range(4)] + list(combinations(range(4, 8), 2))
    g = _with_generators(Graph.from_edges(8, edges), [range(8)])
    monkeypatch.setattr(graphs, "CENSUS_NODE_BUDGET", 24)
    assert sorted(find_clique(g, 4)) == [4, 5, 6, 7]
    monkeypatch.setattr(graphs, "CENSUS_NODE_BUDGET", 23)
    with pytest.raises(BudgetExceeded) as err:
        find_clique(g, 4)
    assert str(err.value) == (
        "clique search exceeded 23 nodes; largest clique found: 2, representatives searched: 4 of 8"
    )


def test_orbit_sums_that_are_not_multiples_are_refused(monkeypatch):
    assert graphs._through(8, 2) == 4
    with pytest.raises(AssertionError, match="^orbit sum 7 is not a multiple of 2$"):
        graphs._through(7, 2)
    # P(M_2(2)) is one distant-pair anchor of weight 35 * 16; with one less,
    # it counts an odd number of ordered edges
    g = matrix_ring_graph(2, 2)
    ((members, cand, weight, *walk),) = graphs._anchors(g, [], 3)
    assert len(members) == 2 and weight == 560
    monkeypatch.setattr(graphs, "_anchors", lambda *args: [(members, cand, weight - 1, *walk)])
    with pytest.raises(AssertionError, match="^orbit sum 559 is not a multiple of 2$"):
        count_cliques(g, 3)


def test_import_loads_no_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, ringline; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "False\n"


def test_max_clique_order_against_oracle():
    cases = [
        Graph.complete(6),
        zn_projective_line(6),
        blowup(Graph.complete(3), 2),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        Graph.empty(5),
    ]
    for g in cases:
        brute = max(k for k in range(g.n + 1) if brute_counts(g, g.n)[k] > 0)
        assert max_clique_order(g) == brute
    assert max_clique_order(matrix_ring_graph(2, 2)) == 5
    with pytest.raises(BudgetExceeded):
        max_clique_order(Graph.complete(30), node_budget=3)
    with pytest.raises(ValueError):
        max_clique_order(Graph.T())


def test_verify_isomorphism():
    g = zn_projective_line(6)
    assert verify_isomorphism(g, g, list(range(g.n)))
    k3 = Graph.complete(3)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not verify_isomorphism(k3, p3, [0, 1, 2])
    with pytest.raises(ValueError):
        verify_isomorphism(k3, k3, [0, 0, 1])
    # relabeling of K3 is an isomorphism
    assert verify_isomorphism(k3, k3, [2, 0, 1])


def relabelled(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v], generators carried along."""
    inverse = sorted(range(g.n), key=perm.__getitem__)
    rows = [sum(1 << perm[u] for u in range(g.n) if g.has_edge(inverse[w], u)) for w in range(g.n)]
    gens = [[perm[sigma[inverse[w]]] for w in range(g.n)] for sigma in g.generators]
    return _with_generators(Graph(g.n, rows), gens)


def edge_walk_isomorphism(a: Graph, b: Graph, mapping) -> bool:
    return all(a.has_edge(u, v) == b.has_edge(mapping[u], mapping[v]) for u in range(a.n) for v in range(a.n))


def test_verify_isomorphism_against_edge_walk():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 14)
        a = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10**6))
        mapping = rng.sample(range(n), n)
        image = relabelled(a, mapping)
        b = image if rng.random() < 0.5 else random_graph(n, 0.5, rng.randrange(10**6))
        assert verify_isomorphism(a, b, mapping) == edge_walk_isomorphism(a, b, mapping)
        assert verify_isomorphism(a, image, mapping)


def test_degree_regularity_of_ring_graphs():
    for g in [zn_projective_line(n) for n in (4, 6, 9)] + [matrix_ring_graph(2, 2)]:
        assert g.regular_degree() is not None


def test_dot_and_json_exports():
    k3 = Graph.complete(3)
    dot = to_dot(k3)
    assert 'graph G {' in dot and "0 -- 1;" in dot and '[label="2"]' in dot
    assert to_dot(Graph.T()).count("0 -- 0;") == 1


# ---------------------------------------------------------------------------
# orbit-reduced search against the plain ordered walk
# ---------------------------------------------------------------------------


def plain(g: Graph) -> Graph:
    """The same graph without generators: the ordered walk, the oracle."""
    return Graph(g.n, g.adj, g.labels)


def assert_same_search(g: Graph, kmax: int, kprofile: int) -> None:
    h = plain(g)
    assert not h.generators
    big = 10**8  # P(Z/p) is K_{p+1}: its 5-cliques run past the default budget
    assert count_cliques(g, kmax, node_budget=big).counts == count_cliques(h, kmax, node_budget=big).counts
    for k in range(kprofile + 1):
        assert extension_profile(g, k, node_budget=big) == extension_profile(h, k, node_budget=big)
    for c in (0, g.n - 1, random.Random(g.n).randrange(g.n)):
        for k in range(1, kprofile + 1):
            through = extension_profile(g, k, containing=[c], node_budget=big)
            assert through == extension_profile(h, k, containing=[c], node_budget=big)
    assert_same_cliques(g)


def assert_same_cliques(g: Graph) -> None:
    """max_clique_order, and whether find_clique finds a k-clique for
    k = 0..omega + 1, equal the plain search's; every witness is a clique."""
    h = plain(g)
    omega = max_clique_order(g)
    assert omega == max_clique_order(h)
    for k in range(omega + 2):
        got, want = find_clique(g, k), find_clique(h, k)
        assert (got is None) == (want is None) == (k > omega)
        assert got is None or (len(got) == k and is_clique(g, got))


ORBIT_GRAPHS = (
    [("Z", n, 5) for n in list(range(2, 61)) + [132, 138]]
    + [("M", 1, q, 5) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [("M", 2, 2, 5), ("M", 2, 3, 5)]
    + [("GL", 1, q, 5) for q in (3, 4, 5, 7, 8, 9)]
    + [("GL", 2, 2, 5), ("GL", 2, 3, 5), ("GL", 2, 4, 4), ("GL", 3, 2, 5)]
)
BUILD = {"Z": zn_projective_line, "M": matrix_ring_graph, "GL": unit_difference_graph}


@pytest.mark.parametrize("case", ORBIT_GRAPHS, ids=lambda c: "-".join(map(str, c[:-1])))
def test_orbit_search_equals_plain_walk(case):
    kind, *args, kmax = case
    g = BUILD[kind](*args)
    assert g.generators
    assert_same_search(g, kmax, min(kmax, 4))


@st.composite
def graphs_with_generators(draw):
    """Circulant components on Z/n_i (each with a drawn symmetric set of
    distances), with some of: the shift v -> v + 1 and the negation v -> -v
    of every component at once; or a small ring graph, relabelled."""
    if draw(st.booleans()):
        kind, *args = draw(st.sampled_from([("Z", 6), ("Z", 8), ("Z", 12), ("M", 1, 4), ("M", 2, 2), ("GL", 2, 2)]))
        g = BUILD[kind](*args)
        return relabelled(g, draw(st.permutations(range(g.n))))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    rows, shift, negate, offset = [], [], [], 0
    for n in sizes:
        dist = draw(st.sets(st.integers(1, max(1, n // 2))))
        for v in range(n):
            rows.append(sum(1 << (offset + u) for u in range(n) if u != v and min((u - v) % n, (v - u) % n) in dist))
            shift.append(offset + (v + 1) % n)
            negate.append(offset + (-v) % n)
        offset += n
    gens = draw(st.sampled_from([[shift], [negate], [shift, negate]]))
    return _with_generators(Graph(offset, rows), gens)


@settings(max_examples=150, deadline=None)
@given(g=graphs_with_generators(), kmax=st.integers(0, 5), k=st.integers(0, 4), c=st.integers(0, 10**6))
def test_orbit_search_equals_plain_walk_property(g, kmax, k, c):
    h = plain(g)
    assert count_cliques(g, kmax).counts == count_cliques(h, kmax).counts
    assert extension_profile(g, k) == extension_profile(h, k)
    c %= g.n
    assert extension_profile(g, max(k, 1), containing=[c]) == extension_profile(h, max(k, 1), containing=[c])
    assert_same_cliques(g)


@st.composite
def edge_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(graphs_with_generators(), edge_graphs()))
def test_branch_and_bound_against_the_census(g):
    # the census walk, not a second branch and bound, is the oracle for omega
    counts = count_cliques(plain(g), g.n).counts
    omega = max(k for k, c in counts.items() if c)
    assert max_clique_order(g) == omega
    for k in range(omega + 1):
        witness = find_clique(g, k)
        assert witness is not None and len(witness) == k and is_clique(g, witness)
    assert find_clique(g, omega + 1) is None


def test_negative_budgets_and_worker_counts_are_refused(serial_pool):
    # at the API boundary, before any walk: no serial run for workers 0 or
    # -2, and no BudgetExceeded for a budget below 0
    g = matrix_ring_graph(2, 2)
    searches = [partial(count_cliques, g, 3), partial(extension_profile, g, 3), partial(count_cliques, Graph.T(), 2)]
    for search in searches:
        for workers in (0, -2):
            with pytest.raises(ValueError, match="^workers must be >= 1$"):
                search(workers=workers)
        with pytest.raises(ValueError, match="^node_budget must be >= 0$"):
            search(node_budget=-1)
    with pytest.raises(ValueError, match="^node_budget must be >= 0$"):
        max_clique_order(g, node_budget=-1)
    # a budget of 0 stays valid; test_orbit_node_charge pins what it buys
    assert count_cliques(g, 0, node_budget=0).nodes == 0 and serial_pool == []


def test_orbit_node_charge():
    # one node per representative, plus one per clique of its neighbourhood
    for g in (matrix_ring_graph(2, 3), unit_difference_graph(2, 3), zn_projective_line(30)):
        degree = g.regular_degree()
        assert count_cliques(g, 0).nodes == 0
        assert count_cliques(g, 1).nodes == 1
        assert count_cliques(g, 2).nodes == 1 + degree
        assert count_cliques(plain(g), 2).nodes == g.n + g.edge_count()
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 1, node_budget=0)
        with pytest.raises(BudgetExceeded):
            extension_profile(g, 1, node_budget=0)
        assert extension_profile(g, 1, node_budget=1) == {degree: g.n}


def leaf_walks(g: Graph, r: int) -> dict[int, int]:
    """s -> how many vertices the one leaf step of the pair anchor (r, s)
    walks at k = 3, s the least vertex of each suborbit of r: the common
    neighbours of r and s in the suborbit of s or in one after it, the
    suborbits ordered by size, largest first, ties by least vertex.  The
    suborbits are found here by closing adj[r] under the generators that
    fix r, apart from the graph's tables."""
    fixing = [sigma for sigma in g.generators if sigma[r] == r]
    parts: list[set[int]] = []
    for v in _bits(g.adj[r]):
        if not any(v in part for part in parts):
            part, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for w in (sigma[u] for sigma in fixing):
                    if w not in part:
                        part.add(w)
                        stack.append(w)
            parts.append(part)
    parts.sort(key=len, reverse=True)  # stable: ties stay by least vertex
    return {min(part): sum(g.has_edge(min(part), v) for v in set().union(*parts[i:])) for i, part in enumerate(parts)}


def test_suborbit_node_charge(eager_pool):
    # a profile through one vertex charges one node per suborbit
    # representative s of the orbit representative r, plus one per clique
    # visited in adj[r] & adj[s], but at k = 3 one per vertex of the leaf
    # step, which on GL_2(3) meets each neighbour pair of r once; workers
    # split those roots and agree
    for g in (matrix_ring_graph(2, 3), unit_difference_graph(2, 3), zn_projective_line(30)):
        c = g.n - 1
        orbit_of, orbits = _symmetry(g)
        r, _, suborbits = orbits[orbit_of[c]]
        assert suborbits is not None
        common = [g.adj[r] & g.adj[s] for s, *_ in suborbits]
        edges = [sum((g.adj[v] & cand).bit_count() for v in range(g.n) if cand >> v & 1) // 2 for cand in common]
        vertices = [cand.bit_count() for cand in common]
        leaf = sum(leaf_walks(g, r).values())
        # one suborbit walks all of adj[r] & adj[s]; GL_2(3)'s four walk 29 of 61
        assert (leaf, sum(vertices)) == ((29, 61) if len(suborbits) > 1 else (sum(vertices),) * 2)
        need = {2: len(common), 3: len(common) + leaf, 4: len(common) + sum(vertices) + sum(edges)}
        for k, nodes in need.items():
            want = extension_profile(plain(g), k, containing=[c])
            for workers in (1, 3):
                with pytest.raises(BudgetExceeded):
                    extension_profile(g, k, containing=[c], node_budget=nodes - 1, workers=workers)
                assert extension_profile(g, k, containing=[c], node_budget=nodes, workers=workers) == want
        # k = 1 is the vertex alone, with no node charged
        assert extension_profile(g, 1, containing=[c], node_budget=0) == {g.adj[c].bit_count(): 1}


def pair_anchors(g: Graph) -> list[tuple[int, int, int]]:
    """(r, s, weight) for r the least vertex of each orbit and s the least
    vertex of each of its suborbits, read from the tables."""
    return [(r, s, size * part) for r, size, table in _symmetry(g)[1] for s, part, *_ in table]


@pytest.mark.parametrize("case", ORBIT_GRAPHS, ids=lambda c: "-".join(map(str, c[:-1])))
def test_pair_anchors_equal_the_level_one_walk(case, monkeypatch):
    # every case with a suborbit table at each orbit takes the pairs; the
    # level-1 walk, forced here, is the one the plain walk checks in
    # test_orbit_search_equals_plain_walk on the cases without tables
    kind, *args, _ = case
    g, big = BUILD[kind](*args), 10**8
    tables = all(table is not None for _, _, table in _symmetry(g)[1])
    assert tables == (kind != "GL" or args[0] > 1)  # GL_1(q) fixes no vertex
    census = count_cliques(g, 5, node_budget=big)
    profiles = [extension_profile(g, k, node_budget=big) for k in (2, 3, 4)]
    if tables:
        assert census.nodes >= len(pair_anchors(g))
    orbit_of, orbits = _symmetry(g)
    monkeypatch.setattr(g, "_orbits", (orbit_of, [(r, size, None) for r, size, _ in orbits]))
    level_one = count_cliques(g, 5, node_budget=big)
    assert census.counts == level_one.counts
    assert profiles == [extension_profile(g, k, node_budget=big) for k in (2, 3, 4)]
    assert (census.nodes < level_one.nodes) == tables


def assert_anchor_rule(g: Graph) -> None:
    """The anchors of _anchors against the tables: floor 1 stands for every
    vertex, floor 2 for every ordered edge and, through a vertex c, for
    every edge at c; the clique searches start from floor 1, or without
    generators from the least vertex of each twin class.  Every anchor walks
    all of cand at its weight, except a pair anchor at k = 3: it walks one
    part of cand at its weight and another, disjoint from it, at double it."""
    full = (1 << g.n) - 1
    orbit_of, orbits = _symmetry(g) if g.generators else ({}, [])
    level_one = [([r], g.adj[r], size, g.adj[r], 0) for r, size, _ in orbits] if g.generators else [([], full, 1, full, 0)]
    assert graphs._anchors(g, [], 1) == level_one
    if g.generators:
        assert sum(w for _, _, w, *_ in level_one) == g.n
    tables = bool(g.generators) and all(table is not None for _, _, table in orbits)
    pairs = graphs._anchors(g, [], 2)
    if tables:
        common = [(r, s, g.adj[r] & g.adj[s], size * part) for r, size, table in orbits for s, part, *_ in table]
        assert pairs == [([r, s], cand, w, cand, 0) for r, s, cand, w in common]
        assert all(g.has_edge(r, s) for (r, s), *_ in pairs)
        assert sum(w for _, _, w, *_ in pairs) == 2 * g.edge_count()
        leaf = graphs._anchors(g, [], 3)
        assert [anchor[:3] for anchor in leaf] == [anchor[:3] for anchor in pairs]
        assert all(once & twice == 0 and (once | twice) & ~cand == 0 for _, cand, _, once, twice in leaf)
    else:
        assert pairs == level_one
    for c in {0, g.n // 2, g.n - 1}:
        through = graphs._anchors(g, [c], 2)
        r, _, table = orbits[orbit_of[c]] if g.generators else (c, 1, None)
        if table is not None:
            assert all(members[0] == r and cand == g.adj[r] & g.adj[members[1]] for members, cand, *_ in through)
            assert sum(w for _, _, w, *_ in through) == g.adj[c].bit_count()
        else:
            assert through == [([c], g.adj[c], 1, g.adj[c], 0)]
    seen, search = [], graphs._branch_and_bound

    def spy(adj, floor, ceiling, budget, what, anchors, *transitive):
        seen.append(anchors)
        return search(adj, floor, ceiling, budget, what, anchors, *transitive)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_branch_and_bound", spy)
        find_clique(g, max_clique_order(g))
    twins = sum(1 << v for v in range(g.n) if g.adj[v] not in g.adj[:v])  # least of each twin class
    assert seen == ([level_one] if g.generators else [[([], twins)]]) * 2


@pytest.mark.parametrize("case", ORBIT_GRAPHS, ids=lambda c: "-".join(map(str, c[:-1])))
def test_anchor_rule_on_the_ring_graphs(case):
    kind, *args, _ = case
    g = BUILD[kind](*args)
    assert_anchor_rule(g)
    assert_anchor_rule(plain(g))
    if (kind, *args) == ("M", 2, 3):
        assert sum(w for _, _, w, *_ in graphs._anchors(g, [], 2)) == 130 * 81 == 2 * 5265


@settings(max_examples=100, deadline=None)
@given(g=graphs_with_generators())
def test_anchor_rule_on_drawn_graphs(g):
    assert_anchor_rule(g)
    assert_anchor_rule(plain(g))


def test_pair_node_charge(eager_pool, serial_pool):
    # a census to kmax and a profile without containing at k >= 3 charge one
    # node per pair (r, s), plus one per clique of adj[r] & adj[s] of at most
    # k - 2 vertices, however many workers split those roots (in shares run
    # by the serial stand-in for the pool); but at k = 3 the one leaf step
    # of (r, s) walks only the vertices of leaf_walks, which on GL_2(3) is 29
    # of 61, and on the one suborbit of P(M_2(3)) and P(Z/30) all of them
    for g in (matrix_ring_graph(2, 3), unit_difference_graph(2, 3), zn_projective_line(30)):
        pairs = pair_anchors(g)
        common = [g.adj[r] & g.adj[s] for r, s, _ in pairs]
        cliques = [
            sum(sum(is_clique(g, c) for c in combinations(_bits(cand), j)) for cand in common) for j in (1, 2, 3)
        ]
        leaf = sum(leaf_walks(g, r)[s] for r, s, _ in pairs)
        assert (leaf, cliques[0]) == ((29, 61) if len(pairs) > len(_symmetry(g)[1]) else (cliques[0],) * 2)
        need = {k: len(pairs) + sum(cliques[: k - 2]) for k in (4, 5)}
        need[3] = len(pairs) + leaf
        for k, nodes in need.items():
            want = count_cliques(g, k).counts, extension_profile(g, k)
            for workers in (1, 3):
                with pytest.raises(BudgetExceeded):
                    count_cliques(g, k, node_budget=nodes - 1, workers=workers)
                with pytest.raises(BudgetExceeded):
                    extension_profile(g, k, node_budget=nodes - 1, workers=workers)
                census = count_cliques(g, k, node_budget=nodes, workers=workers)
                assert (census.counts, census.nodes) == (want[0], nodes)
                assert extension_profile(g, k, node_budget=nodes, workers=workers) == want[1]
        # k = 2: the profile's pairs settle at depth 0, one node each
        assert extension_profile(g, 2, node_budget=len(pairs)) == extension_profile(g, 2)
        with pytest.raises(BudgetExceeded):
            extension_profile(g, 2, node_budget=len(pairs) - 1)


def test_leaf_step_meets_each_neighbour_pair_once():
    # GL_2(5), the slowest search-ring job: 12 pair anchors at the vertex,
    # whose leaf steps walked 3,306 common neighbours, every neighbour pair
    # twice; from the larger suborbit only they walk 1,284
    gl25 = unit_difference_graph(2, 5)
    want = frozen_profile("GL_2(5) profile k=3 through a vertex")
    assert sum(leaf_walks(gl25, 0).values()) == 1284
    assert extension_profile(gl25, 3, containing=[7], node_budget=1296) == want
    for search in (partial(extension_profile, gl25, 3, containing=[7]), partial(count_cliques, gl25, 3)):
        with pytest.raises(BudgetExceeded, match="exceeded 1295 nodes; largest clique found: 3, anchors finished: 11 of 12$"):
            search(node_budget=1295)
    assert count_cliques(gl25, 3, node_budget=1296).nodes == 1296


def serial_pool_class(opened: list) -> type:
    """A serial stand-in for the process pool, so no process is started;
    opened gets the max_workers of every pool opened."""

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


def assert_leaf_step_equals_plain_walk(g: Graph) -> None:
    """A census to kmax = 3 and profiles at k = 3, through no vertex and
    through the least vertex of each orbit, equal the plain walk's, run
    twice: a profile's second leaf step builds the leaf tables that it and
    every later one bin by.  They charge the nodes of the first, and 1 and 3
    workers (any pool run serially) agree on the answer and the nodes at a
    budget of nodes, and on the error at nodes - 1 with the first search of
    a fresh copy of g, which bins every candidate."""
    import concurrent.futures

    h, big, used = plain(g), 10**8, []
    search = graphs._search

    def spy(*args):
        out = search(*args)
        used.append(out[2])
        return out

    bases = [[]] + [[r] for r, _, _ in _symmetry(g)[1]]
    runs = [(count_cliques, 3, {})] + [(extension_profile, 3, {"containing": base}) for base in bases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool_class([]))
        mp.setattr(graphs, "_search", spy)
        for run, k, kwargs in runs:
            used.append(0)  # a profile at k > n runs no search and charges nothing
            want = run(h, k, node_budget=big, **kwargs)
            first = run(g, k, node_budget=big, **kwargs)
            nodes = used[-1]
            second = run(g, k, node_budget=big, **kwargs)
            assert used[-1] == nodes
            if run is count_cliques:
                want, first, second = want.counts, first.counts, second.counts
            assert first == second == want
            errors = []
            if nodes:
                fresh = _with_generators(Graph(g.n, g.adj), g.generators)
                with pytest.raises(BudgetExceeded) as err:
                    run(fresh, k, node_budget=nodes - 1, **kwargs)
                errors.append(str(err.value))
            for workers in (1, 3):
                at = run(g, k, node_budget=nodes, workers=workers, **kwargs)
                assert (at.counts if run is count_cliques else at) == want and used[-1] == nodes
                if nodes:
                    with pytest.raises(BudgetExceeded) as err:
                        run(g, k, node_budget=nodes - 1, workers=workers, **kwargs)
                    errors.append(str(err.value))
            assert len(set(errors)) <= 1


# GL_2(5) and P(M_2(4)) too: their leaf tables merge the most candidates
LEAF_GRAPHS = ORBIT_GRAPHS + [("GL", 2, 5, 3), ("M", 2, 4, 3)]


@pytest.mark.parametrize("case", LEAF_GRAPHS, ids=lambda c: "-".join(map(str, c[:-1])))
def test_leaf_step_equals_plain_walk(case):
    kind, *args, _ = case
    assert_leaf_step_equals_plain_walk(BUILD[kind](*args))


@settings(max_examples=100, deadline=None)
@given(g=graphs_with_generators())
def test_leaf_step_equals_plain_walk_property(g):
    assert_leaf_step_equals_plain_walk(g)


def test_leaf_tables_are_built_once_by_the_second_profile_at_k_3(monkeypatch):
    # no build and no search but a profile at k = 3 through at most one
    # vertex builds a leaf table; the second such profile to reach a suborbit
    # builds its table, once, and every later one reads it
    built, build = [], graphs._leaf_table

    def spy(adj, generators, r, s, parts):
        built.append(s)
        return build(adj, generators, r, s, parts)

    monkeypatch.setattr(graphs, "_leaf_table", spy)
    g = unit_difference_graph(2, 3)
    c, triangle = g.n - 1, find_clique(g, 3)
    floor_one = unit_difference_graph(1, 9)  # GL_1(q) has no suborbit table
    for _ in range(2):
        for k in range(6):
            count_cliques(g, k)
            find_clique(g, k)
            if k != 3:
                extension_profile(g, k)
                extension_profile(g, max(k, 1), containing=[c])
            if k >= 2:
                extension_profile(g, k, containing=triangle[:2])
        extension_profile(g, 3, containing=triangle)
        max_clique_order(g)
        extension_profile(floor_one, 3)
    assert built == []
    ((r, _, suborbits),) = _symmetry(g)[1]
    want = extension_profile(plain(g), 3, containing=[c])
    assert extension_profile(g, 3, containing=[c]) == want and built == []
    assert extension_profile(g, 3, containing=[c]) == want and built == [s for s, *_ in suborbits]
    assert [leaf[-1] != () for *_, leaf in suborbits] == [False, True, True, True]  # GL_2(3): 3 of 4 merge
    for _ in range(3):
        assert extension_profile(g, 3, containing=[c]) == want
        assert extension_profile(g, 3) == extension_profile(plain(g), 3)
    assert built == [s for s, *_ in suborbits]
    # a Schreier generator that moves s (its image of s swapped with that of
    # the first candidate, if any) raises at the build, and at the next try
    schreier = graphs._schreier

    def corrupted(fixing, points):
        for h in schreier(fixing, points):
            yield [h[0], *h[2:3], h[1], *h[3:]]

    monkeypatch.setattr(graphs, "_schreier", corrupted)
    g = unit_difference_graph(2, 3)
    assert extension_profile(g, 3, containing=[c]) == want
    for _ in range(2):
        with pytest.raises(AssertionError, match=r"^a Schreier generator of \(0, 10\) moves 0 or 10$"):
            extension_profile(g, 3, containing=[c])


def test_drawn_graphs_reach_the_pairs_and_the_level_one_fallback():
    # test_orbit_search_equals_plain_walk_property draws graphs of both kinds
    def tables(g: Graph) -> bool:
        return all(table is not None for _, _, table in _symmetry(g)[1])

    settings_ = settings(database=None, max_examples=500, phases=[Phase.generate])
    assert tables(find(graphs_with_generators(), tables, settings=settings_))
    assert not tables(find(graphs_with_generators(), lambda g: not tables(g), settings=settings_))
    # and, for test_leaf_step_equals_plain_walk_property, suborbits that split the leaf step
    def split_leaf(g: Graph) -> bool:
        return tables(g) and all(len(table) > 1 for _, _, table in _symmetry(g)[1])

    split = find(graphs_with_generators(), split_leaf, settings=settings_)
    assert min(len(table) for _, _, table in _symmetry(split)[1]) >= 2


def test_generator_that_is_no_automorphism_raises():
    # each bad generator attaches without error, and the first search raises
    g = matrix_ring_graph(2, 3)
    sigma = list(g.generators[0])
    sigma[0], sigma[1] = sigma[1], sigma[0]  # two images swapped
    bad = [
        (1, [g.generators[1], sigma]),
        (0, [list(range(g.n - 1)) + [0]]),  # not a bijection
        (1, [g.generators[0], list(range(g.n - 1))]),  # too short
    ]
    for index, generators in bad:
        h = _with_generators(Graph(g.n, g.adj, g.labels), generators)
        with pytest.raises(ValueError, match=f"^generator {index} is not an automorphism$"):
            count_cliques(h, 3)
    # past one column block: a circulant with the shift, and the shift with two
    # images swapped in the first block and in the last (distances 1 and 2, so
    # each swap breaks rows of its own block only)
    n = 2 * _SYMMETRY_BLOCK + 37
    rows = [sum(1 << (v + d) % n for d in (1, 2, -1, -2)) for v in range(n)]
    shift = [(v + 1) % n for v in range(n)]
    assert _symmetry(_with_generators(Graph(n, rows), [shift]))[1] == [(0, n, None)]
    for v in (20, n - 20):
        swapped = list(shift)
        swapped[v], swapped[v + 1] = swapped[v + 1], swapped[v]
        h = _with_generators(Graph(n, rows), [shift, swapped])
        with pytest.raises(ValueError, match="^generator 1 is not an automorphism$"):
            count_cliques(h, 3)


def test_searches_do_not_check_generators_again(monkeypatch):
    # the first search checks the generators and builds the record; no later one does either
    g = matrix_ring_graph(2, 3)
    h = plain(g)
    want = count_cliques(h, 4).counts, extension_profile(h, 3), max_clique_order(h)
    through = extension_profile(h, 4, containing=[g.n - 1])
    assert count_cliques(g, 4).counts == want[0]

    def check(*args):
        raise AssertionError("a search checked the generators again")

    monkeypatch.setattr(graphs, "_check_transpose", check)
    monkeypatch.setattr(graphs, "_orbit_table", check)
    assert (count_cliques(g, 4).counts, extension_profile(g, 3), max_clique_order(g)) == want
    assert extension_profile(g, 4, containing=[g.n - 1]) == through
    witness = find_clique(g, want[2])
    assert witness is not None and len(witness) == want[2] and is_clique(g, witness)
    assert find_clique(g, want[2] + 1) is None


def test_deferred_generator_that_is_no_automorphism_raises_at_each_first_search():
    # attached as the ring constructors attach theirs, a bad generator builds,
    # and every search that reads the record raises; a failed check keeps
    # nothing, so each search checks again
    g = matrix_ring_graph(2, 3)
    sigma = list(g.generators[0])
    sigma[0], sigma[1] = sigma[1], sigma[0]  # two images swapped
    bad = graphs._with_generators(Graph(g.n, g.adj, g.labels), [g.generators[1], sigma])
    searches = [
        partial(count_cliques, bad, 3),
        partial(extension_profile, bad, 3),
        partial(find_clique, bad, 3),
        partial(max_clique_order, bad),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="^generator 1 is not an automorphism$"):
            search()
        assert bad._orbits is None


def test_ring_graphs_are_built_without_their_symmetry_record(monkeypatch, tmp_path, capsys):
    # one transpose check each, of the rows alone; the generators wait for a search
    calls, check = [], graphs._check_transpose

    def spy(rows, cols, perms):
        calls.append(perms)
        return check(rows, cols, perms)

    def refuse(*args):
        raise AssertionError("a build made the symmetry record")

    monkeypatch.setattr(graphs, "_check_transpose", spy)
    monkeypatch.setattr(graphs, "_orbit_table", refuse)
    builds = [
        partial(zn_projective_line, 30),
        partial(matrix_ring_graph, 2, 3),
        partial(unit_difference_graph, 2, 3),
        partial(spec_graph, RingSpec([MatrixRing(2, 2)])),
    ]
    for build in builds:
        calls.clear()
        g = build()
        assert calls == [[range(g.n)]] and g.generators and g._orbits is None
    calls.clear()
    spec = tmp_path / "m23.json"
    spec.write_text('{"summands": [{"matrix": {"m": 2, "q": 3}}], "radical": 1}')
    assert main(["build", "--spec", str(spec)]) == 0
    assert calls == [[range(130)]] and capsys.readouterr().out == "130 vertices, 81-regular, 5265 edges\n"


@st.composite
def small_graphs(draw):
    """A ring graph with its generators (orbit search), or one from drawn
    edges on at most 8 vertices (the ordered walk)."""
    if draw(st.booleans()):
        kind, *args = draw(st.sampled_from([("Z", 4), ("Z", 6), ("Z", 9), ("M", 1, 3), ("M", 1, 4), ("GL", 1, 5), ("GL", 2, 2)]))
        return BUILD[kind](*args)
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=60, deadline=None)
@given(a=small_graphs(), b=small_graphs(), t=st.integers(1, 3))
def test_decomposition_laws_property(a, b, t):
    # products and blow-ups carry no generators: the plain census of the
    # product checks the orbit census of the factors
    kmax = 4
    na, nb = count_cliques(a, kmax).as_list(), count_cliques(b, kmax).as_list()
    product = tensor_product(a, b)
    assert not product.generators
    nab = count_cliques(product, kmax).as_list()
    assert all(nab[k] == factorial(k) * na[k] * nb[k] for k in range(kmax + 1))
    scaled = count_cliques(blowup(a, t), kmax).as_list()
    assert all(scaled[k] == t**k * na[k] for k in range(kmax + 1))
    assert max_clique_order(product) == min(max_clique_order(a), max_clique_order(b))


def edgewise_product(a: Graph, b: Graph) -> list[int]:
    """Rows of a x b by definition, the loop of T included: (va, vb) ~
    (ua, ub) iff va ~ ua and vb ~ ub."""
    return [
        sum(1 << ua * b.n + ub for ua in range(a.n) for ub in range(b.n) if a.has_edge(va, ua) and b.has_edge(vb, ub))
        for va in range(a.n)
        for vb in range(b.n)
    ]


def edgewise_blowup(g: Graph, t: int) -> list[int]:
    """Rows of the t-fold blow-up by definition: (v, i) ~ (u, j) iff v ~ u."""
    return [
        sum(1 << u * t + j for u in range(g.n) for j in range(t) if g.has_edge(v, u))
        for v in range(g.n)
        for _ in range(t)
    ]


algebra_factors = st.one_of(st.just(Graph.T()), small_graphs())


@settings(max_examples=80, deadline=None)
@given(a=algebra_factors, b=algebra_factors, t=st.integers(1, 4))
@example(a=Graph.T(), b=Graph.empty(1), t=4)
@example(a=Graph.empty(1), b=Graph.T(), t=4)
@example(a=Graph.T(), b=Graph.T(), t=1)
@example(a=Graph.empty(5), b=Graph.complete(3), t=4)
@example(a=Graph.complete(4), b=Graph.empty(0), t=2)
def test_algebra_rows_follow_the_edgewise_definition(a, b, t):
    assert list(tensor_product(a, b).adj) == edgewise_product(a, b)
    if not a.is_T:
        assert list(blowup(a, t).adj) == edgewise_blowup(a, t)


def test_orbit_budget_is_schedule_independent(eager_pool):
    g = zn_projective_line(30)
    serial = count_cliques(g, 4, workers=1)
    parallel = count_cliques(g, 4, workers=3)
    assert serial.counts == parallel.counts and serial.nodes == parallel.nodes
    assert serial.counts == count_cliques(plain(g), 4).counts
    needed = serial.nodes
    for workers in (1, 3):
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 4, node_budget=needed - 1, workers=workers)
        assert count_cliques(g, 4, node_budget=needed, workers=workers).nodes == needed
    assert extension_profile(g, 3, workers=1) == extension_profile(g, 3, workers=3)


def test_orbit_max_clique_of_p_m2_4():
    # omega = q^2 + 1; the plain search needs minutes, the anchored one a few nodes
    assert max_clique_order(matrix_ring_graph(2, 4), node_budget=10_000) == 17


# ---------------------------------------------------------------------------
# the clique-coclique ceiling and the twin classes of the clique searches
# ---------------------------------------------------------------------------


def circulant(m: int, dist: set[int], isolated: int = 0) -> Graph:
    """Z/m, v ~ u when u - v or v - u is in dist, turned by the shift, then
    `isolated` vertices that the shift fixes."""
    rows = [sum(1 << u for u in range(m) if u != v and min((u - v) % m, (v - u) % m) in dist) for v in range(m)]
    shift = [(v + 1) % m for v in range(m)] + list(range(m, m + isolated))
    return _with_generators(Graph(m + isolated, rows + [0] * isolated), [shift])


def test_greedy_coclique_is_independent_and_tight_on_the_ring_graphs():
    for g, omega in ((matrix_ring_graph(2, 3), 10), (unit_difference_graph(2, 5), 24), (matrix_ring_graph(2, 9), 82)):
        assert len(_symmetry(g)[1]) == 1
        coclique = graphs._coclique(g.adj, 0)
        members = sum(1 << v for v in coclique)
        assert coclique == sorted(coclique) and all(g.adj[v] & members == 0 for v in coclique)
        assert g.n // len(coclique) == omega == max_clique_order(g)
        # with best = omega it stops at the first size that settles omega
        short = graphs._coclique(g.adj, omega)
        assert short == coclique[: len(short)] and g.n // len(short) <= omega < g.n // (len(short) - 1)


def test_coclique_ceiling_settles_where_the_colouring_does_not(monkeypatch):
    # on Z/9 with distances 1, 3, 4 the dive from 0 finds a 4-clique in 4
    # nodes, and 9 // |I| = 4 settles it for one more; the greedy colouring
    # of adj[0] takes 4 colours, so the root's colour bound leaves it open
    # (the search without the ceiling takes 6 nodes)
    g = circulant(9, {1, 3, 4})
    assert g.n // len(graphs._coclique(g.adj, 0)) == 4
    assert max_clique_order(g, node_budget=5) == 4
    with pytest.raises(BudgetExceeded, match="exceeded 4 nodes; largest clique found: 4, representatives searched: 0 of 1$"):
        max_clique_order(g, node_budget=4)
    monkeypatch.setattr(graphs, "CENSUS_NODE_BUDGET", 5)
    assert find_clique(g, 5) is None
    # on Z/9 with distances 1, 3 the dive finds an edge, and 9 // |I| = 3
    # leaves the search open until it finds a triangle
    h = circulant(9, {1, 3})
    assert h.n // len(graphs._coclique(h.adj, 0)) == 3
    assert max_clique_order(h) == 3 and is_clique(h, find_clique(h, 3))


def test_two_orbits_take_no_coclique_ceiling(monkeypatch):
    # Z/9 with distances 1, 3 and one vertex apart: the dives find an edge
    # and 10 // |I| = 2 would end the search there, but the graph is not
    # vertex-transitive and has a triangle
    g = circulant(9, {1, 3}, isolated=1)
    assert [orbit[:2] for orbit in _symmetry(g)[1]] == [(0, 9), (9, 1)] and g.n // len(graphs._coclique(g.adj, 0)) == 2
    assert max_clique_order(g) == 3 and is_clique(g, find_clique(g, 3))

    def refuse(*args):
        raise AssertionError("the coclique ceiling ran on two orbits")

    monkeypatch.setattr(graphs, "_coclique", refuse)
    assert max_clique_order(g) == 3 and len(find_clique(g, 3)) == 3


def test_zero_vertex_graph_with_generators_takes_no_coclique_ceiling():
    g = _with_generators(Graph(0, []), [[]])
    assert g.generators and _symmetry(g) == ({}, [])
    assert max_clique_order(g) == 0 and find_clique(g, 0) == [] and find_clique(g, 1) is None


def test_twin_classes_settle_blowups_of_the_ring_graphs():
    # a blow-up has no generators, and a clique holds one vertex per twin
    # class, so the search walks the 130 least vertices in the 6,659 nodes
    # of the line without generators; walking every vertex took 110,795
    # nodes for t = 2 and 632,207 for t = 3
    assert max_clique_order(plain(matrix_ring_graph(2, 3)), node_budget=6659) == 10
    for t in (2, 3):
        g = spec_graph(RingSpec([MatrixRing(2, 3)], radical_multiplier=t))
        assert not g.generators and g.n == 130 * t
        assert max_clique_order(g, node_budget=6659) == 10
        with pytest.raises(BudgetExceeded, match="^max-clique search exceeded 6658 nodes"):
            max_clique_order(g, node_budget=6658)


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(graphs_with_generators(), edge_graphs()), t=st.integers(1, 3))
def test_twin_classes_equal_the_unmasked_search_property(g, t):
    b = blowup(plain(g), t)
    every = [([], (1 << b.n) - 1)]
    omega = len(_branch_and_bound(b.adj, 0, b.n + 1, 10**7, "probe", every))
    assert max_clique_order(b) == omega == max_clique_order(g)
    for k in range(1, omega + 2):
        unmasked = len(_branch_and_bound(b.adj, k - 1, k, 10**7, "probe", every)) >= k
        assert (find_clique(b, k) is not None) == unmasked == (k <= omega)


def test_combinators_carry_no_generators():
    g = zn_projective_line(6)
    assert g.generators
    assert g == plain(g) and hash(g) == hash(plain(g))
    assert g != g.adj and g != "P(Z/6)"  # no Graph: NotImplemented, then identity
    for h in (tensor_product(g, g), blowup(g, 2), complement(g), disjoint_union([g, g])):
        assert h.generators == ()
    assert tensor_product(Graph.T(), g) is g and blowup(g, 1) is g


@pytest.fixture
def serial_pool(monkeypatch):
    """serial_pool_class in place of the process pool; the list it returns
    gets the max_workers of every pool opened."""
    import concurrent.futures

    opened: list = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool_class(opened))
    return opened


def test_search_pool_is_capped_at_the_available_cpus(eager_pool, serial_pool):
    g = plain(zn_projective_line(30))
    wide = count_cliques(g, 3, workers=10**6)
    # one share per process, on at most the CPUs
    assert serial_pool == [min(g.n, graphs._default_workers())]
    serial = count_cliques(g, 3)
    assert wide.counts == serial.counts and wide.nodes == serial.nodes


def test_search_runs_one_share_per_cpu(eager_pool, serial_pool, monkeypatch):
    # a million workers on c CPUs walk the prefix and then min(c, 30) shares
    # of the 30 roots, or the prefix alone on one CPU, to the serial answer
    walk, calls = graphs._walk, []

    def spy_walk(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(graphs, "_walk", spy_walk)
    g = plain(zn_projective_line(30))
    serial = count_cliques(g, 3)
    for cpus in (1, 2, 3, 29, 30, 64):
        monkeypatch.setattr(graphs, "_default_workers", lambda: cpus)
        calls.clear()
        serial_pool.clear()
        wide = count_cliques(g, 3, workers=10**6)
        shares = min(cpus, g.n) if cpus > 1 else 0
        assert len(calls) == 1 + shares and serial_pool == ([shares] if shares else [])
        assert wide.counts == serial.counts and wide.nodes == serial.nodes


def test_search_under_the_probe_opens_no_pool(serial_pool):
    g = plain(zn_projective_line(30))
    census = count_cliques(g, 4, workers=3)
    assert census.nodes <= graphs._POOL_PROBE
    assert census == count_cliques(g, 4)
    assert extension_profile(g, 3, workers=3) == extension_profile(g, 3)
    assert serial_pool == []


def test_anchors_over_the_budget_raise_before_any_pool(serial_pool):
    # the anchors alone charge more than the budget: the serial walk must not
    # take that for the pool probe and hand its roots to a pool
    g = unit_difference_graph(2, 3)
    assert len(pair_anchors(g)) > 2
    for workers in (1, 2, 3):
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 4, node_budget=2, workers=workers)
    assert serial_pool == []


def test_search_crossing_the_probe_hands_over_to_the_pool(monkeypatch):
    # the serial prefix and the pool's shares add up to the serial walk
    import concurrent.futures

    opened = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(graphs, "_default_workers", lambda: 4)  # 2 and 3 workers open a pool on any host
    g = plain(zn_projective_line(110))
    serial = count_cliques(g, 3)
    needed = serial.nodes
    assert needed > 1.2 * graphs._POOL_PROBE and not opened
    for workers in (1, 2, 3):
        opened.clear()
        assert count_cliques(g, 3, node_budget=needed, workers=workers) == serial
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 3, node_budget=needed - 1, workers=workers)
        assert len(opened) == (0 if workers == 1 else 2)
    assert extension_profile(g, 3, workers=2) == extension_profile(g, 3)


def clique_ladder() -> Graph:
    """K_8, then eight copies of K_4, one orbit each under a shift of every
    component at once.  No generator fixes a vertex, so the searches take
    the level-1 anchors: adj[0], 7 wide, whose 4-cliques have 4 common
    neighbours, then eight anchors 3 wide."""
    sizes = [8] + [4] * 8
    rows, shift, offset = [], [], 0
    for size in sizes:
        block = ((1 << size) - 1) << offset
        rows += [block ^ 1 << v for v in range(offset, offset + size)]
        shift += [offset + (v + 1) % size for v in range(size)]
        offset += size
    return _with_generators(Graph(offset, rows), [shift])


def test_hand_over_at_every_stop_point(serial_pool, monkeypatch):
    # wherever the serial prefix stops, the pool's shares finish the walk:
    # counts, profiles and nodes equal the serial walk's, the budget runs out
    # at nodes - 1, and shares whose anchors bin into a shorter histogram than
    # the prefix's are summed with it position by position
    walk, search, walks, used = graphs._walk, graphs._search, [], []

    def spy_walk(adj, depth, anchors, *args, **kwargs):
        out = walk(adj, depth, anchors, *args, **kwargs)
        walks.append(out[1])
        return out

    def spy_search(adj, depth, *args):
        out = search(adj, depth, *args)
        used.append(out[2])
        return out

    monkeypatch.setattr(graphs, "_walk", spy_walk)
    monkeypatch.setattr(graphs, "_search", spy_search)
    monkeypatch.setattr(graphs, "_default_workers", lambda: 4)  # 2 and 3 workers split 2 and 3 ways on any host
    gl23 = unit_difference_graph(2, 3)
    assert [(gl23.adj[r] & gl23.adj[s]).bit_count() for r, s, _ in pair_anchors(gl23)] == [18, 15, 14, 14]
    cases = {
        "GL_2(3)": gl23,
        "P(M_2(3))": matrix_ring_graph(2, 3),
        "P(Z/30)": zn_projective_line(30),
        "plain P(Z/30)": plain(zn_projective_line(30)),
        "ladder": clique_ladder(),
    }
    # graph -> whether the prefix, on handing shorter histograms to the
    # pool, had filled bins past them: the bins the padding keeps
    shorter: dict[str, bool] = {}
    for name, g in cases.items():
        searches = [partial(count_cliques, g, k) for k in (4, 5)]
        searches += [partial(extension_profile, g, 4, containing=base) for base in ([], [g.n - 1])]
        for run in searches:
            want = run(workers=1)
            nodes = used[-1]
            for probe in (0, 1, 2, 5, 17, 100, 1000):
                monkeypatch.setattr(graphs, "_POOL_PROBE", probe)
                for workers in (2, 3):
                    walks.clear()
                    assert run(workers=workers) == want and used[-1] == nodes
                    prefix, *shares = walks
                    if shares and len(shares[0]) < len(prefix):
                        shorter[name] = shorter.get(name, False) or any(prefix[len(shares[0]) :])
                    with pytest.raises(BudgetExceeded):
                        run(workers=workers, node_budget=nodes - 1)
    # GL_2(3) hands over after its widest pair, and the ladder after its
    # first anchor, whose cliques fill bins that no later anchor has
    assert shorter == {"GL_2(3)": False, "ladder": True}
