"""Expected answers, computed outside the timed region.

Ring-graph answers come from the closed forms in `ringline.formulas`; where
no closed form exists they come from values frozen in `expected.json`.
Random-graph answers come from numpy and networkx, which share no code with
ringline's search.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


# ---------------------------------------------------------------------------
# ring graphs
# ---------------------------------------------------------------------------


def matrix_line_extensions(m: int, q: int) -> list[int]:
    """c_0..c_3: extensions of a k-clique of P(M_m(q)) (c_0 = point count)."""
    from ringline.formulas import c_extension_poly

    return [c_extension_poly(m, k)(q) for k in range(4)]


def matrix_line_census(m: int, q: int, kmax: int) -> list[int]:
    """N_0..N_kmax for P(M_m(q)), kmax <= 4: N_{k+1} = N_k c_k / (k+1)."""
    if kmax > 4:
        raise ValueError("closed forms reach k = 4 only")
    c = matrix_line_extensions(m, q)
    counts = [1]
    for k in range(kmax):
        counts.append(counts[-1] * c[k] // (k + 1))
    return counts


def matrix_line_profile(m: int, q: int, k: int, fixed: int) -> dict[int, int]:
    """Profile at k <= 3 of the k-cliques through a fixed clique of size `fixed`."""
    c = matrix_line_extensions(m, q)
    through = 1
    for i in range(fixed, k):
        through *= c[i]
    for i in range(1, k - fixed + 1):
        through //= i
    return {c[k]: through}


def unit_graph_census(m: int, q: int, kmax: int) -> list[int]:
    """GL_m(q) unit-difference graph, kmax <= 2: its j-cliques are the
    (j+2)-cliques of P(M_m(q)) through one edge, so N_1 = c_2, N_2 = c_2 c_3 / 2."""
    if kmax > 2:
        raise ValueError("closed forms reach k = 2 only")
    c = matrix_line_extensions(m, q)
    return [1, c[2], c[2] * c[3] // 2][: kmax + 1]


def spec_vertices_degree(spec: dict) -> tuple[int, int]:
    """(vertex count, regular degree) of a spec graph: multiplicative over
    the tensor factors, times the radical blow-up factor."""
    from ringline.formulas import qbinom

    vertices, degree = 1, 1
    for item in spec["summands"]:
        if "local" in item:
            R, J = item["local"]["R"], item["local"]["J"]
            q = R // J
            vertices *= (q + 1) * J
            degree *= q * J
        else:
            m, q = item["matrix"]["m"], item["matrix"]["q"]
            vertices *= qbinom(2 * m, m)(q)
            degree *= q ** (m * m)
    r = spec.get("radical", 1)
    return vertices * r, degree * r


def unit_graph_vertices_degree(m: int, q: int) -> tuple[int, int]:
    """|GL_m(q)| vertices (the codegree of the line), degree c_3."""
    from ringline.linalg import gl_order

    return gl_order(m, q), matrix_line_extensions(m, q)[3]


def zn_spec(n: int):
    from ringline.rings import zn_local_decomposition

    return zn_local_decomposition(n)


def zn_census(n: int, kmax: int) -> list[int]:
    from ringline.formulas import comm_clique_count_vertex_sets

    spec = zn_spec(n)
    return [1] + [comm_clique_count_vertex_sets(spec, k) for k in range(1, kmax + 1)]


def zn_profile(n: int, k: int, fixed: int) -> dict[int, int]:
    """Uniform profile of P(Z/n) at k, over the k-cliques through a fixed
    clique of size `fixed` (0 or 1; vertex-transitive)."""
    from ringline.formulas import comm_extension_count

    n_k = zn_census(n, k)[k]
    if fixed == 1:
        n_k = n_k * k // zn_census(n, 1)[1]
    return {comm_extension_count(zn_spec(n), k): n_k} if n_k else {}


def zn_max_clique(n: int) -> int:
    from ringline.formulas import comm_max_clique

    return comm_max_clique(zn_spec(n))


def zn_vertices_degree(n: int) -> tuple[int, int]:
    counts = zn_census(n, 2)
    return counts[1], 2 * counts[2] // counts[1]


def frozen(key: str):
    """A frozen answer; dict answers are stored with string keys."""
    value = EXPECTED[key]
    if isinstance(value, dict):
        return {int(k): v for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


def adjacency_matrix(n: int, edges):
    import numpy as np

    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def dense_census(n: int, edges, kmax: int) -> list[int]:
    """N_0..N_4 by matrix algebra: triangles trace(A^3)/6; 4-cliques are the
    edges inside each edge's common neighbourhood, summed over edges, / 6."""
    import numpy as np

    if kmax > 4:
        raise ValueError("matrix oracle reaches k = 4 only")
    a = adjacency_matrix(n, edges)
    counts = [1, n, len(edges), int(np.trace(a @ a @ a)) // 6]
    us = np.array([u for u, _ in edges])
    vs = np.array([v for _, v in edges])
    common = a[us] * a[vs]
    inner = ((common @ a) * common).sum() // 2
    counts.append(int(inner) // 6)
    return counts[: kmax + 1]


def enumerated_census(n: int, edges, kmax: int) -> list[int]:
    """Clique counts by networkx clique enumeration (sparse graphs)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    counts = [1] + [0] * kmax
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) > kmax:
            break
        counts[len(clique)] += 1
    return counts


def profile_through(n: int, edges, k: int, fixed: list[int]) -> dict[int, int]:
    """Profile of the k-cliques containing `fixed`, for k = |fixed| + 1 or
    k = 2 with nothing fixed: common-neighbour counts read from A and A^2."""
    import numpy as np

    a = adjacency_matrix(n, edges)
    hist: Counter[int] = Counter()
    if not fixed and k == 2:
        sq = a @ a
        for u, v in edges:
            hist[int(sq[u, v])] += 1
    elif len(fixed) == k - 1:
        common = np.ones(n, dtype=np.int64)
        for v in fixed:
            common = common * a[v]
        for w in np.flatnonzero(common):
            hist[int((common * a[w]).sum())] += 1
    else:
        raise ValueError("unsupported profile shape")
    return {c: hist[c] for c in sorted(hist)}


def enumerated_profile(n: int, edges, k: int) -> dict[int, int]:
    """Profile at k of every k-clique: cliques listed by networkx, common
    neighbours counted with numpy (sparse graphs)."""
    import networkx as nx
    import numpy as np

    a = adjacency_matrix(n, edges)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    hist: Counter[int] = Counter()
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) > k:
            break
        if len(clique) == k:
            hist[int(np.prod(a[clique], axis=0).sum())] += 1
    return {c: hist[c] for c in sorted(hist)}


def max_clique(n: int, edges) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return len(nx.max_weight_clique(g, weight=None)[0])

