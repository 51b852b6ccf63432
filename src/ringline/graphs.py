"""Finite simple graphs as bitset adjacency rows, plus the loop graph T.

Vertices are 0..n-1; row v is a Python int whose bit u is set when
u ~ v.  Graphs are immutable after construction and safe to share
across workers.  T, the single vertex with a loop, is the identity of
the tensor product and is rejected by every other combinator.

Every constructor checks the rows in full: no bits outside the vertex
range, no loops, and symmetry.  Symmetry is checked on transposed bit
strings rather than edge by edge.  For a block of 512 columns, one
string joins those bits of every row, and each column of the block is a
strided slice of it that must equal the row string of the same vertex.
A pass holds about 2 * n * 512 characters, so peak memory is
O(n * block), never the n^2 characters of the whole matrix (400 MB at
the 20,000-vertex bound).  A mismatch raises on the first edge v->u, least
v then least u, whose reverse is missing.

The census and the extension profile run one ordered backtracking walk:
cliques are enumerated exactly once, in increasing vertex order, with
one budget "node" charged per clique visited.  The last level is
settled in one step per parent: its candidates are charged and counted
by a popcount, and binned by extension count only when there are
common neighbours to bin by.  Worker i of w walks the cliques whose
minimum vertex is root i, i + w, ..., so counts and budget outcomes do
not depend on w.  Exceeding the budget raises; there are no silent
partial answers.

Clique existence (find_clique) and the maximum clique (max_clique_order)
share a second core, one colour-bounded branch and bound.  There are two
cores because the questions differ: a count must visit every clique, so
nothing can be pruned, while existence and maximum only need one
witness and cut every branch whose colour bound cannot beat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Sequence

from .config import CENSUS_NODE_BUDGET, VERTEX_BOUND
from .errors import BoundExceeded, BudgetExceeded


# Columns per pass of the symmetry check; it bounds the pass's memory.
_SYMMETRY_BLOCK = 512


def _check_symmetric(adj: tuple[int, ...]) -> None:
    """Raise on the first edge v->u, least v then least u, whose reverse is missing.

    Row v is written as its n-bit binary string, most significant bit
    first, so vertex u sits at position n - 1 - u.  For the columns
    [c0, c0 + w) the bits c0..c0+w-1 of every row are joined, last row
    first, into one string of n * w characters; column v of the adjacency
    matrix is then its stride-w slice from c0 + w - 1 - v, written the same
    way as row v.  The graph is symmetric iff every row equals its column.
    """
    n = len(adj)
    full = f"0{n}b"
    for c0 in range(0, n, _SYMMETRY_BLOCK):
        w = min(_SYMMETRY_BLOCK, n - c0)
        mask, part = (1 << w) - 1, f"0{w}b"
        flat = "".join([format(row >> c0 & mask, part) for row in reversed(adj)])
        for v in range(c0, c0 + w):
            column = flat[c0 + w - 1 - v :: w]
            if format(adj[v], full) != column:
                # bit u of the column is bit v of row u
                missing = adj[v] & ~int(column, 2)
                if missing:
                    u = (missing & -missing).bit_length() - 1
                    raise ValueError(f"asymmetric edge {v}->{u}")


class Graph:
    __slots__ = ("n", "adj", "is_T", "labels")

    def __init__(
        self,
        n: int,
        adj: Sequence[int],
        labels: Sequence[str] | None = None,
        is_T: bool = False,
    ):
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency row count mismatch")
        if is_T:
            if n != 1 or adj != (1,):
                raise ValueError("T is the single vertex with one loop")
        else:
            mask = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~mask:
                    raise ValueError(f"row {v} has bits outside the vertex range")
                if row >> v & 1:
                    raise ValueError(f"loop at vertex {v}")
            _check_symmetric(adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count mismatch")
        self.n = n
        self.adj = adj
        self.is_T = is_T
        self.labels = labels

    @classmethod
    def T(cls) -> "Graph":
        return cls(1, (1,), labels=("T",), is_T=True)

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None
    ) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)], [str(v) for v in range(n)])

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n, [str(v) for v in range(n)])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            bits = self.adj[v] >> (v + 1) << (v + 1)
            while bits:
                u = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                yield (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def regular_degree(self) -> int | None:
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no vertex labelled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.adj, self.is_T) == (other.n, other.adj, other.is_T)

    def __hash__(self) -> int:
        return hash((self.n, self.adj, self.is_T))

    def __repr__(self) -> str:
        if self.is_T:
            return "Graph.T()"
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# ---------------------------------------------------------------------------
# graph algebra
# ---------------------------------------------------------------------------


def tensor_product(a: Graph, b: Graph, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Vertex pairs, adjacent when both coordinates are adjacent.

    T is the identity: its loop pairs with every edge of the other
    factor, so the product is the other factor unchanged.
    """
    if a.is_T:
        return b
    if b.is_T:
        return a
    n = a.n * b.n
    if n > vertex_bound:
        raise BoundExceeded(f"tensor product has {n} vertices, bound {vertex_bound}")
    rows = []
    for va in range(a.n):
        abits = a.adj[va]
        for vb in range(b.n):
            row = 0
            bits = abits
            while bits:
                ua = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                row |= b.adj[vb] << (ua * b.n)
            rows.append(row)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"{la}|{lb}" for la in a.labels for lb in b.labels]
    return Graph(n, rows, labels)


def blowup(g: Graph, t: int, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Replace each vertex by t mutually non-adjacent copies."""
    if t < 1:
        raise ValueError("blow-up factor must be positive")
    if t == 1:
        return g
    if g.is_T:
        raise ValueError("cannot blow up T")
    n = g.n * t
    if n > vertex_bound:
        raise BoundExceeded(f"blow-up has {n} vertices, bound {vertex_bound}")
    spread_rows: list[int] = []
    for v in range(g.n):
        row = 0
        bits = g.adj[v]
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            row |= ((1 << t) - 1) << (u * t)
        spread_rows.append(row)
    rows = [spread_rows[v] for v in range(g.n) for _ in range(t)]
    labels = None
    if g.labels is not None:
        labels = [f"{lab}#{i}" for lab in g.labels for i in range(t)]
    return Graph(n, rows, labels)


def complement(g: Graph) -> Graph:
    if g.is_T:
        raise ValueError("complement of T is undefined here")
    full = (1 << g.n) - 1
    rows = [(full ^ g.adj[v]) & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, rows, g.labels)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    if any(g.is_T for g in graphs):
        raise ValueError("disjoint union of T is undefined here")
    n = sum(g.n for g in graphs)
    rows = []
    offset = 0
    have_labels = all(g.labels is not None for g in graphs)
    labels: list[str] | None = [] if have_labels else None
    for i, g in enumerate(graphs):
        for v in range(g.n):
            rows.append(g.adj[v] << offset)
        if labels is not None:
            labels.extend(f"{i}/{lab}" for lab in g.labels)  # type: ignore[union-attr]
        offset += g.n
    return Graph(n, rows, labels)


# ---------------------------------------------------------------------------
# clique census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueCensus:
    """Exact per-size clique counts; counts[0] = 1 is the empty clique."""

    counts: dict[int, int]
    kmax: int
    nodes: int = 0

    def as_list(self) -> list[int]:
        return [self.counts[k] for k in range(self.kmax + 1)]


def _walk(
    adj: Sequence[int],
    depth: int,
    cand: int,
    common: int,
    roots: Sequence[int],
    budget: int,
    what: str,
):
    """Ordered walk over the cliques of 1..depth vertices of cand whose
    minimum vertex lies in roots.

    Returns (counts, hist, nodes): counts[d] is the number of d-cliques,
    hist[c] the number of depth-cliques with exactly c vertices of common
    adjacent to all of them, and nodes = sum(counts), one per clique.
    """
    counts = [0] * (depth + 1)
    hist = [0] * (common.bit_count() + 1)
    nodes = 0

    def rec(cand: int, common: int, size: int) -> None:
        nonlocal nodes
        if size + 1 == depth:
            # leaf step: every candidate closes one depth-clique
            width = cand.bit_count()
            nodes += width
            if nodes > budget:
                raise BudgetExceeded(f"{what} exceeded {budget} nodes")
            counts[depth] += width
            if not common:
                hist[0] += width
                return
            while cand:
                lsb = cand & -cand
                cand ^= lsb
                hist[(common & adj[lsb.bit_length() - 1]).bit_count()] += 1
            return
        while cand:
            lsb = cand & -cand
            v = lsb.bit_length() - 1
            cand ^= lsb
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"{what} exceeded {budget} nodes")
            counts[size + 1] += 1
            sub = cand & adj[v]
            if sub:
                rec(sub, common & adj[v], size + 1)

    for r in roots:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"{what} exceeded {budget} nodes")
        counts[1] += 1
        if depth == 1:
            hist[(common & adj[r]).bit_count()] += 1
        else:
            sub = cand & adj[r] & (-1 << (r + 1))
            if sub:
                rec(sub, common & adj[r], 1)
    return counts, hist, nodes


def _search(
    adj: Sequence[int], depth: int, cand: int, common: int, budget: int, workers: int, what: str
):
    """_walk over every root in cand; worker i takes the roots [i::workers].

    Each worker owns the cliques whose minimum vertex is one of its roots,
    so the summed counts, histogram and nodes do not depend on the split.
    """
    roots = []
    bits = cand if depth else 0  # a depth-0 search visits nothing
    while bits:
        roots.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    if workers <= 1 or depth < 2 or len(roots) < 2:
        return _walk(adj, depth, cand, common, roots, budget, what)
    chunks = [roots[i::workers] for i in range(min(workers, len(roots)))]
    # imported here so that a serial run never loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    task = partial(_walk, adj, depth, cand, common, budget=budget, what=what)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(task, chunks))
    counts, hists, nodes = zip(*parts)
    if sum(nodes) > budget:
        raise BudgetExceeded(f"{what} exceeded {budget} nodes")
    return [sum(c) for c in zip(*counts)], [sum(h) for h in zip(*hists)], sum(nodes)


def count_cliques(
    g: Graph,
    kmax: int,
    node_budget: int | None = None,
    workers: int = 1,
) -> CliqueCensus:
    """Exact number of k-cliques for 0 <= k <= kmax.

    For T there is one clique of every size.  The count is independent
    of the worker split: each worker owns the cliques whose minimum
    vertex falls in its share of the roots, and the totals are summed.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    budget = CENSUS_NODE_BUDGET if node_budget is None else node_budget
    if g.is_T:
        return CliqueCensus({k: 1 for k in range(kmax + 1)}, kmax, 0)
    counts, _, nodes = _search(g.adj, kmax, (1 << g.n) - 1, 0, budget, workers, "census")
    counts[0] = 1
    return CliqueCensus(dict(enumerate(counts)), kmax, nodes)


# ---------------------------------------------------------------------------
# cliques, extensions, profiles
# ---------------------------------------------------------------------------


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    for i, v in enumerate(vs):
        for u in vs[i + 1 :]:
            if not g.has_edge(v, u):
                return False
    return True


def _common_neighbors(g: Graph, vertices: Iterable[int]) -> int:
    acc = (1 << g.n) - 1
    for v in vertices:
        acc &= g.adj[v]
    return acc


def extension_count(g: Graph, clique: Iterable[int]) -> int:
    """Number of vertices adjacent to every member of the clique."""
    vs = list(clique)
    if not is_clique(g, vs):
        raise ValueError("input vertex set is not a clique")
    return _common_neighbors(g, vs).bit_count()


def is_inextensible(g: Graph, vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    return is_clique(g, vs) and _common_neighbors(g, vs).bit_count() == 0


def neighborhood_intersection_count(g: Graph, vertices: Iterable[int]) -> int:
    """Points non-adjacent to all the given vertices (vertices included)."""
    full = (1 << g.n) - 1
    acc = full
    for v in vertices:
        acc &= full ^ g.adj[v]
    return acc.bit_count()


def extension_profile(
    g: Graph,
    k: int,
    containing: Iterable[int] = (),
    node_budget: int | None = None,
    workers: int = 1,
) -> dict[int, int]:
    """Histogram {extension count: number of k-cliques with that count}.

    With `containing`, only k-cliques through that clique are profiled.
    The histogram keys are sorted, so the output is canonical.
    """
    if g.is_T:
        raise ValueError("extension profile of T is undefined")
    base = list(containing)
    if not is_clique(g, base):
        raise ValueError("containing set is not a clique")
    if k < len(base):
        raise ValueError("k smaller than the fixed clique")
    budget = CENSUS_NODE_BUDGET if node_budget is None else node_budget
    common = _common_neighbors(g, base)
    target = k - len(base)
    if target == 0:
        return {common.bit_count(): 1}
    _, hist, _ = _search(g.adj, target, common, common, budget, workers, "profile")
    return {c: h for c, h in enumerate(hist) if h}


def _branch_and_bound(
    adj: Sequence[int], floor: int, budget: int, what: str, first: bool = False
) -> list[int]:
    """Largest clique with more than floor vertices, or [] if there is none.

    Colour-bounded branch and bound (Tomita and Seki's MCQ): the
    candidates are greedily coloured, and a branch whose size plus colour
    count cannot beat the best so far is cut.  One budget node is charged
    per call.  With first, the first clique found that beats floor is
    returned: best is raised past n, which prunes every open branch.
    """
    n = len(adj)
    path = [0] * n  # path[:size] is the clique being grown
    best = floor
    witness: list[int] = []
    nodes = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best, witness, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"{what} exceeded {budget} nodes")
        if not cand:
            if size > best:
                witness = path[:size]
                best = n + 1 if first else size
            return
        order: list[tuple[int, int]] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                lsb = avail & -avail
                v = lsb.bit_length() - 1
                order.append((v, color))
                uncolored ^= lsb
                avail = (avail ^ lsb) & ~adj[v]
        for v, c in reversed(order):
            if size + c <= best:
                return
            path[size] = v
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return witness


def find_clique(g: Graph, k: int) -> list[int] | None:
    """Some k-clique, or None if there is none.

    Which k-clique is returned is unspecified.  The search is charged
    against the default node budget, CENSUS_NODE_BUDGET.
    """
    if g.is_T:
        raise ValueError("find_clique on T is undefined")
    if k < 0:
        raise ValueError("k must be >= 0")
    witness = _branch_and_bound(g.adj, k - 1, CENSUS_NODE_BUDGET, "clique search", first=True)
    return witness[:k] if len(witness) >= k else None


def max_clique_order(g: Graph, node_budget: int | None = None) -> int:
    """Exact maximum clique size, by branch and bound with greedy coloring."""
    if g.is_T:
        raise ValueError("T has a clique of every order")
    budget = CENSUS_NODE_BUDGET if node_budget is None else node_budget
    return len(_branch_and_bound(g.adj, 0, budget, "max-clique search"))


def verify_isomorphism(a: Graph, b: Graph, mapping: Sequence[int]) -> bool:
    """True iff the vertex bijection preserves adjacency both ways."""
    if a.n != b.n or a.is_T != b.is_T:
        return False
    if sorted(mapping) != list(range(a.n)):
        raise ValueError("mapping is not a bijection on the vertex sets")
    if a.is_T:
        return True
    for v in range(a.n):
        bits = a.adj[v] >> (v + 1) << (v + 1)
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if not b.has_edge(mapping[v], mapping[u]):
                return False
    return a.edge_count() == b.edge_count()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        label = g.labels[v] if g.labels is not None else str(v)
        lines.append(f'  {v} [label="{label}"];')
    if g.is_T:
        lines.append("  0 -- 0;")
    else:
        for u, v in g.edges():
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

