"""Finite simple graphs as bitset adjacency rows, plus the loop graph T.

Vertices are 0..n-1; row v is a Python int whose bit u is set when u ~ v.
Graphs are safe to share across workers, and immutable after construction
but for the symmetry record below, which is set once: a second build of it
is the same value.  T, the single vertex with a loop, is the identity of
the tensor product and is rejected by every other combinator.  It is the
one graph whose row holds its loop: the constructor reads T off the row
(1,), so Graph(1, [1]) is T, and every other loop raises.

The tensor product and the blow-up are row arithmetic on one spread
rule: spread(row, w) moves bit u of row to bit u * w.  A number below
2^w times a spread row is one copy of it per set bit, in w-bit blocks
that never overlap, so nothing carries.  Row (va, vb) of a x b is
spread(a.adj[va], b.n) * b.adj[vb], and every copy of v in the t-fold
blow-up has the row (2^t - 1) * spread(g.adj[v], t).

Every constructor checks the rows in full: no bits outside the vertex
range, no loops, and symmetry.  Symmetry is checked on transposed bit
strings rather than edge by edge, by the one transpose check that also
checks automorphisms and isomorphisms.  For a block of 512 columns, one
string joins those bits of every row, and each column of the block is a
strided slice of it that must equal the row string of the same vertex.
A pass holds about 2 * n * 512 characters, so peak memory is
O(n * block), never the n^2 characters of the whole matrix (400 MB at
the 20,000-vertex bound).  A mismatch raises on the first edge v->u, least
v then least u, whose reverse is missing.

The census and the extension profile run one ordered backtracking walk:
cliques are enumerated exactly once, in increasing vertex order, each
charged one budget "node" and counted with its anchor's weight.  The
last level is settled in one step per parent, or per anchor when it is
the first: its candidates are charged and counted by a popcount, and
binned by extension count only when there are common neighbours to bin
by.  Exceeding the budget raises; there are no silent partial answers.
The error names the largest clique counted, the members each anchor
fixes included, the anchors finished of all and, when the anchor that
ran out lists its roots, the roots finished of them.

Set bits are read in one of two ways.  The lowest-bit loop costs three
big-int operations per set bit (isolate, clear, bit_length); the string
read (format(bits, "b") reversed and translated to bytes 0 and 1, the
_selectors of itertools.compress) runs in C at a cost that follows the
bit length.  _bits, which lists the anchors' roots and the orbit tables'
neighbours, reads by string when at least one bit in _DENSE = 8 is set,
and so does the leaf's binning loop when it has more than 16 candidates,
picking their rows out of adj, so a sparse set never pays for its length.

A search with workers walks its roots serially, in order, until it has
charged more than _POOL_PROBE nodes, about what starting a pool costs a
fresh process; a search that ends first never loads the pool.  The
anchors not finished go to one pool of w processes, w the workers capped
at the CPUs and at the widest anchor's roots: share i walks the cliques
whose minimum vertex is root i, i + w, ... of the roots not yet walked,
so counts, nodes and budget outcomes do not depend on w or on where the
prefix stopped.  Each share may charge what the prefix left of the
budget and returns, run out or not; only the parent raises, and a pooled
run that runs out names how far its prefix got.

Clique existence (find_clique) and the maximum clique (max_clique_order)
share a second core, a colour-bounded branch and bound: they need one
witness, so they cut every branch whose colour bound cannot beat it.  A
greedy dive from each anchor comes first, one node per vertex; the first
clique of ceiling vertices ends the search, k for a k-clique, else n + 1.
On one orbit, dives that leave it open lower the ceiling to n // |I|, I
the greedy independent set, lowest vertex first, as alpha * omega <= n on
a vertex-transitive graph (Godsil and Royle 2001): the automorphisms map
a clique K onto each vertex equally often, so an average image of K meets
I in |K| |I| / n vertices, and none in two.  A ceiling that settles
it is charged the one node of the root expansion it replaces.  Without
generators, only the least vertex of each twin class (equal rows) is
walked: twins are never adjacent, so a clique holds at most one.

A graph may carry generators, vertex permutations its constructor claims
are automorphisms.  The first _symmetry(g) checks them in one transpose
check and keeps their record: each vertex's orbit, and per orbit its least
vertex r, its size and the suborbits of r, the orbits on adj[r] of the
generators that fix r, each with its mask and that of the later ones in
the leaf step's order below.  Graph() calls it at once; ring constructors
attach theirs by _with_generators, so no build pays for it and their
first search checks them.  Only _anchors and _clique_search read it.

Anchors.  Every search walks from anchors (members, cand, weight): an
anchor fixes the clique members, walks cand, their common neighbours
(or, in the one leaf step below, a part of it), and stands for the
weight cliques that the automorphisms map it to.
Floor 0 fixes the clique through which a profile runs (a census: the
empty clique), weight 1, and is the oracle the others are tested
against.  Floor 1 fixes r, the least vertex of each orbit, weighted by
the orbit size.  Floor 2 fixes r and s, the least vertex of each suborbit
of r, weighted by the orbit size times the suborbit size; through one
vertex c it takes only the orbit of c, which an automorphism maps to r,
weighted by the suborbit size alone.  An anchor that fixes j members
beyond the b the search runs through is charged one node, and meets each
k-clique once per ordered choice of j of its other k - b members, so the
walk's sums are divided by perm(k - b, j).

When the walk under a pair anchor (r, s) is one leaf step (a census to
kmax = 3, a profile at k = 3), it would meet each pair of adjacent
neighbours of r twice, once from either end.  With the suborbits of r
ordered by size, largest first, ties by table position, the anchor of
suborbit S walks instead the common neighbours in S at its weight, and
those in a later suborbit at twice it; it bins against all of them
either way.  That counts the same, because |S_i| |C_i & S_j| = |S_j|
|C_j & S_i| for C_i the common neighbours of r and s_i (Sims 1967), and
the stabiliser of r maps what s_i meets in S_j onto what every vertex of
S_i meets there.  Each pair is met once, from the larger suborbit, or
twice inside one: GL_2(5) walks 1,284 leaves, not 3,306.  The anchor's
own clique is still counted and charged once, and a single suborbit, as
on every P(M_m(q)) and P(Z/n), walks all of its common neighbours.

A census to kmax >= 3 and a profile at k >= 2 through at most one vertex
take floor 2 when each orbit they start from has a suborbit table; else a
census to kmax >= 1, a profile at k >= 1 through no vertex, find_clique
and max_clique_order take floor 1; anything else, and every graph without
generators (from_edges, a tensor product, a blow-up), floor 0.  Orbit
searches split their roots anchor by anchor.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, compress, count, zip_longest
from math import perm
from typing import Iterable, Iterator, Sequence

from .config import CENSUS_NODE_BUDGET, VERTEX_BOUND, _default_workers
from .errors import BoundExceeded, BudgetExceeded, Record


# Columns per pass of the transpose check; it bounds the pass's memory.
_SYMMETRY_BLOCK = 512

# Nodes a search with workers walks serially before it opens a pool: at 2-3
# million nodes per second, about what importing, starting and stopping the
# pool costs a fresh process (40-50 ms).
_POOL_PROBE = 1 << 17

# A bitset with at least one set bit in _DENSE of its length has its set bits
# read off its binary string, in C; a sparser one by the lowest-bit loop.
_DENSE = 8
_ONES = bytes.maketrans(b"01", b"\0\1")


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _selectors(bits: int) -> bytes:
    """Byte i is 1 if bit i of bits is set, else 0: the selectors with which
    itertools.compress picks what the set bits index, in C."""
    return format(bits, "b")[::-1].encode().translate(_ONES)


def _bits(bits: int) -> list[int]:
    """The set bits of bits, ascending."""
    if bits.bit_count() * _DENSE >= bits.bit_length():
        return list(compress(count(), _selectors(bits)))
    out = []
    while bits:
        out.append(_lowest(bits))
        bits &= bits - 1
    return out


def _spread(rows: Iterable[int], width: int) -> list[int]:
    """Each row with its bit u moved to bit u * width, zeros in between."""
    gap = "0" * (width - 1)
    return [int(gap.join(format(row, "b")), 2) for row in rows]


def _check_transpose(rows: Sequence[int], cols: Sequence[int], perms: list) -> list[tuple[int, int] | None]:
    """For each permutation s in perms, t its inverse, None or the first
    (v, u), least v then least u, with u in rows[s[v]] but v not in
    cols[t[u]].  When rows and cols hold equally many set bits, such a pair
    exists iff u in rows[s[v]] and v in cols[t[u]] differ for some (v, u).

    Row v is written as its n-bit binary string, most significant bit
    first, so vertex u sits at position n - 1 - u.  For the columns
    [c0, c0 + w) the bits c0..c0+w-1 of every entry of cols are formatted
    once, and each order joins these parts, last first, into one string of
    n * w characters; the set of u with v in cols[t[u]] is then its
    stride-w slice from c0 + w - 1 - v, written the same way as rows[s[v]].
    When rows is cols and one block spans all columns, the parts are the
    row strings, so nothing is formatted twice.
    """
    n = len(rows)
    full = f"0{n}b"
    orders = [(s, sorted(range(n), key=s.__getitem__)) for s in perms]
    missing: list = [None] * len(orders)
    for c0 in range(0, n, _SYMMETRY_BLOCK):
        w = min(_SYMMETRY_BLOCK, n - c0)
        mask, part = (1 << w) - 1, f"0{w}b"
        parts = [format(col >> c0 & mask, part) for col in cols]
        shared = rows is cols and w == n
        for i, (s, t) in enumerate(orders):
            if missing[i]:
                continue
            flat = "".join([parts[u] for u in reversed(t)])
            for v in range(c0, c0 + w):
                column = flat[c0 + w - 1 - v :: w]
                if (parts[s[v]] if shared else format(rows[s[v]], full)) != column:
                    lost = rows[s[v]] & ~int(column, 2)
                    if lost:
                        missing[i] = v, _lowest(lost)
                        break
    return missing


class Graph:
    """n vertices, bitset rows adj, optional labels.

    generators is a tuple of vertex permutations (sigma[v] is the image of
    v) that the constructor claims are automorphisms; _symmetry checks them
    here, and one that is not raises ValueError.  Equality and hashing
    ignore the generators and their record.
    """

    __slots__ = ("n", "adj", "is_T", "labels", "generators", "_orbits")

    def __init__(
        self,
        n: int,
        adj: Sequence[int],
        labels: Sequence[str] | None = None,
        generators: Iterable[Sequence[int]] = (),
    ):
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency row count mismatch")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count mismatch")
        is_T = adj == (1,)
        if not is_T:
            mask = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~mask:
                    raise ValueError(f"row {v} has bits outside the vertex range")
                if row >> v & 1:
                    raise ValueError(f"loop at vertex {v}")
            (bad,) = _check_transpose(adj, adj, [range(n)])
            if bad is not None:
                raise ValueError("asymmetric edge {}->{}".format(*bad))
        self.n = n
        self.adj = adj
        self.is_T = is_T
        self.labels = labels
        if _with_generators(self, generators).generators:
            _symmetry(self)

    @classmethod
    def T(cls) -> "Graph":
        return cls(1, (1,), labels=("T",))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The unlabeled graph on n vertices with the given undirected edges."""
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex {v if 0 <= u < n else u} out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

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
            for u in _bits(self.adj[v] >> (v + 1) << (v + 1)):
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
        return (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

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
    rows = [spread * row for spread in _spread(a.adj, b.n) for row in b.adj]
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
    block = (1 << t) - 1
    rows = [row for spread in _spread(g.adj, t) for row in [block * spread] * t]
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
    rows: list[int] = []
    for g in graphs:
        offset = len(rows)
        rows += [row << offset for row in g.adj]
    labels = None
    if all(g.labels is not None for g in graphs):
        labels = [f"{i}/{lab}" for i, g in enumerate(graphs) for lab in g.labels]  # type: ignore[union-attr]
    return Graph(len(rows), rows, labels)


# ---------------------------------------------------------------------------
# clique census
# ---------------------------------------------------------------------------


class CliqueCensus(Record):
    """Exact per-size clique counts; counts[0] = 1 is the empty clique.

    counts stops at min(kmax, n), as no clique has more than n vertices;
    as_list gives all kmax + 1 counts, fill past the last stored: 0, or 1
    for T, which has one clique of every size.
    """

    __slots__ = ("counts", "kmax", "nodes", "fill")

    def as_list(self) -> list[int]:
        return [self.counts.get(k, self.fill) for k in range(self.kmax + 1)]


def _exceeded(what: str, budget: int, found: int, progress: str) -> BudgetExceeded:
    """The budget error of every search: the largest clique found, then how far it got."""
    return BudgetExceeded(f"{what} exceeded {budget} nodes; largest clique found: {found}, {progress}")


def _walk(
    adj: Sequence[int],
    depth: int,
    anchors: Sequence[tuple[int, int, Sequence[int], int, int]],
    budget: int,
    stop: int,
    spent: int = 0,
):
    """Ordered walk, for each anchor (cand, common, roots, weight, twice),
    over the cliques of 1..depth vertices of cand whose minimum vertex lies
    in roots.  At depth 1 the roots are ignored: every vertex of cand is a
    1-clique, and so is every vertex of twice, at double weight; each set
    is settled in one leaf step.  twice is 0 at any other depth.

    Returns (counts, hist, nodes, rest): counts[d] for d < depth is the
    weighted number of d-cliques, hist[c] that of depth-cliques with c
    vertices of common adjacent to all of them, and nodes = spent plus one
    per clique visited, unweighted.  The walk ends before the first root it
    meets with nodes > stop, or at the node that takes nodes past budget
    (spent alone included), and rest lists the anchors not finished: the one
    it was in, with the roots not walked to the end, then the later ones;
    else rest is empty.
    """
    counts = [0] * depth
    hist = [0] * (max((common.bit_count() for _, common, _, _, _ in anchors), default=0) + 1)
    nodes = spent

    def rec(cand: int, common: int, size: int) -> None:
        nonlocal nodes
        if size + 1 == depth:
            # leaf step: every candidate closes one depth-clique
            width = cand.bit_count()
            nodes += width
            if nodes > budget:
                raise BudgetExceeded
            if not common:
                hist[0] += weight * width
                return
            if width > 16 and width * _DENSE >= cand.bit_length():
                for row in compress(adj, _selectors(cand)):
                    hist[(common & row).bit_count()] += weight
                return
            while cand:
                lsb = cand & -cand
                cand ^= lsb
                hist[(common & adj[lsb.bit_length() - 1]).bit_count()] += weight
            return
        while cand:
            lsb = cand & -cand
            v = lsb.bit_length() - 1
            cand ^= lsb
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded
            counts[size + 1] += weight
            sub = cand & adj[v]
            if sub:
                rec(sub, common & adj[v], size + 1)

    i = j = 0
    try:
        if nodes > budget:  # the anchors alone are over it
            raise BudgetExceeded
        for i, (cand, common, roots, weight, twice) in enumerate(anchors):
            if depth == 1:
                rec(cand, common, 0)
                if twice:
                    weight *= 2  # each pair met once here stands for both orders
                    rec(twice, common, 0)
            for j, r in enumerate(roots):
                if nodes > stop:
                    raise BudgetExceeded
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded
                counts[1] += weight
                sub = cand & adj[r] & (-1 << (r + 1))
                if sub:
                    rec(sub, common & adj[r], 1)
    except BudgetExceeded:  # the walk's one stop, at the probe or the budget
        cand, common, roots, weight, twice = anchors[i]
        return counts, hist, nodes, [(cand, common, roots[j:], weight, twice), *anchors[i + 1 :]]
    return counts, hist, nodes, []


def _search(
    adj: Sequence[int],
    top: int,
    anchors: Sequence[tuple[Sequence[int], int, int, int, int]],
    budget: int,
    workers: int,
    base: int = 0,
    binned: bool = False,
):
    """(counts, hist, nodes, fixed) of the cliques of at most top vertices
    through the anchors (members, cand, weight, once, twice) of a search
    through base vertices.  Each anchor fixes `fixed` members, counts its
    own clique at weight and walks every root of once, and of twice at
    double weight.  One that fixes members beyond base is charged one node,
    and meets each k-clique once per ordered choice of them, so every sum is
    divided by perm(k - base, fixed - base).  counts[d] is the number of
    cliques of fixed + d vertices, and hist maps each c that occurs,
    ascending, to the number of top-cliques with c common neighbours in cand
    when binned, else all of them to 0.

    With workers, the anchors left after the serial prefix run in one pool
    of w processes, one share each: share i takes the roots [i::w] of each,
    w being workers capped at the most roots of any anchor and at the CPUs,
    each share may charge the nodes the prefix left of the budget, and the
    histograms are summed by position.  Past the budget this raises the one
    error, which names the search a profile when binned, else a census, and
    how far the serial walk got: where it stopped, or where it handed over
    to the pool.
    """
    fixed = len(anchors[0][0])
    depth = top - fixed
    spent = len(anchors) if fixed > base else 0
    tasks = [
        (once, cand if binned else 0, _bits(once) if depth > 1 else [], w, twice) for _, cand, w, once, twice in anchors
    ]
    workers = min(workers, max((len(roots) for _, _, roots, _, _ in tasks), default=0))
    if workers > 1:
        workers = min(workers, _default_workers())
    # serial, never stop short of the budget
    stop = spent + _POOL_PROBE if workers > 1 else budget
    counts, hist, nodes, rest = _walk(adj, depth, tasks, budget, stop, spent)
    if rest and nodes <= budget:
        shares = [
            [(cand, common, roots[i::workers], w, twice) for cand, common, roots, w, twice in rest]
            for i in range(workers)
        ]
        # imported here so that a search under the probe never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        left = budget - nodes
        task = partial(_walk, adj, depth, budget=left, stop=left)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = [(counts, hist, nodes), *(part[:3] for part in pool.map(task, shares))]
        sums, hists, used = zip(*parts)
        nodes = sum(used)
        counts, hist = [sum(c) for c in zip(*sums)], [sum(h) for h in zip_longest(*hists, fillvalue=0)]
    if nodes > budget:
        # the largest clique counted, the fixed members included, then how
        # far the serial walk got, read off its rest
        reached = len(counts) if any(hist) else max((d for d, c in enumerate(counts) if c), default=0)
        done = len(tasks) - len(rest)
        progress = f"anchors finished: {done} of {len(tasks)}"
        if rest[0][2]:
            progress += f", roots finished: {len(tasks[done][2]) - len(rest[0][2])} of {len(tasks[done][2])}"
        raise _exceeded("profile" if binned else "census", budget, fixed + reached, progress)
    counts.append(sum(hist))  # every depth-clique is binned once
    for _, common, _, w, _ in tasks:
        counts[0] += w
        if depth == 0:
            hist[common.bit_count()] += w
    counts = [_through(t, perm(k - base, fixed - base)) for k, t in enumerate(counts, fixed)]
    per = perm(top - base, fixed - base)
    return counts, {c: _through(h, per) for c, h in enumerate(hist) if h}, nodes, fixed


def _orbit_table(vertices: Iterable[int], generators: Sequence[Sequence[int]]):
    """(index, table): table lists (least vertex, size) of every orbit of the
    group generated by generators on vertices, which are ascending and closed
    under them, and index[v] is the position in table of the orbit of v."""
    index: dict[int, int] = {}
    table = []
    for v in vertices:
        if v in index:
            continue
        index[v] = len(table)
        stack, size = [v], 0
        while stack:
            u = stack.pop()
            size += 1
            for sigma in generators:
                w = sigma[u]
                if w not in index:
                    index[w] = len(table)
                    stack.append(w)
        table.append((v, size))
    return index, table


def _with_generators(g: Graph, generators: Iterable[Sequence[int]]) -> Graph:
    """g carrying generators, unchecked until _symmetry(g) first runs."""
    g.generators, g._orbits = tuple(tuple(sigma) for sigma in generators), None
    return g


def _symmetry(g: Graph):
    """The symmetry record (orbit_of, orbits) of g, built and kept on the
    first call once each generator is a bijection and an automorphism, else
    ValueError names the first that is not.  orbits lists (r, size,
    suborbits) per orbit, r its least vertex, in vertex order; orbit_of[v]
    is the position of the orbit of v.  suborbits lists the orbits on adj[r]
    of the generators that fix r as (least vertex, size, own, later), own its
    bitmask and later that of those after it by size, largest first, ties by
    table position; None if they merge no two neighbours."""
    if g._orbits is not None:
        return g._orbits
    adj, generators = g.adj, g.generators
    failed = [sorted(sigma) != list(range(g.n)) for sigma in generators]
    # on symmetric rows, sigma is an automorphism iff the rows adj[sigma[v]] are the
    # transpose of adj[sigma^-1[u]]; both hold adj's set bits, so a mismatch shows as a pair
    for i, fail in enumerate(failed if any(failed) else _check_transpose(adj, adj, list(generators))):
        if fail:
            raise ValueError(f"generator {i} is not an automorphism")
    orbit_of, reps = _orbit_table(range(g.n), generators)
    orbits = []
    for r, size in reps:
        neighbours = _bits(adj[r])
        place, table = _orbit_table(neighbours, [sigma for sigma in generators if sigma[r] == r])
        if len(table) == len(neighbours):
            orbits.append((r, size, None))
            continue
        order = sorted(range(len(table)), key=lambda i: -table[i][1])  # largest first, ties by position
        own = [0] * len(table)
        for v, i in place.items():
            if i != order[0]:
                own[i] |= 1 << v
        own[order[0]] = adj[r] ^ sum(own)  # the largest, without a bit set one at a time
        entries, later = [None] * len(table), 0
        for i in reversed(order):
            entries[i] = (*table[i], own[i], later)
            later |= own[i]
        orbits.append((r, size, entries))
    g._orbits = orbit_of, orbits
    return g._orbits


def _anchors(g: Graph, base: list[int], top: int) -> list[tuple[list[int], int, int, int, int]]:
    """[(members, cand, weight, once, twice)]: the anchors, by the rule of
    the module docstring, of the cliques of top vertices through the clique
    base.  An anchor fixes the clique members, base or the image of base
    that it stands for included; cand, the common neighbours of members, is
    what its cliques are binned against.  It walks once at its weight and
    twice at double it: cand and nothing, but for a pair anchor (r, s) at
    top = 3 the part of cand in the suborbit of s and the part in the
    suborbits after it, largest first."""
    if g.generators and len(base) < min(top, 2):
        orbit_of, orbits = _symmetry(g)
        reps = [orbits[orbit_of[base[0]]]] if base else orbits
        if top > 1 and reps and all(table for _, _, table in reps):
            anchors = []
            for r, w, table in reps:
                for s, size, own, later in table:
                    cand = g.adj[r] & g.adj[s]
                    # a leaf step meets each neighbour pair of r once, from the larger suborbit
                    once, twice = (cand & own, cand & later) if top == 3 else (cand, 0)
                    anchors.append(([r, s], cand, size if base else w * size, once, twice))
            return anchors
        if reps and not base:
            return [([r], g.adj[r], w, g.adj[r], 0) for r, w, _ in reps]
    cand = _common_neighbors(g, base)
    return [(base, cand, 1, cand, 0)]


def _check_limits(node_budget: int, workers: int = 1) -> None:
    """Refuse a negative budget or fewer than one worker; a budget of 0 is
    valid and buys the searches that charge nothing."""
    if node_budget < 0:
        raise ValueError("node_budget must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _through(total: int, per: int) -> int:
    """total / per, where total counts every clique per times: once per
    ordered choice of the members an anchor fixes, outside `containing`."""
    cliques, rest = divmod(total, per)
    if rest:
        raise AssertionError(f"orbit sum {total} is not a multiple of {per}")
    return cliques


def count_cliques(
    g: Graph,
    kmax: int,
    node_budget: int = CENSUS_NODE_BUDGET,
    workers: int = 1,
) -> CliqueCensus:
    """Exact number of k-cliques for 0 <= k <= kmax.

    For T there is one clique of every size.  The count is independent
    of the worker split: each worker owns the cliques whose minimum
    vertex falls in its share of the roots, and the totals are summed.
    With generators, the walk starts from the floor-1 or floor-2 anchors
    of the module docstring: N_k sums the counts of every anchor,
    weighted, over k or over k(k - 1).
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    _check_limits(node_budget, workers)
    if g.is_T:
        return CliqueCensus(dict.fromkeys(range(min(kmax, 1) + 1), 1), kmax, 0, 1)
    depth = min(kmax, g.n)  # no clique has more than n vertices
    anchors = _anchors(g, [], depth if depth > 2 else min(depth, 1))
    counts, _, nodes, fixed = _search(g.adj, depth, anchors, node_budget, workers)
    return CliqueCensus(dict(enumerate([1, g.n][:fixed] + counts)), kmax, nodes, 0)


# ---------------------------------------------------------------------------
# cliques, extensions, profiles
# ---------------------------------------------------------------------------


def _in_range(g: Graph, vertices: Iterable[int]) -> list[int]:
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return vs


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = _in_range(g, vertices)
    return len(set(vs)) == len(vs) and all(g.has_edge(v, u) for v, u in combinations(vs, 2))


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
    for v in _in_range(g, vertices):
        acc &= full ^ g.adj[v]
    return acc.bit_count()


def extension_profile(
    g: Graph,
    k: int,
    containing: Iterable[int] = (),
    node_budget: int = CENSUS_NODE_BUDGET,
    workers: int = 1,
) -> dict[int, int]:
    """Histogram {extension count: number of k-cliques with that count}.

    With `containing`, only k-cliques through that clique are profiled.
    The histogram keys are sorted, so the output is canonical.  With
    generators and at most one vertex in `containing`, the walk starts
    from the orbit anchors of the module docstring.
    """
    if g.is_T:
        raise ValueError("extension profile of T is undefined")
    _check_limits(node_budget, workers)
    base = list(containing)
    if not is_clique(g, base):
        raise ValueError("containing set is not a clique")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k < len(base):
        raise ValueError("k smaller than the fixed clique")
    anchors = _anchors(g, base, k)
    # a walk deeper than n visits the same cliques and reaches no leaf
    return _search(g.adj, min(k, g.n + 1), anchors, node_budget, workers, len(base), True)[1]


def _coclique(adj: Sequence[int], best: int) -> list[int]:
    """The greedy independent set: the lowest vertex left joins it and leaves
    with its row, until none is left or n // its size <= best."""
    left, out = (1 << len(adj)) - 1, []
    need = len(adj) // (best + 1)  # n // size <= best iff size > need
    while left and len(out) <= need:
        lsb = left & -left
        out.append(lsb.bit_length() - 1)
        left ^= lsb | (left & adj[out[-1]])
    return out


def _branch_and_bound(
    adj: Sequence[int], floor: int, ceiling: int, budget: int, what: str, anchors: Sequence, transitive: bool = False
) -> list[int]:
    """Largest clique with more than floor vertices, or [] if there is none,
    by the rule of the module docstring: the first clique of ceiling
    vertices or more ends it, and transitive adds the clique-coclique bound.

    Colour-bounded (Tomita and Seki's MCQ): the candidates are greedily
    coloured, and a branch whose size plus colour count cannot beat the
    best so far is cut, at one budget node per call.  Each anchor (members,
    cand, ...) is searched in turn as the path members with candidates
    cand.  A budget error names the largest clique found and the anchors,
    as representatives, searched.
    """
    n = len(adj)
    path = [0] * n  # path[:size] is the clique being grown
    witness: list[int] = []
    nodes = done = 0

    def exceeded() -> BudgetExceeded:
        return _exceeded(what, budget, len(witness), f"representatives searched: {done} of {len(anchors)}")

    def expand(size: int, cand: int) -> None:
        nonlocal best, witness, nodes
        nodes += 1
        if nodes > budget:
            raise exceeded()
        if not cand:
            if size > best:
                witness = path[:size]
                best = size if size < ceiling else n + 1  # n + 1 cuts every branch
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

    for members, cand, *_ in anchors:
        clique = list(members)
        while cand:
            clique.append(_lowest(cand))
            cand &= adj[clique[-1]]
        witness = max(witness, clique, key=len)
        nodes += len(clique)
        if nodes > budget:
            raise exceeded()
    best = max(floor, len(witness))
    if transitive and best < ceiling:
        ceiling = min(ceiling, n // len(_coclique(adj, best)))
        if best >= ceiling:  # charged as the root expansion it replaces
            nodes += 1
            if nodes > budget:
                raise exceeded()
    for members, cand, *_ in anchors:
        if best >= ceiling:
            break
        path[: len(members)] = members
        expand(len(members), cand)
        done += 1
    return witness if len(witness) > floor else []


def _clique_search(g: Graph, floor: int, ceiling: int, budget: int, what: str) -> list[int]:
    """_branch_and_bound from the anchors of the clique searches (module docstring)."""
    if g.generators:
        return _branch_and_bound(g.adj, floor, ceiling, budget, what, _anchors(g, [], 1), len(_symmetry(g)[1]) == 1)
    least = len(set(g.adj)) < g.n and dict(zip(reversed(g.adj), range(g.n - 1, -1, -1)))  # each row's least vertex
    cand = sum(1 << v for v in least.values()) if least else (1 << g.n) - 1
    return _branch_and_bound(g.adj, floor, ceiling, budget, what, [([], cand)])


def find_clique(g: Graph, k: int) -> list[int] | None:
    """Some k-clique, or None if there is none; which one is unspecified.
    The search is charged against the default budget, CENSUS_NODE_BUDGET."""
    if g.is_T:
        raise ValueError("find_clique on T is undefined")
    if k < 0:
        raise ValueError("k must be >= 0")
    witness = _clique_search(g, k - 1, k, CENSUS_NODE_BUDGET, "clique search")
    return witness[:k] if len(witness) >= k else None


def max_clique_order(g: Graph, node_budget: int = CENSUS_NODE_BUDGET) -> int:
    """Exact maximum clique size, by branch and bound with greedy colouring."""
    if g.is_T:
        raise ValueError("T has a clique of every order")
    _check_limits(node_budget)
    return len(_clique_search(g, 0, g.n + 1, node_budget, "max-clique search"))


def verify_isomorphism(a: Graph, b: Graph, mapping: Sequence[int]) -> bool:
    """True iff the vertex bijection preserves adjacency both ways.

    As a is symmetric, that holds iff the rows b.adj[mapping[u]] are the
    transpose of the rows a.adj[mapping^-1[w]]: both say that u ~ w in a
    iff mapping[u] ~ mapping[w] in b.  Graphs with equally many set bits
    are what _check_transpose can tell apart; others are not isomorphic.
    """
    if a.n != b.n:
        return False
    if sorted(mapping) != list(range(a.n)):
        raise ValueError("mapping is not a bijection on the vertex sets")
    return sum(a.degrees()) == sum(b.degrees()) and _check_transpose(b.adj, a.adj, [mapping])[0] is None


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
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

