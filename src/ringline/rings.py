"""Distant graphs of projective lines, built from structural ring data.

A finite ring is described by its local / matrix-ring summands plus an
optional global radical blow-up factor.  Constructors here produce the
corresponding distant graphs with stable canonical vertex labels:

* ``P(Z/n)``      - unimodular pairs "a:b", the least member of the
                    unit-scaling orbit; the independent oracle for every
                    commutative claim.
* ``P(M_m(q))``   - m-dimensional subspaces of F_q^{2m} as reduced
                    row-echelon basis matrices, labeled by their
                    row-major digit string.
* unit-difference - invertible matrices, adjacent when their difference
                    is invertible (the clique substructure inside the
                    matrix-ring line).

Both matrix graphs use one adjacency kernel, the Plücker pairing: points
U, W of P(M_m(q)) are distant iff det[U; W] != 0, and Laplace expansion
along the first m rows writes that determinant as
sum_I +-p_I(U) p_{I^c}(W) over the m-subsets I of the 2m columns, p_I
being the m x m minor on the columns I.  Each point's minors are taken
once, those of its first t rows from those of its first t - 1 rows by
Laplace expansion along row t, one minor for all points at a time.  The
pairing is linear in the second point, so no pair is decided on its
own: `_pairing_rows` finds each row, the complement of the zero set of a
linear functional, as q ANDs of whole-row bitsets: the level sets of its
two halves, each distinct half run once through a value DP and kept in
a memo local to the call (a half is h = C(2m, m) / 2 minors, so there
are at most min(n, q^h) of each kind, of q bitsets of up to n bits).

The unit-difference graph is the induced subgraph on the points (A | I),
since det[A, I; B, I] = det(A - B).  `points_distant` and `mat_det` stay
as the reference the tests compare the kernel against.

The three constructors above also attach generators of a
vertex-transitive automorphism group, built from their own index tables
or minors and checked at the first search; some fix vertex 0, so that the
profile through a vertex is searched per suborbit of it (`ringline.graphs`):

* P(Z/n): (a:b) -> (-b:a), and (a:b) -> (a:a+b), which fixes 0:1 and
  moves its n neighbours as one orbit.
* P(M_m(q)): U -> U g for the block swap g = [[0, I], [I, 0]], which maps
  (0 | I) to its neighbour (I | 0), and for diag(S, I) and
  [[I, E_00], [0, S]], S a Singer cycle of GL_m(q), which fix (0 | I) and
  move its q^(m^2) neighbours as one orbit.
* GL_m(q): X -> X S T, S a Singer cycle and T a transvection, and for
  m >= 2 X -> S^-1 X J S J and X -> T^-1 X^-1 J T J, which fix the
  antidiagonal J; its suborbits are the classes of GL_m(q) with no
  eigenvalue 0 or 1, merged with their inverses' (12 on GL_2(5)).

`Graph` checks them once, when the graph is built.  Tensor products and
blow-ups carry none.

Before they count their vertices exactly, the two matrix constructors
refuse any m whose lower bound already passes the vertex bound:
P(M_m(q)) has more than 2^(m^2) points and |GL_m(q)| >= 2^(m(m-1)/2).
The exact [2m, m]_q and |GL_m(q)| are polynomials of degree m^2, far too
slow to build for m in the hundreds.
"""

from __future__ import annotations

import json
import warnings
from functools import reduce
from itertools import combinations, product
from math import comb, gcd, prod
from operator import and_, or_
from pathlib import Path

from .config import VERTEX_BOUND
from .errors import BoundExceeded, Record
from .fields import GF, factor_prime_power, factorize, find_primitive, gf_of
from .graphs import Graph, _with_generators, blowup, tensor_product
from .linalg import (
    MatrixGF,
    _echelon,
    _gl_rows,
    companion_matrix,
    gl_order,
    identity,
    mat_det,
    mat_hstack,
    mat_mul,
    mat_vstack,
    _rows_label,
    matrix_label,
)
from .polynomials import qbinom

# ---------------------------------------------------------------------------
# ring descriptions
# ---------------------------------------------------------------------------


class Local(Record):
    """A finite local ring given by |R| and |J|, the summand (m, q, |J|) =
    (1, |R|/|J|, |J|).  A summand's graph is that of its quotient by the
    radical, P(M_m(q)), blown up by |J|, so it depends on m, q and |J| alone."""

    __slots__ = ("R_order", "J_order")
    m = 1

    def __post_init__(self) -> None:
        R, J = self.R_order, self.J_order
        if R < 2 or J < 1 or R % J:
            raise ValueError(f"invalid local ring cardinalities ({R}, {J})")
        _, a = factor_prime_power(R)
        if J == 1:
            return
        # J divides R = p^a, so J = p^b
        r = a - factor_prime_power(J)[1]
        if r < 1 or a % r:
            raise ValueError(f"no local ring has |R|={R}, |J|={J}")

    @property
    def q(self) -> int:
        """Residue field order |R|/|J| (always a prime power)."""
        return self.R_order // self.J_order


class MatrixRing(Record):
    """The ring of m x m matrices over GF(q), the summand (m, q, 1) of the rule
    in `Local`.  m = 1 is the field F_q, and m = 0 the trivial ring, whose graph is T."""

    __slots__ = ("m", "q")
    J_order = 1

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("matrix size must be >= 0")
        factor_prime_power(self.q)  # rejects non-prime-powers


Summand = Local | MatrixRing


class RingSpec(Record):
    __slots__ = ("summands", "radical_multiplier")

    def __init__(self, summands, radical_multiplier: int = 1):
        super().__init__(tuple(summands), int(radical_multiplier))
        if self.radical_multiplier < 1:
            raise ValueError("radical multiplier must be >= 1")
        if self.radical_multiplier > 1 and any(s.J_order > 1 for s in self.summands):
            warnings.warn(
                "spec mixes a global radical multiplier with local radicals; "
                "only one is normally needed",
                stacklevel=2,
            )

    @property
    def radical_order(self) -> int:
        """|J| of the whole ring: the summands' radicals times the global multiplier."""
        return self.radical_multiplier * prod(s.J_order for s in self.summands)

    def is_commutative(self) -> bool:
        """True iff every quotient M_m(q) is a field or trivial (m <= 1)."""
        return all(s.m <= 1 for s in self.summands)


def parse_ring_spec(data: dict | str | Path) -> RingSpec:
    """Ring-spec JSON: {"summands":[{"local":{"R":4,"J":2}},
    {"matrix":{"m":2,"q":3}}],"radical":1}.  "radical" is optional; every
    other key shown is required, and no other key is allowed."""
    if isinstance(data, Path):
        data = data.read_text()
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError:  # the parser recurses once per level of nesting
            raise ValueError("a ring spec must not nest that deeply") from None
    if not isinstance(data, dict):
        raise ValueError("a ring spec must be a JSON object")
    if "summands" not in data or not set(data) <= {"summands", "radical"}:
        raise ValueError(f"a ring spec has the keys 'summands' and optionally 'radical', got {sorted(data)}")
    items = data["summands"]
    if not isinstance(items, list):
        raise ValueError(f"'summands' must be a list, got {items!r}")
    summands: list[Summand] = []
    for item in items:
        if isinstance(item, dict) and list(item) == ["local"]:
            summands.append(Local(*_spec_ints(item["local"], "local", "R", "J")))
        elif isinstance(item, dict) and list(item) == ["matrix"]:
            summands.append(MatrixRing(*_spec_ints(item["matrix"], "matrix", "m", "q")))
        else:
            raise ValueError(f"summand {item!r} must have one key, either 'local' or 'matrix'")
    radical = data.get("radical", 1)
    if type(radical) is not int:  # JSON true and false load as bool, an int subclass
        raise ValueError(f"'radical' must be an integer, got {radical!r}")
    return RingSpec(summands, radical)


def _spec_ints(body: object, kind: str, *keys: str) -> list[int]:
    for key in keys:
        if not isinstance(body, dict) or type(body.get(key)) is not int:
            raise ValueError(f"{kind} summand {body!r} needs an integer {key!r}")
    if len(body) > len(keys):  # type: ignore[arg-type]
        raise ValueError(f"{kind} summand {body!r} takes only the keys {' and '.join(map(repr, keys))}")
    return [body[key] for key in keys]  # type: ignore[index]


def zn_local_decomposition(n: int) -> RingSpec:
    """Z/n as a sum of Local(p^a, p^(a-1)), primes ascending."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return RingSpec(Local(p**a, p ** (a - 1)) for p, a in factorize(n))


# ---------------------------------------------------------------------------
# local and commutative graphs
# ---------------------------------------------------------------------------


def local_graph(R_order: int, J_order: int, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Complete multipartite graph with q+1 parts of size |J|.

    Vertex part*|J| + copy; built as a blow-up of K_{q+1}, which equals
    the complement of q+1 disjoint copies of K_{|J|}.
    """
    summand = Local(R_order, J_order)
    q = summand.q
    if (q + 1) * J_order > vertex_bound:
        raise BoundExceeded(f"{(q + 1) * J_order} vertices exceed bound {vertex_bound}")
    return blowup(Graph.complete(q + 1), J_order, vertex_bound)


def zn_projective_line(n: int, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Brute-force distant graph of P(Z/n), labels "a:b".

    Vertices are pairs with gcd(a, b, n) = 1, canonicalized to the
    lexicographically least member of the unit-scaling orbit; two points
    are adjacent when the pair determinant ad - bc is a unit mod n, that
    is nonzero mod every prime p | n, that is when the two points differ
    in every P(Z/p).  So the row of a point is all points minus, for each
    p, the bitset of the points congruent to it mod p.  The generators are
    (a:b) -> (-b:a) and (a:b) -> (a:a+b), which generate SL_2(Z/n); the
    second fixes vertex 0, the point 0:1, and moves its neighbours 1:b
    around one cycle.
    This construction never touches the tensor/blow-up machinery, so it
    can serve as the independent oracle for the commutative formulas.
    """
    factors = _local_factors(n)
    verts = _zn_points(n, factors, vertex_bound)
    local = [_local_indices(factors, a, b) for a, b in verts]
    # the point of P(Z/p) a vertex lies over is its local index // p^(e-1)
    over = [[i // j_order for i, (_, _, j_order, _) in zip(indices, factors)] for indices in local]
    classes = [[0] * (p + 1) for _, p, _, _ in factors]
    for v, points in enumerate(over):
        for cls, x in zip(classes, points):
            cls[x] |= 1 << v
    everyone = (1 << len(verts)) - 1
    rows = [everyone ^ reduce(or_, [cls[x] for cls, x in zip(classes, points)]) for points in over]
    vertex = [0] * len(verts)  # CRT index -> vertex
    for v, indices in enumerate(local):
        vertex[_crt_index(factors, indices)] = v
    generators = [
        [vertex[_crt_index(factors, _local_indices(factors, -b, a))] for a, b in verts],
        [vertex[_crt_index(factors, _local_indices(factors, a, a + b))] for a, b in verts],
    ]
    return _with_generators(Graph(len(verts), rows, [f"{a}:{b}" for a, b in verts]), generators)


def _zn_points(n: int, factors, vertex_bound: int) -> list[tuple[int, int]]:
    """The points of P(Z/n) as least pairs (a, b), ascending, given its _local_factors."""
    if n < 2:
        raise ValueError("n must be >= 2")
    expected = prod(count for *_, count in factors)
    if expected > vertex_bound:
        raise BoundExceeded(f"P(Z/{n}) has {expected} points, bound {vertex_bound}")
    units = [u for u in range(n) if gcd(u, n) == 1]
    verts = []
    # the units move a over {x : gcd(x, n) = gcd(a, n)}, whose least member
    # is d = gcd(a, n) mod n, so the least pair of a point is (d, b) with b
    # least in its orbit under the units that fix d
    for d in [d for d in range(1, n + 1) if n % d == 0]:
        fixing = [u for u in units if (u - 1) * d % n == 0]
        seen = bytearray(n)
        for b in range(n):
            if not seen[b] and gcd(d, b) == 1:
                orbit = [u * b % n for u in fixing]
                for c in orbit:
                    seen[c] = 1
                verts.append((d % n, min(orbit)))
    verts.sort()
    if len(verts) != expected:
        raise AssertionError("point count disagrees with the multiplicative formula")
    return verts


def _local_factors(n: int) -> list[tuple[int, int, int, int]]:
    """(f, p, p^(e-1), point count of P(Z/f)) for each prime power f = p^e
    of n, primes ascending (the order of zn_local_decomposition)."""
    return [(p**a, p, p ** (a - 1), (p + 1) * p ** (a - 1)) for p, a in factorize(n)]


def _local_indices(factors, a: int, b: int) -> list[int]:
    return [_local_point_index(f, p, j_order, a % f, b % f) for f, p, j_order, _ in factors]


def _local_point_index(f: int, p: int, j_order: int, a: int, b: int) -> int:
    """Index of the point of P(Z/f) in local_graph(f, f//p) vertex order."""
    if b % p:  # b is a unit: the point (a*b^-1, 1)
        r = a * pow(b, -1, f) % f
        part, copy = r % p, r // p
    else:  # every caller's pair is admissible, so a is a unit
        j = b * pow(a, -1, f) % f
        part, copy = p, j // p
    return part * j_order + copy


def _crt_index(factors, indices: list[int]) -> int:
    """Vertex index in the tensor product of the local graphs, factors in order."""
    idx = 0
    for (*_, count), i in zip(factors, indices):
        idx = idx * count + i
    return idx


def zn_crt_map(n: int) -> list[int]:
    """Vertex bijection from zn_projective_line(n) onto
    spec_graph(zn_local_decomposition(n)), induced componentwise by the
    Chinese remainder map onto the prime-power factors, primes ascending.

    mapping[i] is the spec-graph index of oracle vertex i.
    """
    factors = _local_factors(n)
    return [_crt_index(factors, _local_indices(factors, a, b)) for a, b in _zn_points(n, factors, VERTEX_BOUND)]


def spec_graph(spec: RingSpec, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Tensor product of the summand graphs, then the radical blow-up."""
    g = Graph.T()
    for s in spec.summands:
        if isinstance(s, Local):
            h = local_graph(s.R_order, s.J_order, vertex_bound)
        else:
            h = matrix_ring_graph(s.m, s.q, vertex_bound)
        g = tensor_product(g, h, vertex_bound)
    if spec.radical_multiplier > 1:
        g = blowup(g, spec.radical_multiplier, vertex_bound)
    return g


# ---------------------------------------------------------------------------
# matrix-ring graphs
# ---------------------------------------------------------------------------


class SubspacePoint(Record):
    """An m-dimensional subspace of F_q^{2m}: canonical RREF basis rows."""

    __slots__ = ("basis",)

    def __post_init__(self) -> None:
        m = self.basis.nrows
        if self.basis.ncols != 2 * m:
            raise ValueError("basis must be m x 2m")
        reduced, rank, _ = _echelon(self.basis.field, self.basis.rows, 2 * m)
        if tuple(map(tuple, reduced)) != self.basis.rows:
            raise ValueError("basis is not in reduced row-echelon form")
        if rank != m:
            raise ValueError("basis rows are dependent")

    @property
    def label(self) -> str:
        return matrix_label(self.basis)


def point_from_pair(a: MatrixGF, b: MatrixGF) -> SubspacePoint:
    """Point of P(M_m(q)) generated by the admissible pair (a, b)."""
    stacked = mat_hstack(a, b)
    reduced, rank, _ = _echelon(a.field, stacked.rows, stacked.ncols)
    if rank != a.nrows:
        raise ValueError("pair is not admissible (rows are dependent)")
    return SubspacePoint(MatrixGF(a.field, tuple(map(tuple, reduced))))


def points_distant(p1: SubspacePoint, p2: SubspacePoint) -> bool:
    """Distant iff the two subspaces meet trivially (stacked rank 2m)."""
    return mat_det(mat_vstack(p1.basis, p2.basis)) != 0


def matrix_ring_points(m: int, q: int | GF) -> list[SubspacePoint]:
    """All points, ordered lexicographically by basis entry vector."""
    F = gf_of(q)
    return [SubspacePoint(MatrixGF(F, rows)) for rows in _rref_bases(m, F.q)]


def _rref_bases(m: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of matrix_ring_points, built reduced and not checked again: per
    pivot set, every choice of the entries right of a row's pivot off the pivots."""
    out = []
    for pivots in combinations(range(2 * m), m):
        choices = []  # the rows are chosen independently of each other
        for piv in pivots:
            free = [j for j in range(piv + 1, 2 * m) if j not in pivots]
            row = [int(j == piv) for j in range(2 * m)]
            options = []
            for values in product(range(q), repeat=len(free)):
                for j, v in zip(free, values):
                    row[j] = v
                options.append(tuple(row))
            choices.append(options)
        out.extend(product(*choices))
    out.sort()
    return out


def matrix_ring_graph(m: int, q: int | GF, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Distant graph of P(M_m(q)); m = 0 is the trivial ring, i.e. T.

    Its generators are U -> U g for the g of _line_generators, acting on
    the points through their minors.
    """
    if m == 0:
        return Graph.T()
    F = gf_of(q)
    if m * m >= vertex_bound.bit_length():  # before qbinom, which is slow for large m
        raise BoundExceeded(f"P(M_{m}({F.q})) has more than 2^{m * m} points, bound {vertex_bound}")
    count = qbinom(2 * m, m)(F.q)
    if count > vertex_bound:
        raise BoundExceeded(f"P(M_{m}({F.q})) has {count} points, bound {vertex_bound}")
    bases = _rref_bases(m, F.q)
    minors = _plucker(F, m, bases)
    generators = _plucker_images(F, m, minors, _line_generators(F, m))
    labels = [_rows_label(F.q, rows) for rows in bases]
    return _with_generators(Graph(len(bases), _pairing_rows(F, m, minors), labels), generators)


def _minor_plan(m: int) -> list[list[list[tuple[int, int, int]]]]:
    """Laplace expansion of the t x t minors along their last row, t = 2..m.

    Level t lists, per t-subset S of the 2m columns in combinations
    order, the terms (index of S - {s_j} among the (t-1)-subsets, s_j,
    parity of t - 1 + j).  The 1-subsets are the columns themselves.
    """
    prev = {(c,): c for c in range(2 * m)}
    levels = []
    for t in range(2, m + 1):
        subsets = list(combinations(range(2 * m), t))
        levels.append([[(prev[S[:j] + S[j + 1 :]], S[j], (t - 1 + j) % 2) for j in range(t)] for S in subsets])
        prev = {S: k for k, S in enumerate(subsets)}
    return levels


def _plucker(F: GF, m: int, bases) -> list[tuple[int, ...]]:
    """The m x m minors of each m x 2m basis, on the m-subsets of the columns
    in combinations order: the minors of the first t rows come from those
    of the first t - 1 rows by Laplace expansion along row t.  Each minor
    is taken for all bases at once, as a column of values over the bases."""
    add, mul, neg = F._add, F._mul, F._neg
    by_row = [list(zip(*row)) for row in zip(*bases)]  # by_row[t][c][i]: entry (t, c) of basis i
    minors = by_row[0]
    for row, level in zip(by_row[1:], _minor_plan(m)):
        signed = (row, [[neg[x] for x in column] for column in row])
        nxt = []
        for (k, c, odd), *rest in level:
            acc = [mul[x][y] for x, y in zip(signed[odd][c], minors[k])]
            for k, c, odd in rest:
                acc = [add[a][mul[x][y]] for a, x, y in zip(acc, signed[odd][c], minors[k])]
            nxt.append(acc)
        minors = nxt
    return list(zip(*minors))


def _singer(F: GF, n: int) -> tuple[tuple[int, ...], ...]:
    """A Singer cycle of GL_n(q): the companion matrix of a primitive
    polynomial, whose determinant is a primitive element."""
    return companion_matrix(F, find_primitive(n, F)).rows


def _block(a, b, c, d) -> tuple[tuple[int, ...], ...]:
    """The 2m x 2m matrix [[a, b], [c, d]] from m x m blocks."""
    return tuple(x + y for x, y in zip(a, b)) + tuple(x + y for x, y in zip(c, d))


def _line_generators(F: GF, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Three elements of GL_2m(q) that move the points of P(M_m(q)) as one
    orbit: the block swap [[0, I], [I, 0]], and diag(S, I) and
    [[I, E], [0, S]] for S a Singer cycle of GL_m(q) and E the matrix unit
    E_00.  The last two fix vertex 0, the point (0 | I), and move its
    neighbours (I | X) as X -> S^-1 X and X -> E + X S, which is one orbit
    on all X (the tests check it on every family they build).  The swap
    maps vertex 0 to its neighbour (I | 0), so the group is transitive on
    the connected graph.
    """
    eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    zero = tuple((0,) * m for _ in range(m))
    unit = tuple(tuple(int(i == j == 0) for j in range(m)) for i in range(m))
    s = _singer(F, m)
    return [_block(zero, eye, eye, zero), _block(s, zero, zero, eye), _block(eye, unit, zero, s)]


def _plucker_images(F: GF, m: int, minors: list[tuple[int, ...]], gs) -> list[list[int]]:
    """The vertex permutations U -> U g of the bases with the given minors,
    for each g in gs, elements of GL_2m(q).

    By Cauchy-Binet the minors of U g are p(U) times the m-th compound of
    g, whose entry (K, J) is the minor of g on the rows K and columns J.
    Two bases span the same point iff their minors are proportional, so
    both sides are looked up scaled to a first nonzero minor of 1.
    """
    add, mul, inv = F._add, F._mul, F._inv
    subsets = list(combinations(range(2 * m), m))
    by_subset = list(zip(*minors))  # by_subset[K][v] = p_K(U_v)

    def projective(columns):
        """The points with these columns of minors, each scaled to a first nonzero minor of 1."""
        first = columns[0]
        for column in columns[1:]:
            first = [f or x for f, x in zip(first, column)]
        scales = [mul[inv[f]] for f in first]
        return zip(*[[s[x] for s, x in zip(scales, column)] for column in columns])

    vertex = dict(zip(projective(by_subset), range(len(minors))))
    out = []
    for g in gs:
        compound = _plucker(F, m, [[g[i] for i in rows] for rows in subsets])  # compound[K][J]
        image = []
        for j in range(len(subsets)):
            terms = [(by_subset[k], mul[row[j]]) for k, row in enumerate(compound) if row[j]]
            (first, times), *rest = terms
            column = [times[x] for x in first]
            for values, times in rest:
                column = [add[a][times[x]] for a, x in zip(column, values)]
            image.append(column)
        out.append(list(map(vertex.__getitem__, projective(image))))
    return out


def _pairing_rows(F: GF, m: int, minors: list[tuple[int, ...]]) -> list[int]:
    """Adjacency rows of the m x 2m bases U_i with the given minors (see
    _plucker): i ~ j iff det[U_i; U_j] != 0.

    Laplace expansion along the first m rows gives
    det[U; W] = sum_k p_k(U) * r_k(W) over the m-subsets k of the 2m
    columns, with p_k the m x m minor on the columns k and r_k(W) the
    minor on the complementary columns, signed by
    (-1)^(sum(k) + m(m+3)/2) (0-based column indices).  So row i is the
    complement of the zero set of the linear functional
    W -> sum_k p_k(U_i) * r_k(W), and it is found with whole-row bitsets,
    meeting in the middle (Horowitz & Sahni 1974):

    * cells[k][c] holds the points j with r_k(U_j) = c;
    * the functional splits into a low half, the terms k < h for
      h = C(2m, m) // 2, and a high half, the terms k >= h;
    * the level sets of a half, sums[s] = the points on which it is s,
      come from a value DP over its nonzero terms,
      sums'[s + a*c] |= sums[s] & cells[k][c] (a half with no nonzero
      term is s = 0 everywhere);
    * the zero set is OR_s low[s] & high[-s]: q whole-row ANDs per row.

    Each distinct half goes through the DP once, and its level sets stay
    in a memo local to the call.  A high half is kept negated (its DP runs
    on the terms -a), so that the join is OR_s low[s] & high[s].  A half
    is a tuple of h field elements, so there are at most min(n, q^h)
    distinct halves of each kind, and points share them: P(M_2(9)) has
    7,462 points but 92 low and 729 high halves, GL_3(3) 11,232 points
    but 1,248 and 624.  The q bitsets of an entry have
    popcounts adding up to n, but a Python int is as long as its highest
    bit, so an entry takes up to q * n / 8 bytes.  On those two graphs
    the memo and the DP took 7-9 MB beside 7.0 and 15.8 MB of rows.
    """
    subsets = list(combinations(range(2 * m), m))
    complement = range(len(subsets) - 1, -1, -1)  # reversed lexicographic order, as in f1_graph
    odd = [(sum(cols) + m * (m + 3) // 2) % 2 for cols in subsets]
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    q, n, h = F.q, len(minors), len(subsets) // 2
    everyone = (1 << n) - 1
    cells = [[0] * q for _ in subsets]
    for j, point in enumerate(minors):
        bit = 1 << j
        for cell, c, sign in zip(cells, complement, odd):
            x = point[c]
            cell[neg[x] if sign else x] |= bit

    def level_sets(half, start, sign):
        terms = [(k, sign[a]) for k, a in enumerate(half, start) if a]
        if not terms:
            return [everyone] + [0] * (q - 1)
        (k0, a0), *rest = terms
        sums = [cells[k0][x] for x in mul[inv[a0]]]  # sums[a0*c] = cells[k0][c]
        for kt, at in rest:
            live = [(add[s], z) for s, z in enumerate(sums) if z]
            sums = [0] * q
            for cell, ac in zip(cells[kt], mul[at]):
                if cell:
                    for shift, z in live:
                        hit = z & cell
                        if hit:
                            sums[shift[ac]] |= hit
        return sums

    lows, highs = {}, {}
    out = []
    for point in minors:
        low, high = point[:h], point[h:]
        if low not in lows:
            lows[low] = level_sets(low, 0, range(q))
        if high not in highs:
            highs[high] = level_sets(high, h, neg)
        out.append(everyone ^ reduce(or_, map(and_, lows[low], highs[high]), 0))
    return out


def unit_difference_graph(m: int, q: int | GF, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """GL_m(q) with edges between matrices whose difference is invertible.

    Its generators act on the points (X | I) below.  With S a Singer cycle
    and T the transvection that adds coordinate 0 to coordinate 1 (acting on
    row vectors from the right; for m = 1, T = I), which generate GL_m(q)
    (a subgroup with a Singer cycle and a transvection contains SL_m(q):
    Kantor, "Linear groups containing a Singer cycle", 1980), they are
    X -> X B for B = S T, which is (X | I) -> (X | I) diag(B, I), and for
    m >= 2 X -> S^-1 X J S J, which is (X | I) -> (X | I) diag(J S J, S), and
    X -> T^-1 X^-1 J T J, the block swap (X | I) -> (I | X) ~ (X^-1 | I)
    followed by the same move for T: (X | I) -> (X | I) [[0, T], [J T J, 0]].
    Vertex 0 is the antidiagonal matrix J = J^-1, which the last two fix: on
    Y = X J they are Y -> S^-1 Y S and Y -> (J T)^-1 Y^-1 (J T), so its
    suborbits are conjugacy classes merged with their inverses' classes.
    The orbit of J holds B' J for every B' in the normal closure of B = S T,
    which is GL_m(q) (its determinant is primitive; the tests check the
    single orbit on every family they build)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    F = gf_of(q)
    if m * (m - 1) // 2 >= vertex_bound.bit_length():  # before gl_order, which is slow for large m
        raise BoundExceeded(f"GL_{m}({F.q}) has at least 2^{m * (m - 1) // 2} elements, bound {vertex_bound}")
    order = gl_order(m, F.q)
    if order > vertex_bound:
        raise BoundExceeded(f"GL_{m}({F.q}) has {order} elements, bound {vertex_bound}")
    mats = _gl_rows(m, F)
    # det[A, I; B, I] = det(A - B): the points (A | I) of P(M_m(q))
    eye = identity(F, m).rows
    zero = tuple((0,) * m for _ in eye)
    minors = _plucker(F, m, [tuple(r + e for r, e in zip(rows, eye)) for rows in mats])
    s = _singer(F, m)
    t = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(m)) for i in range(m))
    moves = [_block(mat_mul(MatrixGF(F, s), MatrixGF(F, t)).rows, zero, zero, eye)]
    if m >= 2:
        jsj, jtj = [tuple(row[::-1] for row in a[::-1]) for a in (s, t)]
        moves += [_block(jsj, zero, zero, s), _block(zero, t, jtj, zero)]
    generators = _plucker_images(F, m, minors, moves)
    labels = [_rows_label(F.q, rows) for rows in mats]
    return _with_generators(Graph(len(mats), _pairing_rows(F, m, minors), labels), generators)


def spread_clique(m: int, q: int | GF) -> list[SubspacePoint]:
    """The (q^m + 1)-clique of P(M_m(q)) built from powers of a matrix of
    full multiplicative order: (1,0), (0,1) and the points (u^i, 1).
    Pairwise distantness is verified before returning.

    u must have PRIMITIVE characteristic polynomial: irreducibility alone
    is not enough, since eigenvalues of lower order make u^d - 1 singular
    for some d < q^m - 1 (e.g. the companion matrix of x^2+1 over GF(3)
    has order 4, so its 8 claimed powers collapse to 4).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    F = gf_of(q)
    u = companion_matrix(F, find_primitive(m, F))
    eye = identity(F, m)
    zero = MatrixGF(F, tuple((0,) * m for _ in range(m)))
    pts = [point_from_pair(eye, zero), point_from_pair(zero, eye)]
    acc = eye
    for _ in range(F.q**m - 1):
        pts.append(point_from_pair(acc, eye))
        acc = mat_mul(acc, u)
    for p1, p2 in combinations(pts, 2):
        if not points_distant(p1, p2):
            raise AssertionError("spread construction produced non-distant points")
    return pts


def f1_graph(m: int, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """The q -> 1 limit: m-subsets of a 2m-set, adjacent iff complementary."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = comb(2 * m, m)
    if n > vertex_bound:
        raise BoundExceeded(f"{n} vertices exceed bound {vertex_bound}")
    subsets = list(combinations(range(2 * m), m))
    # complementing reverses the lexicographic order of the m-subsets of a 2m-set
    rows = [1 << (n - 1 - i) for i in range(n)]
    labels = ["".join("1" if x in s else "0" for x in range(2 * m)) for s in subsets]
    return Graph(n, rows, labels)
