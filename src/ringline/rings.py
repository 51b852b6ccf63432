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
once, and a pair costs one short dot product over GF(q).  The
unit-difference graph is the induced subgraph on the points (A | I),
since det[A, I; B, I] = det(A - B).  `points_distant` and `mat_det` stay
as the reference the tests compare the kernel against.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd
from pathlib import Path

from .config import VERTEX_BOUND
from .errors import BoundExceeded
from .fields import GF, factor_prime_power, find_primitive, gf_of
from .graphs import Graph, blowup, tensor_product
from .linalg import (
    MatrixGF,
    companion_matrix,
    enumerate_gl,
    gl_order,
    identity,
    mat_det,
    mat_hstack,
    mat_mul,
    mat_rank,
    mat_vstack,
    matrix_label,
    rref,
)

# ---------------------------------------------------------------------------
# ring descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Local:
    """A finite local ring given by |R| and |J| (graph depends only on these)."""

    R_order: int
    J_order: int

    def __post_init__(self) -> None:
        R, J = self.R_order, self.J_order
        if R < 2 or J < 1 or R % J:
            raise ValueError(f"invalid local ring cardinalities ({R}, {J})")
        p, a = factor_prime_power(R)
        if J == 1:
            return
        pj, b = factor_prime_power(J)
        if pj != p:
            raise ValueError(f"|R|={R} and |J|={J} are powers of different primes")
        r = a - b
        if r < 1 or a % r:
            raise ValueError(f"no local ring has |R|={R}, |J|={J}")

    @property
    def q(self) -> int:
        """Residue field order |R|/|J| (always a prime power)."""
        return self.R_order // self.J_order


@dataclass(frozen=True)
class MatrixRing:
    """The ring of m x m matrices over GF(q); m = 0 is the trivial ring."""

    m: int
    q: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("matrix size must be >= 0")
        factor_prime_power(self.q)  # rejects non-prime-powers


Summand = Local | MatrixRing


@dataclass(frozen=True)
class RingSpec:
    summands: tuple[Summand, ...]
    radical_multiplier: int = 1

    def __init__(self, summands, radical_multiplier: int = 1):
        object.__setattr__(self, "summands", tuple(summands))
        object.__setattr__(self, "radical_multiplier", int(radical_multiplier))
        if self.radical_multiplier < 1:
            raise ValueError("radical multiplier must be >= 1")
        if self.radical_multiplier > 1 and any(
            isinstance(s, Local) and s.J_order > 1 for s in self.summands
        ):
            warnings.warn(
                "spec mixes a global radical multiplier with local radicals; "
                "only one is normally needed",
                stacklevel=2,
            )

    @property
    def radical_order(self) -> int:
        """|J| of the whole ring: local radicals times the global multiplier."""
        out = self.radical_multiplier
        for s in self.summands:
            if isinstance(s, Local):
                out *= s.J_order
        return out

    def is_commutative(self) -> bool:
        return all(isinstance(s, Local) for s in self.summands)


def parse_ring_spec(data: dict | str | Path) -> RingSpec:
    """Ring-spec JSON: {"summands":[{"local":{"R":4,"J":2}},
    {"matrix":{"m":2,"q":3}}],"radical":1}."""
    if isinstance(data, Path):
        data = json.loads(data.read_text())
    elif isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("a ring spec must be a JSON object")
    items = data.get("summands", [])
    if not isinstance(items, list):
        raise ValueError(f"'summands' must be a list, got {items!r}")
    summands: list[Summand] = []
    for item in items:
        if isinstance(item, dict) and "local" in item:
            summands.append(Local(*_spec_ints(item["local"], "local", "R", "J")))
        elif isinstance(item, dict) and "matrix" in item:
            summands.append(MatrixRing(*_spec_ints(item["matrix"], "matrix", "m", "q")))
        else:
            raise ValueError(f"unknown summand {item!r}")
    radical = data.get("radical", 1)
    if not isinstance(radical, int):
        raise ValueError(f"'radical' must be an integer, got {radical!r}")
    return RingSpec(summands, radical)


def _spec_ints(body: object, kind: str, *keys: str) -> list[int]:
    for key in keys:
        if not isinstance(body, dict) or not isinstance(body.get(key), int):
            raise ValueError(f"{kind} summand {body!r} needs an integer {key!r}")
    return [body[key] for key in keys]  # type: ignore[index]


def ring_spec_json(spec: RingSpec) -> str:
    items = []
    for s in spec.summands:
        if isinstance(s, Local):
            items.append({"local": {"R": s.R_order, "J": s.J_order}})
        else:
            items.append({"matrix": {"m": s.m, "q": s.q}})
    return json.dumps({"summands": items, "radical": spec.radical_multiplier})


def zn_local_decomposition(n: int) -> RingSpec:
    """Z/n as a sum of Local(p^a, p^(a-1)), primes ascending."""
    if n < 2:
        raise ValueError("n must be >= 2")
    summands = []
    for p, a in _factorize(n):
        summands.append(Local(p**a, p ** (a - 1)))
    return RingSpec(summands)


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


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
    are adjacent when the pair determinant ad - bc is a unit mod n.
    This construction never touches the tensor/blow-up machinery, so it
    can serve as the independent oracle for the commutative formulas.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    expected = 1
    for p, a in _factorize(n):
        expected *= p**a + p ** (a - 1)
    if expected > vertex_bound:
        raise BoundExceeded(f"P(Z/{n}) has {expected} points, bound {vertex_bound}")
    units = [u for u in range(n) if gcd(u, n) == 1]
    seen = bytearray(n * n)  # pair (a, b) at a * n + b
    verts = []
    for a in range(n):
        for b in range(n):
            if not seen[a * n + b] and gcd(gcd(a, b), n) == 1:
                orbit = [((u * a) % n, (u * b) % n) for u in units]
                for c, d in orbit:
                    seen[c * n + d] = 1
                verts.append(min(orbit))
    verts.sort()
    rows = [0] * len(verts)
    for i, (a, b) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            c, d = verts[j]
            if gcd((a * d - b * c) % n, n) == 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    labels = [f"{a}:{b}" for a, b in verts]
    g = Graph(len(verts), rows, labels)
    if g.n != expected:
        raise AssertionError("point count disagrees with the multiplicative formula")
    return g


def zn_crt_map(n: int, factorization: list[int] | None = None) -> list[int]:
    """Vertex bijection from zn_projective_line(n) onto spec_graph of the
    local decomposition, induced componentwise by the Chinese remainder map.

    mapping[i] is the spec-graph index of oracle vertex i.  Factors must
    be coprime and multiply to n; the default is the prime-power
    factorization in ascending order (matching zn_local_decomposition).
    """
    if factorization is None:
        factorization = [p**a for p, a in _factorize(n)]
    prod = 1
    for f in factorization:
        prod *= f
    if prod != n:
        raise ValueError("factors do not multiply to n")
    for f1, f2 in combinations(factorization, 2):
        if gcd(f1, f2) != 1:
            raise ValueError("factors are not coprime")

    sizes = []
    for f in factorization:
        p, a = factor_prime_power(f)
        sizes.append((f, p, p ** (a - 1), (p + 1) * p ** (a - 1)))

    oracle = zn_projective_line(n)
    mapping = []
    for label in oracle.labels:  # type: ignore[union-attr]
        a_str, b_str = label.split(":")
        a, b = int(a_str), int(b_str)
        idx = 0
        for f, p, j_order, count in sizes:
            idx = idx * count + _local_point_index(f, p, j_order, a % f, b % f)
        mapping.append(idx)
    return mapping


def _local_point_index(f: int, p: int, j_order: int, a: int, b: int) -> int:
    """Index of the point of P(Z/f) in local_graph(f, f//p) vertex order."""
    if b % p:  # b is a unit: the point (a*b^-1, 1)
        r = a * pow(b, -1, f) % f
        part, copy = r % p, r // p
    else:
        if a % p == 0:
            raise ValueError(f"({a},{b}) is not admissible mod {f}")
        j = b * pow(a, -1, f) % f
        part, copy = p, j // p
    return part * j_order + copy


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


@dataclass(frozen=True)
class SubspacePoint:
    """An m-dimensional subspace of F_q^{2m}: canonical RREF basis rows."""

    basis: MatrixGF

    def __post_init__(self) -> None:
        m = self.basis.nrows
        if self.basis.ncols != 2 * m:
            raise ValueError("basis must be m x 2m")
        if rref(self.basis) != self.basis:
            raise ValueError("basis is not in reduced row-echelon form")
        if mat_rank(self.basis) != m:
            raise ValueError("basis rows are dependent")

    @property
    def label(self) -> str:
        return matrix_label(self.basis)


def point_from_pair(a: MatrixGF, b: MatrixGF) -> SubspacePoint:
    """Point of P(M_m(q)) generated by the admissible pair (a, b)."""
    stacked = mat_hstack(a, b)
    if mat_rank(stacked) != a.nrows:
        raise ValueError("pair is not admissible (rows are dependent)")
    return SubspacePoint(rref(stacked))


def points_distant(p1: SubspacePoint, p2: SubspacePoint) -> bool:
    """Distant iff the two subspaces meet trivially (stacked rank 2m)."""
    return mat_det(mat_vstack(p1.basis, p2.basis)) != 0


def matrix_ring_points(m: int, q: int | GF) -> list[SubspacePoint]:
    """All points, ordered lexicographically by basis entry vector."""
    F = gf_of(q)
    pts = []
    for pivots in combinations(range(2 * m), m):
        free_cells = [
            (i, j)
            for i in range(m)
            for j in range(2 * m)
            if j > pivots[i] and j not in pivots
        ]
        for values in product(range(F.q), repeat=len(free_cells)):
            rows = [[0] * (2 * m) for _ in range(m)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            pts.append(SubspacePoint(MatrixGF(F, tuple(tuple(r) for r in rows))))
    pts.sort(key=lambda p: p.basis.rows)
    return pts


def matrix_ring_graph(m: int, q: int | GF, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """Distant graph of P(M_m(q)); m = 0 is the trivial ring, i.e. T."""
    if m == 0:
        return Graph.T()
    F = gf_of(q)
    count = _gaussian_binomial_value(2 * m, m, F.q)
    if count > vertex_bound:
        raise BoundExceeded(f"P(M_{m}({F.q})) has {count} points, bound {vertex_bound}")
    pts = matrix_ring_points(m, F)
    rows = _pairing_rows(F, m, [p.basis.rows for p in pts])
    return Graph(len(pts), rows, [p.label for p in pts])


def _pairing_rows(F: GF, m: int, bases: list[tuple[tuple[int, ...], ...]]) -> list[int]:
    """Adjacency rows of the m x 2m bases: i ~ j iff det[U_i; U_j] != 0.

    Laplace expansion along the first m rows gives
    det[U; W] = sum over m-subsets I of the 2m columns of
    (-1)^(sum(I) + m(m+3)/2) * p_I(U) * p_{I^c}(W), with 0-based column
    indices and p_I the m x m minor on the columns I.  Each basis gets its
    Plücker vector once: the left side holds the multiplication-table row
    of each nonzero p_I(U), the right side the signed complementary minors,
    so a pair costs one dot product of at most C(2m, m) table lookups.
    """
    subsets = list(combinations(range(2 * m), m))
    position = {cols: k for k, cols in enumerate(subsets)}
    complement = [position[tuple(c for c in range(2 * m) if c not in cols)] for cols in subsets]
    odd = [(sum(cols) + m * (m + 3) // 2) % 2 for cols in subsets]
    add, mul, neg = F._add, F._mul, F._neg
    left, right = [], []
    for rows in bases:
        minors = [
            mat_det(MatrixGF(F, tuple(tuple(row[c] for c in cols) for row in rows)))
            for cols in subsets
        ]
        left.append(tuple((k, mul[x]) for k, x in enumerate(minors) if x))
        right.append(
            tuple(neg[minors[c]] if sign else minors[c] for c, sign in zip(complement, odd))
        )
    n = len(bases)
    out = [0] * n
    for i in range(n):
        terms = left[i]
        bit = 1 << i
        for j in range(i + 1, n):
            w = right[j]
            acc = 0
            for k, row in terms:
                acc = add[acc][row[w[k]]]
            if acc:
                out[i] |= 1 << j
                out[j] |= bit
    return out


def _gaussian_binomial_value(n: int, k: int, q: int) -> int:
    # integer value by the telescoping product; exact because each prefix
    # is itself a Gaussian binomial
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def unit_difference_graph(m: int, q: int | GF, vertex_bound: int = VERTEX_BOUND) -> Graph:
    """GL_m(q) with edges between matrices whose difference is invertible."""
    F = gf_of(q)
    order = gl_order(m, F.q)
    if order > vertex_bound:
        raise BoundExceeded(f"GL_{m}({F.q}) has {order} elements, bound {vertex_bound}")
    mats = enumerate_gl(m, F)
    # det[A, I; B, I] = det(A - B): the points (A | I) of P(M_m(q))
    eye = identity(F, m).rows
    rows = _pairing_rows(F, m, [tuple(r + e for r, e in zip(mt.rows, eye)) for mt in mats])
    return Graph(len(mats), rows, [matrix_label(mt) for mt in mats])


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
    index = {s: i for i, s in enumerate(subsets)}
    full = frozenset(range(2 * m))
    rows = [0] * n
    for i, s in enumerate(subsets):
        comp = tuple(sorted(full - set(s)))
        j = index[comp]
        rows[i] |= 1 << j
    labels = ["".join("1" if x in s else "0" for x in range(2 * m)) for s in subsets]
    return Graph(n, rows, labels)
