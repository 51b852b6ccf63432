"""Dense exact matrices over GF(q): ranks, canonical echelon forms, GL.

Entries are field element indices stored row-major in nested tuples;
matrices are immutable and hashable so they can live in sets and dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .config import GL_ENUMERATION_BOUND
from .errors import BoundExceeded
from .fields import GF, FieldPoly, fp_add, fp_mul, fp_neg, fp_trim, gf_of


@dataclass(frozen=True)
class MatrixGF:
    field: GF
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")
        q = self.field.q
        if any(not (0 <= e < q) for r in self.rows for e in r):
            raise ValueError("entry out of field range")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"MatrixGF(GF({self.field.q}), [{body}])"


def matrix(field: GF | int, rows) -> MatrixGF:
    F = gf_of(field)
    return MatrixGF(F, tuple(tuple(int(e) for e in r) for r in rows))


def identity(field: GF | int, n: int) -> MatrixGF:
    F = gf_of(field)
    return MatrixGF(F, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(field: GF | int, nrows: int, ncols: int) -> MatrixGF:
    F = gf_of(field)
    return MatrixGF(F, tuple((0,) * ncols for _ in range(nrows)))


def mat_sub(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    F = a.field
    return MatrixGF(F, tuple(tuple(map(F.sub, ra, rb)) for ra, rb in zip(a.rows, b.rows)))


def mat_mul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    F = a.field
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    bt = tuple(zip(*b.rows)) if b.rows else ()
    out = []
    for ra in a.rows:
        row = []
        for cb in bt:
            acc = 0
            for x, y in zip(ra, cb):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return MatrixGF(F, tuple(out))


def mat_pow(a: MatrixGF, e: int) -> MatrixGF:
    if a.nrows != a.ncols:
        raise ValueError("power of a non-square matrix")
    acc = identity(a.field, a.nrows)
    base = a
    while e:
        if e & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        e >>= 1
    return acc


def mat_vstack(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.ncols != b.ncols:
        raise ValueError("column mismatch")
    return MatrixGF(a.field, a.rows + b.rows)


def mat_hstack(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.nrows != b.nrows:
        raise ValueError("row mismatch")
    return MatrixGF(a.field, tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def mat_rank(m: MatrixGF) -> int:
    F = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        for i in range(rank + 1, nrows):
            c = rows[i][col]
            if c:
                factor = F.mul(c, inv)
                ri, rp = rows[i], rows[rank]
                for j in range(col, ncols):
                    ri[j] = F.sub(ri[j], F.mul(factor, rp[j]))
        rank += 1
        if rank == nrows:
            break
    return rank


def mat_det(m: MatrixGF) -> int:
    """Determinant; direct formulas for n <= 3, elimination above."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    F = m.field
    n = m.nrows
    r = m.rows
    if n == 0:
        return 1
    if n == 1:
        return r[0][0]
    if n == 2:
        return F.sub(F.mul(r[0][0], r[1][1]), F.mul(r[0][1], r[1][0]))
    if n == 3:
        pos = F.add(
            F.add(F.mul(F.mul(r[0][0], r[1][1]), r[2][2]), F.mul(F.mul(r[0][1], r[1][2]), r[2][0])),
            F.mul(F.mul(r[0][2], r[1][0]), r[2][1]),
        )
        neg = F.add(
            F.add(F.mul(F.mul(r[0][2], r[1][1]), r[2][0]), F.mul(F.mul(r[0][0], r[1][2]), r[2][1])),
            F.mul(F.mul(r[0][1], r[1][0]), r[2][2]),
        )
        return F.sub(pos, neg)
    rows = [list(row) for row in r]
    det = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv = F.inv(rows[col][col])
        for i in range(col + 1, n):
            c = rows[i][col]
            if c:
                factor = F.mul(c, inv)
                for j in range(col, n):
                    rows[i][j] = F.sub(rows[i][j], F.mul(factor, rows[col][j]))
    return det


def mat_is_invertible(m: MatrixGF) -> bool:
    if m.nrows != m.ncols:
        raise ValueError("invertibility of a non-square matrix")
    return mat_det(m) != 0


def rref(m: MatrixGF) -> MatrixGF:
    """Reduced row-echelon form: the canonical basis of the row space."""
    F = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, e) for e in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                ri, rp = rows[i], rows[rank]
                for j in range(col, ncols):
                    ri[j] = F.sub(ri[j], F.mul(factor, rp[j]))
        rank += 1
        if rank == nrows:
            break
    return MatrixGF(F, tuple(tuple(r) for r in rows))


def gl_order(m: int, q: int) -> int:
    """|GL_m(q)| as an exact integer: prod_{k<m} (q^m - q^k)."""
    if m < 0:
        raise ValueError("negative dimension")
    out = 1
    for k in range(m):
        out *= q**m - q**k
    return out


def enumerate_gl(m: int, q: int | GF, bound: int | None = None) -> list[MatrixGF]:
    """All invertible m x m matrices, lexicographic on the entry vector."""
    F = gf_of(q)
    limit = GL_ENUMERATION_BOUND if bound is None else bound
    if F.q ** (m * m) > limit:
        raise BoundExceeded(f"{F.q}^{m*m} candidate matrices exceed bound {limit}")
    out = []
    for entries in product(range(F.q), repeat=m * m):
        cand = MatrixGF(F, tuple(entries[i * m : (i + 1) * m] for i in range(m)))
        if mat_det(cand) != 0:
            out.append(cand)
    return out


def companion_matrix(field: GF | int, poly: FieldPoly) -> MatrixGF:
    """Companion matrix of a monic polynomial: last row -c_0..-c_{m-1}."""
    F = gf_of(field)
    if not poly or poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    m = len(poly) - 1
    if m < 1:
        raise ValueError("degree must be >= 1")
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i][i + 1] = 1
    for j in range(m):
        rows[m - 1][j] = F.neg(poly[j])
    return MatrixGF(F, tuple(tuple(r) for r in rows))


def char_poly(m: MatrixGF) -> FieldPoly:
    """Characteristic polynomial det(xI - A), monic, by Laplace expansion."""
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    F = m.field
    n = m.nrows
    entries = [
        [((F.neg(m.rows[i][j]), 1) if i == j else fp_trim([F.neg(m.rows[i][j])])) for j in range(n)]
        for i in range(n)
    ]

    def det(rows_idx: list[int], cols_idx: list[int]) -> FieldPoly:
        if not rows_idx:
            return (1,)
        i = rows_idx[0]
        acc: FieldPoly = ()
        for pos, j in enumerate(cols_idx):
            e = entries[i][j]
            if not e:
                continue
            minor = det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1 :])
            term = fp_mul(F, e, minor)
            if pos % 2:
                term = fp_neg(F, term)
            acc = fp_add(F, acc, term)
        return acc

    return det(list(range(n)), list(range(n)))


def matrix_label(m: MatrixGF) -> str:
    """Row-major digit string, e.g. "2201" for [[2,2],[0,1]] (q <= 10)."""
    if m.field.q > 10:
        return ",".join(str(e) for r in m.rows for e in r)
    return "".join(str(e) for r in m.rows for e in r)
