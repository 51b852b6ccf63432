"""Dense exact matrices over GF(q): ranks, canonical echelon forms, GL.

Entries are field element indices stored row-major in nested tuples;
matrices are immutable and hashable so they can live in sets and dicts.
"""

from __future__ import annotations

from itertools import product

from .config import GL_ENUMERATION_BOUND
from .errors import BoundExceeded, Record
from .fields import GF, FieldPoly, gf_of
from .polynomials import matrix_codegree


class MatrixGF(Record):
    __slots__ = ("field", "rows")

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


def mat_vstack(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.ncols != b.ncols:
        raise ValueError("column mismatch")
    return MatrixGF(a.field, a.rows + b.rows)


def mat_hstack(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.nrows != b.nrows:
        raise ValueError("row mismatch")
    return MatrixGF(a.field, tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def _echelon(F: GF, rows, ncols: int) -> tuple[list[list[int]], int, int]:
    """Gauss-Jordan elimination on raw rows, the one kernel behind rank,
    rref and det: (reduced row-echelon rows, rank, det).

    det is the determinant when the input is square (0 when singular):
    each row swap negates it, and it collects every pivot before the
    pivot row is scaled to 1.
    """
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    rows = [list(r) for r in rows]
    nrows = len(rows)
    rank, det = 0, 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = neg[det]
        lead = rows[rank][col]
        det = mul[det][lead]
        scale = mul[inv[lead]]
        top = rows[rank] = [scale[e] for e in rows[rank]]
        for i in range(nrows):
            c = rows[i][col]
            if c and i != rank:
                minus_c, ri = mul[neg[c]], rows[i]
                for j in range(col, ncols):
                    ri[j] = add[ri[j]][minus_c[top[j]]]
        rank += 1
    return rows, rank, det if rank == nrows == ncols else 0


def _det(F: GF, rows) -> int:
    """Determinant of square raw rows: the product form for 2 x 2, else the kernel."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return F._add[F._mul[a][d]][F._neg[F._mul[b][c]]]
    return _echelon(F, rows, len(rows))[2]


def mat_rank(m: MatrixGF) -> int:
    return _echelon(m.field, m.rows, m.ncols)[1]


def mat_det(m: MatrixGF) -> int:
    """Determinant; the product form for 2 x 2, elimination otherwise."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _det(m.field, m.rows)


def rref(m: MatrixGF) -> MatrixGF:
    """Reduced row-echelon form: the canonical basis of the row space."""
    reduced = _echelon(m.field, m.rows, m.ncols)[0]
    return MatrixGF(m.field, tuple(map(tuple, reduced)))


def gl_order(m: int, q: int) -> int:
    """|GL_m(q)| as an exact integer: matrix_codegree(m) at q."""
    return matrix_codegree(m)(q)


def enumerate_gl(m: int, q: int | GF) -> list[MatrixGF]:
    """All invertible m x m matrices, lexicographic on the entry vector."""
    F = gf_of(q)
    return [MatrixGF(F, rows) for rows in _gl_rows(m, F)]


def _gl_rows(m: int, F: GF) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of enumerate_gl, not wrapped in MatrixGF."""
    if F.q ** (m * m) > GL_ENUMERATION_BOUND:
        raise BoundExceeded(f"{F.q}^{m*m} candidate matrices exceed bound {GL_ENUMERATION_BOUND}")
    return [rows for rows in product(product(range(F.q), repeat=m), repeat=m) if _det(F, rows)]


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


def matrix_label(m: MatrixGF) -> str:
    """Row-major digit string, e.g. "2201" for [[2,2],[0,1]] (q <= 10)."""
    return _rows_label(m.field.q, m.rows)


def _rows_label(q: int, rows) -> str:
    """matrix_label of the matrix over GF(q) with these rows."""
    return ("," if q > 10 else "").join([str(e) for r in rows for e in r])
