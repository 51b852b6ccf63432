"""Closed-form counting expressions, exact in the indeterminate q.

Everything here is arbitrary-precision: polynomials are IntPoly, values
are Python ints.  The Gaussian binomials are built from their product
formula on integer coefficients (polynomials.qbinom), never by rational
division.

Each summand is read as (m, q, |J|), the rule of `ringline.rings.Local`.
So one rule counts the common neighbours of a k-clique of any spec:
|J| * prod_s C_{m_s,k}(q_s), where C_{1,k}(q) = q + 1 - k counts on
P(F_q) = K_{q+1} and an m = 0 summand contributes 1.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Sequence

from .polynomials import IntPoly, matrix_codegree, poly_product, qbinom
from .rings import RingSpec


def _one_minus_q_to(t: int) -> IntPoly:
    return IntPoly.one() - IntPoly.monomial(t)


# ---------------------------------------------------------------------------
# commutative specs
# ---------------------------------------------------------------------------


def _local_qs(spec: RingSpec) -> list[int]:
    if not spec.is_commutative():
        raise ValueError("spec has matrix-ring summands; commutative formulas do not apply")
    return [s.q for s in spec.summands if s.m >= 1]


def comm_clique_count(spec: RingSpec, k: int) -> int:
    """|J|^k * prod_i C(q_i+1, k), the printed product formula.

    This multiplies per-summand clique counts.  For a single local
    summand it is the number of k-vertex cliques of the distant graph;
    for s > 1 summands the true vertex-set count of the tensor graph is
    (k!)^(s-1) times larger, because the per-factor cliques can be
    matched up in k! ways (see comm_clique_count_vertex_sets).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return spec.radical_order**k * prod(comb(q + 1, k) for q in _local_qs(spec))


def comm_clique_count_vertex_sets(spec: RingSpec, k: int) -> int:
    """Exact number of k-vertex cliques of the distant graph:
    |J|^k * (k!)^(s-1) * prod_i C(q_i+1, k) for s local summands."""
    count = comm_clique_count(spec, k)  # checks k and the spec before factorial(k)
    return factorial(k) ** max(0, len(_local_qs(spec)) - 1) * count


def comm_extension_count(spec: RingSpec, k: int) -> int:
    """|J| * prod_i (q_i + 1 - k): extensions of any k-clique to a
    (k+1)-clique.  Meaningful whenever a k-clique exists."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _local_qs(spec)
    return _extension_count(spec, k)


def _extension_count(spec: RingSpec, k: int) -> int:
    """|J| * prod_s C_{m_s,k}(q_s), the module docstring's rule, for k >= 0."""
    value = prod(s.q + 1 - k if s.m == 1 else c_extension_poly(s.m, k)(s.q) for s in spec.summands if s.m)
    return radical_scale(value, spec.radical_order)


def comm_max_clique(spec: RingSpec) -> int:
    """general_max_clique of a commutative spec: min over summands of q + 1."""
    _local_qs(spec)
    return general_max_clique(spec)


def general_max_clique(spec: RingSpec) -> int:
    """min over the summands with m >= 1 of q^m + 1."""
    tops = [s.q**s.m + 1 for s in spec.summands if s.m >= 1]
    if not tops:
        raise ValueError("trivial ring: a clique of every order exists")
    return min(tops)


def cap_n_N_comm(spec: RingSpec, n: int) -> int:
    """|J| * sum_k (-1)^k C(n,k) prod_i (q_i+1-k): size of the common
    neighbourhood (non-distant sets) of n mutually distant points.

    The value is about an actual configuration only when an n-clique
    exists (n <= comm_max_clique(spec)); the alternating sum itself is
    always defined."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return cap_k_N_from_extensions([comm_extension_count(spec, k) for k in range(n + 1)], n)


# ---------------------------------------------------------------------------
# matrix rings
# ---------------------------------------------------------------------------


def matrix_point_count(m: int) -> IntPoly:
    """[2m, m]_q: number of points of the m x m matrix-ring line."""
    if m < 0:
        raise ValueError("negative dimension")
    return qbinom(2 * m, m)


def matrix_degree(m: int) -> IntPoly:
    """q^(m^2): neighbours of a point (the ring order)."""
    if m < 0:
        raise ValueError("negative dimension")
    return IntPoly.monomial(m * m)


def cap1N_matrix(m: int) -> IntPoly:
    return cap_k_N_from_extensions([c_extension_poly(m, i) for i in range(2)], 1)


def cap2N_matrix(m: int) -> IntPoly:
    return cap_k_N_from_extensions([c_extension_poly(m, i) for i in range(3)], 2)


def cap1N_product(spec: RingSpec) -> int:
    """Points minus degree for a sum of matrix rings, radical-scaled."""
    return _cap_product(spec, 1)


def cap2N_product(spec: RingSpec) -> int:
    """Inclusion-exclusion over point count, degree and codegree products."""
    return _cap_product(spec, 2)


def _cap_product(spec: RingSpec, n: int) -> int:
    if any(s.J_order > 1 for s in spec.summands):
        raise ValueError("spec is not semisimple; reduce by the radical and rescale with radical_scale")
    return cap_k_N_from_extensions([_extension_count(spec, k) for k in range(n + 1)], n)


def incexc_Wprime(m: int, k: int, W: Sequence[int], q: int) -> int:
    """Alternating q-weighted sum turning capture counts into exact counts.

    W[j] is the number of elements capturing a fixed j-dimensional
    subspace of an m-dimensional space; the result is the number
    capturing a k-subspace and nothing larger:
    sum_i (-1)^i [m-k, i]_q q^(i(i-1)/2) W[k+i].
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    if len(W) < m + 1:
        raise ValueError(f"W must supply dimensions 0..{m}")
    return sum((-1) ** i * qbinom(m - k, i)(q) * q ** (i * (i - 1) // 2) * W[k + i] for i in range(m - k + 1))


def c_extension_poly(m: int, k: int) -> IntPoly:
    """C_{m,k}(q): ways to extend a k-clique of the matrix-ring line,
    as a polynomial in q.  Closed forms exist only for k <= 3:

      k=0  [2m, m]_q          (points)
      k=1  q^(m^2)            (degree)
      k=2  prod (q^m - q^k)   (codegree)
      k=3  (-1)^m q^(m(m-1)/2) sum_i prod_{j<=m-i-1} (1 - q^(m-j)),
           the sum of distcoeff_poly(m, i) over i = 0..m

    For k > 3 the cliques split into classes with different extension
    counts, so no single polynomial exists; use extension_profile.
    The k=3 sum is cross-checked against its nested product form.
    """
    if m < 0:
        raise ValueError("negative dimension")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 3:
        raise ValueError("no closed formula for k > 3; use extension_profile")
    if k == 0:
        return matrix_point_count(m)
    if k == 1:
        return matrix_degree(m)
    if k == 2:
        return matrix_codegree(m)
    total = sum(distcoeff_poly(m, i) for i in range(m + 1))
    nested = IntPoly.one()
    for t in range(1, m + 1):
        nested = _one_minus_q_to(t) * nested + 1
    # the last term, distcoeff_poly(m, m), is the common factor alone
    if total != distcoeff_poly(m, m) * nested:
        raise AssertionError("sum and nested forms of the 4-clique count disagree")
    return total


def distcoeff_poly(m: int, k: int) -> IntPoly:
    """(-1)^m q^(m(m-1)/2) prod_{j=0}^{m-1-k} (1 - q^(m-j)): the k-th of the
    m + 1 terms of C_{m,3}(q), whose coefficients the partition theorems
    read as parity counts of D2(h, k)."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    prod = poly_product(_one_minus_q_to(m - j) for j in range(m - k))
    sign = -1 if m % 2 else 1
    return sign * IntPoly.monomial(m * (m - 1) // 2) * prod


def cap_k_N_from_extensions(extension_values: Sequence[int | IntPoly], k: int) -> int | IntPoly:
    """sum_i (-1)^i C(k,i) * extension_values[i], on ints or on IntPolys.

    extension_values[i] is the number of common neighbours of an
    i-clique.  The summand is indexed by i: the printed form of this
    identity shows C_{m,k} inside the sum, but the inclusion-exclusion
    it abbreviates uses the i-indexed counts, exactly as in the
    commutative case.
    """
    if len(extension_values) < k + 1:
        raise ValueError(f"need extension counts for i = 0..{k}")
    return sum((-1) ** i * comb(k, i) * extension_values[i] for i in range(k + 1))


def radical_scale(value: int, J_order: int) -> int:
    """Rescale a reduced-ring count by the radical order |J|."""
    if J_order < 1:
        raise ValueError("radical order must be >= 1")
    return value * J_order
