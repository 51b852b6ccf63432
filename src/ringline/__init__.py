"""ringline: exact clique combinatorics of distant graphs of projective
lines over finite rings.

The package constructs the graphs (commutative oracle lines, matrix-ring
subspace lines, unit-difference graphs), runs an exact bitset clique
census with extension profiling, evaluates the closed-form counting
polynomials over arbitrary-precision integers, and machine-checks the
partition-coefficient and divisibility identities against independent
brute-force oracles.
"""

from .errors import BoundExceeded, BudgetExceeded, FixtureMismatch
from .fields import (
    GF,
    find_irreducible,
    find_primitive,
    gf_build,
    gf_of,
)
from .graphs import (
    CliqueCensus,
    Graph,
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
from .linalg import (
    MatrixGF,
    char_poly,
    companion_matrix,
    enumerate_gl,
    gl_order,
    identity,
    mat_det,
    mat_mul,
    mat_rank,
    mat_sub,
    matrix,
    matrix_label,
    rref,
)
from .polynomials import IntPoly
from .formulas import (
    c_extension_poly,
    cap1N_matrix,
    cap1N_product,
    cap2N_matrix,
    cap2N_product,
    cap_k_N_from_extensions,
    cap_n_N_comm,
    comm_clique_count,
    comm_clique_count_vertex_sets,
    comm_extension_count,
    comm_max_clique,
    general_max_clique,
    incexc_Wprime,
    matrix_codegree,
    matrix_degree,
    matrix_point_count,
    qbinom,
    radical_scale,
)
from .identities import capN_divisibility_check, lacunary_identity_check, lacunary_sum
from .partitions import (
    TwoDistinctPartition,
    coeffs_theorem_check,
    dist2p_bijection,
    distcoeff_check,
    enumerate_D2,
    enumerate_distinct_partitions,
    enumerate_partitions,
    oeis_prefix,
    parity_count,
    qseries_product,
)
from .rings import (
    Local,
    MatrixRing,
    RingSpec,
    SubspacePoint,
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
from .fixtures import verify_appendix_B, verify_appendix_C

__version__ = "0.1.0"
