"""ringline: exact clique combinatorics of distant graphs of projective
lines over finite rings.

The package constructs the graphs (commutative oracle lines, matrix-ring
subspace lines, unit-difference graphs), runs an exact bitset clique
census with extension profiling, evaluates the closed-form counting
polynomials over arbitrary-precision integers, and machine-checks the
partition-coefficient and divisibility identities against independent
brute-force oracles.

`import ringline` loads no submodule: each name below, and each
submodule such as `ringline.graphs`, is imported on first use (PEP 562).
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "cli": "",
    "config": "",
    "errors": "BoundExceeded BudgetExceeded FixtureMismatch",
    "fields": "GF find_irreducible find_primitive gf_build gf_of",
    "fixtures": "verify_appendix_B verify_appendix_C",
    "formulas": (
        "c_extension_poly cap1N_matrix cap1N_product cap2N_matrix cap2N_product cap_k_N_from_extensions"
        " cap_n_N_comm comm_clique_count comm_clique_count_vertex_sets comm_extension_count comm_max_clique"
        " general_max_clique incexc_Wprime matrix_codegree matrix_degree matrix_point_count qbinom radical_scale"
    ),
    "graphs": (
        "CliqueCensus Graph blowup complement count_cliques disjoint_union extension_count extension_profile"
        " find_clique is_clique is_inextensible max_clique_order neighborhood_intersection_count"
        " tensor_product to_dot verify_isomorphism"
    ),
    "identities": "capN_divisibility_check lacunary_identity_check lacunary_sum",
    "linalg": (
        "MatrixGF companion_matrix enumerate_gl gl_order identity mat_det mat_mul mat_rank mat_sub"
        " matrix matrix_label rref"
    ),
    "partitions": (
        "TwoDistinctPartition coeffs_theorem_check dist2p_bijection distcoeff_check enumerate_D2"
        " enumerate_distinct_partitions enumerate_partitions oeis_prefix parity_count qseries_product"
    ),
    "polynomials": "IntPoly",
    "rings": (
        "Local MatrixRing RingSpec SubspacePoint f1_graph local_graph matrix_ring_graph matrix_ring_points"
        " parse_ring_spec point_from_pair points_distant spec_graph spread_clique unit_difference_graph"
        " zn_crt_map zn_local_decomposition zn_projective_line"
    ),
    "tables": "",
    "verification": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
