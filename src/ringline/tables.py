"""Byte-stable renderings of the headline counting tables."""

from __future__ import annotations

from .formulas import cap1N_matrix, cap2N_matrix, cap_k_N_from_extensions, matrix_point_count
from .partitions import coefficient_comparison_rows, qseries_product

COEFF_COLUMNS = 5  # leading coefficients shown: q^{m^2} .. q^{m^2-4}
M_MAX = 3  # polynomial tables: m = 0..M_MAX
COMPARISON_M_MAX = 5  # coefficient comparison rows: m = 0..COMPARISON_M_MAX


def point_count_rows() -> list[tuple[str, str]]:
    return [(f"m={m}", matrix_point_count(m).render()) for m in range(M_MAX + 1)]


def capN_polynomial_rows() -> list[tuple[str, str, str]]:
    return [
        (f"m={m}", cap1N_matrix(m).render(), cap2N_matrix(m).render())
        for m in range(M_MAX + 1)
    ]


def c_coefficient_rows() -> list[tuple[str, list[int]]]:
    """Leading coefficients of the extension-count polynomials C[m,k],
    valid once m is large enough; generated from the q-series."""
    return [
        (f"C[m,{k}]", qseries_product(k - 1, COEFF_COLUMNS - 1)) for k in range(4)
    ]


def capkN_coefficient_rows() -> list[tuple[str, list[int]]]:
    """Leading coefficients of capkN = sum_i (-1)^i C(k,i) C[m,i]."""
    columns = list(zip(*(qseries_product(k - 1, COEFF_COLUMNS - 1) for k in range(4))))
    return [
        (f"cap{k}N", [cap_k_N_from_extensions(column, k) for column in columns])
        for k in range(1, 4)
    ]


def _coeff_block(title: str, rows: list[tuple[str, list[int]]]) -> str:
    header = "  ".join(["", "q^m2", "q^m2-1", "q^m2-2", "q^m2-3", "q^m2-4"]).strip()
    lines = [title, header]
    for name, coeffs in rows:
        lines.append(f"{name}: " + " ".join(str(c) for c in coeffs))
    return "\n".join(lines)


def c_coefficient_table_text() -> str:
    return _coeff_block("extension-count coefficients", c_coefficient_rows())


def capkN_coefficient_table_text() -> str:
    return _coeff_block("capkN coefficients", capkN_coefficient_rows())


def point_count_table_text() -> str:
    lines = ["point counts [2m,m]_q"]
    lines += [f"{name}: {poly}" for name, poly in point_count_rows()]
    return "\n".join(lines)


def capN_polynomial_table_text() -> str:
    lines = ["cap1N and cap2N polynomials"]
    lines += [f"{name}: cap1N={c1} cap2N={c2}" for name, c1, c2 in capN_polynomial_rows()]
    return "\n".join(lines)


def all_tables_text() -> str:
    return "\n\n".join(
        [
            point_count_table_text(),
            capN_polynomial_table_text(),
            c_coefficient_table_text(),
            capkN_coefficient_table_text(),
        ]
    ) + "\n"


def all_tables_csv() -> str:
    lines = ["table,row,values"]
    for name, poly in point_count_rows():
        lines.append(f"point_count,{name},{poly}")
    for name, c1, c2 in capN_polynomial_rows():
        lines.append(f"capN_poly,{name},{c1}|{c2}")
    for name, coeffs in c_coefficient_rows():
        lines.append("c_coefficients," + name + "," + " ".join(map(str, coeffs)))
    for name, coeffs in capkN_coefficient_rows():
        lines.append("capkN_coefficients," + name + "," + " ".join(map(str, coeffs)))
    for m, k, h, poly_c, series_c, equal in coefficient_comparison_rows(COMPARISON_M_MAX):
        lines.append(
            f"coeff_comparison,m={m} k={k} h={h},poly={poly_c} series={series_c} match={equal}"
        )
    return "\n".join(lines) + "\n"
