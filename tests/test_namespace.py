"""The lazy `ringline` namespace, and which submodules each CLI command loads.

`import ringline` imports no submodule; a name or submodule is imported on
first use.  The start-up checks run in fresh interpreters, since this test
process has long since imported everything.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringline
from ringline import cli, config, verification

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package exported when its __init__ imported all submodules
EXPORTED = """
    BoundExceeded BudgetExceeded FixtureMismatch GF find_irreducible find_primitive gf_build gf_of
    CliqueCensus Graph blowup complement count_cliques disjoint_union extension_count extension_profile
    find_clique is_clique is_inextensible max_clique_order neighborhood_intersection_count tensor_product
    to_dot verify_isomorphism MatrixGF companion_matrix enumerate_gl gl_order identity mat_det mat_mul
    mat_rank mat_sub matrix matrix_label rref IntPoly c_extension_poly cap1N_matrix cap1N_product
    cap2N_matrix cap2N_product cap_k_N_from_extensions cap_n_N_comm comm_clique_count
    comm_clique_count_vertex_sets comm_extension_count comm_max_clique general_max_clique incexc_Wprime
    matrix_codegree matrix_degree matrix_point_count qbinom radical_scale capN_divisibility_check
    lacunary_identity_check lacunary_sum TwoDistinctPartition coeffs_theorem_check dist2p_bijection
    distcoeff_check enumerate_D2 enumerate_distinct_partitions enumerate_partitions oeis_prefix
    parity_count qseries_product Local MatrixRing RingSpec SubspacePoint f1_graph local_graph
    matrix_ring_graph matrix_ring_points parse_ring_spec point_from_pair points_distant spec_graph
    spread_clique unit_difference_graph zn_crt_map zn_local_decomposition zn_projective_line
    verify_appendix_B verify_appendix_C
""".split()


def test_every_exported_name_is_its_defining_modules_object():
    assert sorted(ringline.__all__) == sorted(EXPORTED) and len(EXPORTED) == 87
    for name in EXPORTED:
        obj = getattr(ringline, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    assert ringline.__version__ == "0.1.0"
    assert set(EXPORTED) <= set(dir(ringline))


def test_star_import_binds_every_exported_name():
    scope: dict = {}
    exec("from ringline import *", scope)
    for name in EXPORTED:
        assert scope[name] is getattr(ringline, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ringline.no_such_name
    assert not hasattr(ringline, "SUITES")


def test_verify_parser_offers_the_suites_table():
    assert verification.SUITES is config.SUITES
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == sorted(verification.SUITES)


def loaded_after(tmp_path, code: str, prefix: str = "ringline.") -> set[str]:
    """The modules under prefix, without it, that a fresh interpreter holds
    after running code."""
    probe = code + f"\nimport sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    done = subprocess.run(
        [sys.executable, "-c", "import json\n" + probe],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {m.removeprefix(prefix) for m in json.loads(done.stdout.splitlines()[-1])}


def test_bare_import_loads_no_submodule_until_first_use(tmp_path):
    assert loaded_after(tmp_path, "import ringline") == set()
    assert "graphs" in loaded_after(tmp_path, "import ringline; ringline.graphs.Graph")
    assert "fixtures" in loaded_after(tmp_path, "import ringline; ringline.fixtures.verify_appendix_B")


VERIFY_SIDE = {"verification", "tables", "partitions", "formulas", "identities", "fixtures"}
TRACED = {"fields", "linalg", "rings", "graphs"}  # bench/tracing.py wraps them right after `import ringline.cli`


@pytest.mark.parametrize(
    "argv", [["build", "--spec", "s.json"], ["census", "--spec", "s.json", "--kmax", "3", "--workers", "1"]]
)
def test_build_and_census_load_only_the_graph_layers(tmp_path, argv):
    (tmp_path / "s.json").write_text('{"summands": [{"matrix": {"m": 2, "q": 2}}]}')
    loaded = loaded_after(tmp_path, f"from ringline.cli import main; assert main({argv!r}) == 0")
    assert TRACED <= loaded and not loaded & VERIFY_SIDE, loaded


def test_tables_loads_no_verification(tmp_path):
    loaded = loaded_after(tmp_path, "from ringline.cli import main; assert main(['tables']) == 0")
    assert {"tables", "formulas", "partitions"} | TRACED <= loaded
    assert not loaded & {"verification", "fixtures", "identities"}, loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--spec", "s.json"],
        ["census", "--spec", "s.json", "--kmax", "3", "--workers", "2"],
        ["verify", "matrix"],
        ["tables"],
    ],
)
def test_commands_load_neither_dataclasses_nor_a_process_pool(tmp_path, argv):
    # a small search stays under graphs._POOL_PROBE and never loads the pool;
    # what the interpreter loads on its own start-up does not count
    (tmp_path / "s.json").write_text('{"summands": [{"matrix": {"m": 2, "q": 2}}]}')
    run = loaded_after(tmp_path, f"from ringline.cli import main; assert main({argv!r}) == 0", prefix="")
    loaded = run - loaded_after(tmp_path, "pass", prefix="")
    assert "ringline.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "concurrent.futures", "multiprocessing"}, loaded
