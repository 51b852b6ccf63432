"""Bundled matrix fixtures: loading, checksums, verification."""

import json
import re
from pathlib import Path

import pytest

import ringline.fixtures as fixtures
from ringline.errors import FixtureMismatch
from ringline.fixtures import (
    load_appendix_b,
    load_appendix_c,
    verify_appendix_B,
    verify_appendix_C,
)


def test_fixture_files_load_and_checksum():
    b = load_appendix_b()
    assert b["q"] == 3
    assert len(b["A"]) == 4 and len(b["B"]) == 4 and len(b["C"]) == 1
    c = load_appendix_c()
    assert c["q"] == 5 and len(c["matrices"]) == 20
    assert c["labels"][4] == "1001"


def test_checksum_detects_tampering(tmp_path, monkeypatch):
    src = Path(fixtures.__file__).parent / "appendix_c.json"
    payload = json.loads(src.read_text())
    payload["matrices"][0] = "0113"
    (tmp_path / "appendix_c.json").write_text(json.dumps(payload))
    (tmp_path / "appendix_b.json").write_text(
        (Path(fixtures.__file__).parent / "appendix_b.json").read_text()
    )
    monkeypatch.setattr(fixtures, "_DIR", tmp_path)
    with pytest.raises(FixtureMismatch):
        load_appendix_c()
    load_appendix_b()  # untouched file still loads


@pytest.mark.parametrize(
    "label, size, message",
    [("0112", 3, "matrix digit string '0112' is not 3x3"), ("0113", 2, "matrix '0113' has entries outside GF(3)")],
)
def test_matrix_labels_of_the_wrong_length_or_digits_are_refused(label, size, message):
    with pytest.raises(FixtureMismatch, match=f"^{re.escape(message)}$"):
        fixtures._parse_matrix(label, 3, size)


def test_verify_appendix_B_report():
    report = verify_appendix_B()
    assert report["ok"]
    assert report["class_sizes"] == (4, 4, 1)
    assert report["extensions_of_triangle"] == 9
    assert report["extension_count_via_C"] == 8
    assert report["extension_count_via_A_or_B"] == 4
    assert report["cross_AB_adjacencies"] == 0
    assert report["maximal_clique_sizes"] == [8, 8]


def test_verify_appendix_C_report():
    report = verify_appendix_C()
    assert report["ok"]
    assert report["clique_size"] == 20
    assert report["pairwise_checks"] == 190
    assert report["extension_candidates"] == 0
    assert report["candidates_tested"] == 480
    assert report["max_possible_clique"] == 24
    assert report["clique_size"] < report["max_possible_clique"]


def test_verify_appendix_C_refuses_a_set_that_extends(monkeypatch):
    # every determinant 1: the invertibility checks pass, and then every
    # element of GL_2(5) extends the set
    monkeypatch.setattr(fixtures, "mat_det", lambda m: 1)
    with pytest.raises(FixtureMismatch, match="^480 of 480 candidates extend the set$"):
        verify_appendix_C()


def test_fixture_module_is_independent_of_the_formula_layer():
    source = Path(fixtures.__file__).read_text()
    assert "formulas" not in source
    assert "polynomials" not in source
