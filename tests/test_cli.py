"""Command-line surface: outputs are frozen strings, orderings stable."""

import json

import pytest

from ringline.cli import main

Z6 = '{"summands": [{"local": {"R": 2, "J": 1}}, {"local": {"R": 3, "J": 1}}], "radical": 1}'
M22 = '{"summands": [{"matrix": {"m": 2, "q": 2}}], "radical": 1}'
M23 = '{"summands": [{"matrix": {"m": 2, "q": 3}}], "radical": 1}'
TRIVIAL = '{"summands": [], "radical": 1}'

TABLES_TEXT = """point counts [2m,m]_q
m=0: 1
m=1: q+1
m=2: q^4+q^3+2q^2+q+1
m=3: q^9+q^8+2q^7+3q^6+3q^5+3q^4+3q^3+2q^2+q+1

cap1N and cap2N polynomials
m=0: cap1N=0 cap2N=0
m=1: cap1N=1 cap2N=0
m=2: cap1N=q^3+2q^2+q+1 cap2N=q^2+2q+1
m=3: cap1N=q^8+2q^7+3q^6+3q^5+3q^4+3q^3+2q^2+q+1 cap2N=q^7+3q^6+4q^5+4q^4+2q^3+2q^2+q+1

extension-count coefficients
q^m2  q^m2-1  q^m2-2  q^m2-3  q^m2-4
C[m,0]: 1 1 2 3 5
C[m,1]: 1 0 0 0 0
C[m,2]: 1 -1 -1 0 0
C[m,3]: 1 -2 -1 2 1

capkN coefficients
q^m2  q^m2-1  q^m2-2  q^m2-3  q^m2-4
cap1N: 0 1 2 3 5
cap2N: 0 0 1 3 5
cap3N: 0 0 0 1 4
"""


def spec_file(tmp_path, text, name="spec.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_build_text_outputs(tmp_path, capsys):
    assert main(["build", "--spec", spec_file(tmp_path, Z6)]) == 0
    assert capsys.readouterr().out == "12 vertices, 6-regular, 36 edges\n"
    assert main(["build", "--spec", spec_file(tmp_path, M22)]) == 0
    assert capsys.readouterr().out == "35 vertices, 16-regular, 280 edges\n"
    assert main(["build", "--spec", spec_file(tmp_path, TRIVIAL)]) == 0
    assert capsys.readouterr().out == "graph T\n"


def test_build_json_and_dot(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code = main(
        ["build", "--spec", spec_file(tmp_path, Z6), "--format", "json", "--dot", str(dot)]
    )
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info == {"is_T": False, "vertices": 12, "edges": 36, "regular_degree": 6}
    text = dot.read_text()
    assert text.startswith("graph G {") and "--" in text


def test_census_text(tmp_path, capsys):
    assert main(["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "3"]) == 0
    assert capsys.readouterr().out == "clique counts (k=0..3): 1,12,36,24\n"


def test_census_json_counts(tmp_path, capsys):
    code = main(
        ["census", "--spec", spec_file(tmp_path, M22), "--kmax", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == [1, 35, 280, 560, 280, 56, 0]


def test_census_unit_graph_profile_on_fixed_triangle(tmp_path, capsys):
    code = main(
        [
            "census",
            "--spec",
            spec_file(tmp_path, M23),
            "--unit-graph",
            "--kmax",
            "4",
            "--profile",
            "4",
            "--containing",
            "1001,2002,0210",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "extension profile at k=4: 4:8, 8:1" in out


def test_census_csv(tmp_path, capsys):
    code = main(
        ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2", "--format", "csv",
         "--profile", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,cliques"
    assert out[1:4] == ["0,1", "1,12", "2,36"]
    assert "extensions,cliques" in out
    assert "6,12" in out


def test_census_workers_do_not_change_output(tmp_path, capsys):
    argv = ["census", "--spec", spec_file(tmp_path, M22), "--kmax", "5"]
    assert main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_unit_graph_needs_single_matrix_summand(tmp_path, capsys):
    code = main(["census", "--spec", spec_file(tmp_path, Z6), "--unit-graph", "--kmax", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_budget_flag_and_env(tmp_path, capsys, monkeypatch):
    argv = ["census", "--spec", spec_file(tmp_path, M22), "--kmax", "5"]
    assert main(argv + ["--budget", "10"]) == 2
    assert "exceeded" in capsys.readouterr().err
    monkeypatch.setenv("RINGLINE_BUDGET", "10")
    assert main(argv) == 2
    capsys.readouterr()
    # explicit flag wins over the environment
    assert main(argv + ["--budget", "1000000"]) == 0


def test_verify_passing_suites(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 10")
    assert "1/1 criteria passed" in out
    assert main(["verify", "fixtures", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["criterion"] == 11 and payload[0]["ok"]


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_verify_exits_nonzero_when_a_criterion_fails(capsys):
    # the commutative suite carries the two known-defective product-formula
    # criteria; the exit code must reflect the failure
    assert main(["verify", "commutative"]) == 1
    out = capsys.readouterr().out
    assert "FAIL criterion 6" in out and "FAIL criterion 7" in out
    assert "PASS criterion 13" in out


def test_tables_text_is_byte_stable(capsys):
    assert main(["tables"]) == 0
    first = capsys.readouterr().out
    assert first == TABLES_TEXT
    assert main(["tables"]) == 0
    assert capsys.readouterr().out == first


def test_tables_csv_and_json(capsys):
    assert main(["tables", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "table,row,values"
    assert "c_coefficients,C[m,2],1 -1 -1 0 0" in lines
    assert "capkN_coefficients,cap3N,0 0 0 1 4" in lines
    assert "coeff_comparison,m=2 k=3 h=2,poly=-1 series=-1 match=True" in lines
    assert not any("match=False" in line for line in lines)
    assert main(["tables", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["capkN_coefficients"]["cap3N"] == [0, 0, 0, 1, 4]


def test_missing_spec_file_is_a_clean_error(capsys):
    assert main(["build", "--spec", "/nonexistent/spec.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--workers", "-4"], None, "worker_count must be positive"),
        (["--budget", "0"], None, "census_node_budget must be positive"),
        (["--bound", "-5"], None, "vertex_bound must be positive"),
        ([], "abc", "RINGLINE_BUDGET must be a positive integer"),
        ([], "0", "RINGLINE_BUDGET must be a positive integer"),
    ],
    ids=["workers", "budget", "bound", "env-text", "env-zero"],
)
def test_bad_settings_are_clean_errors(tmp_path, capsys, monkeypatch, flags, env, message):
    if env is not None:
        monkeypatch.setenv("RINGLINE_BUDGET", env)
    assert main(["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"summands": [{"local": {"R": 4}}]}', "needs an integer 'J'"),
        ('{"summands": "xx"}', "'summands' must be a list"),
        ('{"summands": [{"matrix": {"m": 2}}]}', "needs an integer 'q'"),
        ('[1, 2]', "must be a JSON object"),
    ],
    ids=["missing-key", "summands-string", "missing-q", "not-an-object"],
)
def test_malformed_spec_is_a_clean_error(tmp_path, capsys, spec, message):
    assert main(["build", "--spec", spec_file(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err


def test_unknown_containing_label_is_a_clean_error(tmp_path, capsys):
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2", "--profile", "2"]
    assert main(argv + ["--containing", "nope"]) == 2
    assert capsys.readouterr().err == "error: no vertex labelled 'nope'\n"


def test_kmax_zero_charges_no_budget(tmp_path, capsys):
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "0", "--budget", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "clique counts (k=0..0): 1\n"


def test_spec_warning_is_one_plain_stderr_line(tmp_path, capsys):
    spec = '{"summands":[{"local":{"R":4,"J":2}}],"radical":2}'
    assert main(["build", "--spec", spec_file(tmp_path, spec)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "12 vertices, 8-regular, 48 edges\n"
    assert captured.err == (
        "warning: spec mixes a global radical multiplier with local radicals; "
        "only one is normally needed\n"
    )
