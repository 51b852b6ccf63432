"""Command-line surface: outputs are frozen strings, orderings stable."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringline.cli import main
from ringline.graphs import extension_profile
from ringline.rings import parse_ring_spec, spec_graph

Z6 = '{"summands": [{"local": {"R": 2, "J": 1}}, {"local": {"R": 3, "J": 1}}], "radical": 1}'
M22 = '{"summands": [{"matrix": {"m": 2, "q": 2}}], "radical": 1}'
M23 = '{"summands": [{"matrix": {"m": 2, "q": 3}}], "radical": 1}'
M24 = '{"summands": [{"matrix": {"m": 2, "q": 4}}], "radical": 1}'
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


def test_profile_past_n_is_empty_without_a_walk(tmp_path, capsys):
    # P(M_2(4)) has 357 points, so no 358-clique: the profile is empty, not a
    # walk that runs out of the default budget, and its text line says so
    argv = ["census", "--spec", spec_file(tmp_path, M24), "--kmax", "2", "--profile", "358"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "clique counts (k=0..2): 1,357,45696\nextension profile at k=358: none\n"
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == '{"counts": [1, 357, 45696], "profile": {}}\n'


def test_profile_through_a_clique_no_k_clique_contains_is_empty(tmp_path, capsys):
    # P(Z/6) is K_3 x K_4, whose largest cliques are triangles: no 4-clique
    # runs through a vertex, in any format
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "3", "--profile", "4", "--containing", "0|0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "clique counts (k=0..3): 1,12,36,24\nextension profile at k=4: none\n"
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == '{"counts": [1, 12, 36, 24], "profile": {}}\n'
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "k,cliques\n0,1\n1,12\n2,36\n3,24\nextensions,cliques\n"


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
    # the census error says how far the walk got, on one line
    capsys.readouterr()
    argv = ["census", "--spec", spec_file(tmp_path, M23), "--kmax", "5", "--budget", "1000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: census exceeded 1000 nodes; largest clique found: 5, anchors finished: 0 of 1, roots finished: 4 of 48\n"
    )


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


@pytest.mark.parametrize("command", [["build", "--spec", "unused.json"], ["verify", "matrix"]])
def test_build_and_verify_offer_only_text_and_json(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv' (choose from 'text', 'json')" in capsys.readouterr().err


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
        ('{"summands": [{"matrix": {"m": true, "q": 2}}]}', "needs an integer 'm'"),
        ('{"summands": [{"local": {"R": 4, "J": 2}}], "radical": true}', "'radical' must be an integer"),
        ('{"sumands": [{"local": {"R": 4, "J": 2}}]}', "got ['sumands']"),
        ('{"summands": [{"local": {"R": 4, "J": 2}}], "radicl": 3}', "got ['radicl', 'summands']"),
        ('{"summands": [{"local": {"R": 4, "J": 2}, "matrix": {"m": 2, "q": 2}}]}', "either 'local' or 'matrix'"),
        ('{"summands": [{"local": {"R": 4, "J": 2, "X": 1}}]}', "takes only the keys 'R' and 'J'"),
    ],
    ids=[
        "missing-key", "summands-string", "missing-q", "not-an-object", "bool-m", "bool-radical",
        "summands-typo", "radical-typo", "local-and-matrix", "extra-local-key",
    ],
)
def test_malformed_spec_is_a_clean_error(tmp_path, capsys, spec, message):
    assert main(["build", "--spec", spec_file(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err


def test_unknown_containing_label_is_a_clean_error(tmp_path, capsys):
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2", "--profile", "2"]
    assert main(argv + ["--containing", "nope"]) == 2
    assert capsys.readouterr().err == "error: no vertex labelled 'nope'\n"


def test_containing_labels_may_hold_commas(tmp_path, capsys):
    # over GF(q), q > 10, label entries are comma-separated: each label of
    # P(M_1(11)) holds one comma, so every two pieces make one label
    spec = '{"summands": [{"matrix": {"m": 1, "q": 11}}]}'
    g = spec_graph(parse_ring_spec(spec))
    assert g.has_edge(g.index_of("0,1"), g.index_of("1,0"))
    argv = ["census", "--spec", spec_file(tmp_path, spec), "--kmax", "2", "--format", "json"]
    for k, labels in [(2, ["0,1"]), (3, ["0,1", "1,0"])]:
        want = extension_profile(g, k, containing=[g.index_of(lbl) for lbl in labels])
        assert main(argv + ["--profile", str(k), "--containing", ",".join(labels)]) == 0
        profile = json.loads(capsys.readouterr().out)["profile"]
        assert profile == {str(c): h for c, h in want.items()}
    assert main(argv + ["--profile", "3", "--containing", "0,1,1"]) == 2
    assert capsys.readouterr().err == "error: --containing '0,1,1' does not split into labels of 2 parts\n"


@pytest.mark.parametrize("flag", ["--kmax", "--profile"])
def test_clique_size_above_the_vertex_bound_is_a_clean_error(tmp_path, capsys, flag):
    # no graph the CLI builds has more than --bound vertices; the per-size
    # lists of a larger k are refused before anything is built
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2", flag, "20001"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} 20001 exceeds the vertex bound 20000\n"
    assert main(argv + ["--bound", "20001"]) == 0


def test_containing_without_profile_is_a_clean_error(tmp_path, capsys):
    argv = ["census", "--spec", spec_file(tmp_path, Z6), "--kmax", "2", "--containing", "0|0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --containing needs --profile\n"
    # with --profile the same labels profile through the vertex, one line more
    assert main(argv + ["--profile", "2"]) == 0
    assert capsys.readouterr().out == "clique counts (k=0..2): 1,12,36\nextension profile at k=2: 2:6\n"


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


@pytest.mark.parametrize(
    "spec",
    [
        '{"summands":[{"local":{"R":2305843009213693951,"J":1}}]}',
        '{"summands":[{"matrix":{"m":2,"q":2305843009213693951}}]}',
    ],
    ids=["local", "matrix"],
)
def test_huge_modulus_fails_fast(tmp_path, spec):
    # 2^61 - 1 is prime: trial division to its square root would run for
    # minutes, so factoring stops at its trial bound
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "ringline.cli", "build", "--spec", spec_file(tmp_path, spec)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "no prime factor up to" in done.stderr
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "spec, flags, message",
    [
        ('{"summands":[{"matrix":{"m":200,"q":2}}]}', [], "P(M_200(2)) has more than 2^40000 points"),
        ('{"summands":[{"matrix":{"m":400,"q":2}}]}', [], "P(M_400(2)) has more than 2^160000 points"),
        ('{"summands":[{"matrix":{"m":3000,"q":2}}]}', ["--unit-graph"], "GL_3000(2) has at least 2^4498500 elements"),
    ],
    ids=["line-200", "line-400", "unit-3000"],
)
def test_oversized_matrix_summand_fails_fast(tmp_path, spec, flags, message):
    # the exact point count [2m, m]_q and |GL_m(q)| take far too long to
    # build at these m (the q-binomial recursion also overflows the stack),
    # so a lower bound refuses them first
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "ringline.cli", "build", "--spec", spec_file(tmp_path, spec)] + flags,
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {message}, bound 20000\n"


def test_fixed_sizes_are_constants_not_parameters():
    # these sizes were defaulted parameters that no caller set
    import inspect

    from ringline import config, graphs, partitions, polynomials, tables

    takes = {
        partitions.oeis_prefix: ["tag"],
        partitions.coefficient_comparison_rows: ["m_max"],
        tables.point_count_rows: [],
        tables.capN_polynomial_rows: [],
        tables.point_count_table_text: [],
        tables.capN_polynomial_table_text: [],
        tables.all_tables_csv: [],
        config.budget_from_env: [],
        graphs.to_dot: ["g"],
        polynomials.IntPoly.monomial: ["degree"],
    }
    for function, names in takes.items():
        assert list(inspect.signature(function).parameters) == names, function.__qualname__


# ---------------------------------------------------------------------------
# the command-line boundary under drawn input
# ---------------------------------------------------------------------------

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.integers(), st.floats(), st.text(max_size=4)
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["summands", "radical", "local", "matrix", "R", "J", "m", "q", ""]), kids, max_size=3),
    max_leaves=8,
)
small_ints = st.integers(-1, 9)
rings = [{"local": {"R": 2, "J": 1}}, {"local": {"R": 3, "J": 1}}, {"local": {"R": 4, "J": 2}},
         {"local": {"R": 9, "J": 3}}, {"matrix": {"m": 1, "q": 5}}, {"matrix": {"m": 2, "q": 2}}]


def summand_shaped(kind: str, keys: str):
    body = st.fixed_dictionaries({key: small_ints | json_trees for key in keys}, optional={"X": json_leaves})
    return st.fixed_dictionaries({kind: body})


valid_specs = st.fixed_dictionaries(
    {"summands": st.lists(st.sampled_from(rings), max_size=2)}, optional={"radical": st.integers(1, 2)}
).map(json.dumps)
# specs near the valid shape (small ints, wrong types, unknown keys), any
# JSON tree, text nested past the parser's recursion limit, raw bytes
wild_specs = st.one_of(
    valid_specs,
    st.fixed_dictionaries(
        {"summands": st.lists(summand_shaped("local", "RJ") | summand_shaped("matrix", "mq") | json_trees, max_size=3)},
        optional={"radical": st.integers(0, 3) | json_trees, "radicl": json_leaves},
    ).map(json.dumps),
    json_trees.map(json.dumps),
    st.sampled_from([200_000, 3000, 1000, 100, 10]).map(lambda depth: '{"summands": [' + "[" * depth + "]" * depth + "]}"),
    st.binary(max_size=12),
)
wild_values = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(["", "x", "1e3", "0x10", "-" + "9" * 30]))
# every argv sets --budget and --bound, and no drawn value raises them past
# the valid ones: the budget stays under the pool probe and the bound at a
# thousand vertices, so that every build and search is small and serial
valid_values = {
    "--budget": st.integers(1, 20_000).map(str),
    "--bound": st.integers(1, 1000).map(str),
    "--kmax": st.integers(0, 5).map(str),
    "--profile": st.integers(0, 4).map(str),
    "--containing": st.sampled_from(["0|0", "0|0,1|1", "0", "x", ""]),
    "--workers": st.integers(1, 3).map(str),
    "--format": st.sampled_from(["text", "json", "csv"]),
}
COMMAND_FLAGS = {
    "build": ["--bound", "--workers", "--format"],
    "census": ["--bound", "--kmax", "--profile", "--containing", "--workers", "--format"],
    "tables": ["--bound", "--workers", "--format"],
}


@st.composite
def cli_inputs(draw):
    """(argv, spec text): a command with --budget, --bound and optional
    flags, and a spec.  Tame: a valid spec and valid values of the flags the command
    takes, --kmax always with census; wild: each flag, value and spec drawn
    from anything."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    wild = draw(st.booleans())
    argv = [command] + (["--spec", "SPEC"] if command != "tables" else [])
    required = ["--budget", "--bound"] + (["--kmax"] if command == "census" and not wild else [])
    for flag in ["--budget"] + (list(valid_values)[1:] if wild else COMMAND_FLAGS[command]):
        if flag in required or draw(st.booleans()):
            argv += [flag, draw(wild_values | valid_values[flag] if wild else valid_values[flag])]
    if command != "tables" and draw(st.sampled_from([False, False, False, True])):
        argv.append("--unit-graph")
    return argv, draw(wild_specs if wild else valid_specs)


@settings(max_examples=200, deadline=None)
@given(drawn=cli_inputs())
@example(drawn=(["build", "--spec", "SPEC", "--budget", "10", "--bound", "10"], "[" * 200_000))
def test_drawn_cli_input_exits_0_or_2_with_one_error_line(tmp_path_factory, drawn):
    argv, spec = drawn
    path = tmp_path_factory.getbasetemp() / "drawn-spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(spec)
    argv = [str(path) if arg == "SPEC" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flags
            code = exc.code
    assert time.perf_counter() - start < 10, argv  # small inputs, bounded work
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (1 if code == 2 else 0), (argv, err.getvalue())
    assert bool(out.getvalue()) == (code == 0)


def test_readme_usage_lists_each_parser_option():
    # the usage block of the README names exactly the options and formats
    # each subcommand's parser takes
    import re

    from ringline.cli import _parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    usage: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("ringline "):
            command = line.split()[1]
        usage[command] = usage.get(command, "") + line
    subparsers = _parser()._subparsers._group_actions[0].choices
    assert set(usage) == set(subparsers)
    for command, text in usage.items():
        actions = [a for a in subparsers[command]._actions if a.option_strings != ["-h", "--help"]]
        options = {o for a in actions for o in a.option_strings}
        assert set(re.findall(r"--[a-z-]+", text)) == options, command
        formats = next(a.choices for a in actions if a.dest == "format")
        assert set(re.search(r"--format ([a-z|]+)", text).group(1).split("|")) == set(formats), command
