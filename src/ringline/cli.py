"""Command-line interface: build graphs, run censuses, verify, print tables.

Subcommands:
  build   construct the distant graph of a ring-spec file, summarize it
  census  exact clique counts and extension profiles
  verify  run an acceptance suite; nonzero exit on any failure
  tables  the headline polynomial and coefficient tables

The census node budget honours the RINGLINE_BUDGET environment variable
unless --budget is given explicitly.  All output orderings are fixed, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .config import RunConfig, budget_from_env
from .errors import BoundExceeded, BudgetExceeded, FixtureMismatch
from .graphs import Graph, count_cliques, extension_profile, to_dot
from .rings import MatrixRing, RingSpec, parse_ring_spec, spec_graph, unit_difference_graph
from .tables import all_tables_csv, all_tables_text, c_coefficient_rows, capkN_coefficient_rows
from .verification import SUITES, run_suite


def _load_spec(path: str) -> RingSpec:
    # spec warnings become plain `warning:` lines instead of Python's
    # source-quoting format
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = parse_ring_spec(Path(path))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return spec


def _build_graph(spec: RingSpec, config: RunConfig, unit_graph: bool) -> Graph:
    if not unit_graph:
        return spec_graph(spec, config.vertex_bound)
    if (
        len(spec.summands) != 1
        or not isinstance(spec.summands[0], MatrixRing)
        or spec.summands[0].m < 1
        or spec.radical_multiplier != 1
    ):
        raise ValueError("--unit-graph needs a spec with exactly one matrix summand (m >= 1)")
    s = spec.summands[0]
    return unit_difference_graph(s.m, s.q, config.vertex_bound)


def _summary(g: Graph) -> dict:
    if g.is_T:
        return {"is_T": True, "vertices": 1, "edges": 0, "regular_degree": None}
    return {
        "is_T": False,
        "vertices": g.n,
        "edges": g.edge_count(),
        "regular_degree": g.regular_degree(),
    }


def cmd_build(args: argparse.Namespace, config: RunConfig) -> int:
    g = _build_graph(_load_spec(args.spec), config, args.unit_graph)
    if args.dot:
        Path(args.dot).write_text(to_dot(g))
    info = _summary(g)
    if config.output_format == "json":
        print(json.dumps(info, sort_keys=True))
    elif info["is_T"]:
        print("graph T")
    elif info["regular_degree"] is not None:
        print(f"{info['vertices']} vertices, {info['regular_degree']}-regular, {info['edges']} edges")
    else:
        print(f"{info['vertices']} vertices, {info['edges']} edges")
    return 0


def cmd_census(args: argparse.Namespace, config: RunConfig) -> int:
    g = _build_graph(_load_spec(args.spec), config, args.unit_graph)
    census = count_cliques(
        g, args.kmax, node_budget=config.census_node_budget, workers=config.worker_count
    )
    profile = None
    if args.profile is not None:
        containing = []
        if args.containing:
            containing = [g.index_of(lbl) for lbl in args.containing.split(",")]
        profile = extension_profile(
            g,
            args.profile,
            containing=containing,
            node_budget=config.census_node_budget,
            workers=config.worker_count,
        )
    if config.output_format == "json":
        payload: dict = {"counts": census.as_list()}
        if profile is not None:
            payload["profile"] = {str(k): v for k, v in profile.items()}
        print(json.dumps(payload, sort_keys=True))
    elif config.output_format == "csv":
        print("k,cliques")
        for k in range(args.kmax + 1):
            print(f"{k},{census.counts[k]}")
        if profile is not None:
            print("extensions,cliques")
            for ext, cnt in profile.items():
                print(f"{ext},{cnt}")
    else:
        joined = ",".join(str(census.counts[k]) for k in range(args.kmax + 1))
        print(f"clique counts (k=0..{args.kmax}): {joined}")
        if profile is not None:
            body = ", ".join(f"{ext}:{cnt}" for ext, cnt in profile.items())
            print(f"extension profile at k={args.profile}: {body}")
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    results = run_suite(args.suite)
    if config.output_format == "json":
        print(
            json.dumps(
                [
                    {
                        "criterion": r.number,
                        "name": r.name,
                        "ok": r.ok,
                        "detail": r.detail,
                        "seconds": round(r.elapsed, 3),
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print(r.line())
        passed = sum(r.ok for r in results)
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if all(r.ok for r in results) else 1


def cmd_tables(args: argparse.Namespace, config: RunConfig) -> int:
    if config.output_format == "csv":
        sys.stdout.write(all_tables_csv())
    elif config.output_format == "json":
        payload = {
            "c_coefficients": {name: coeffs for name, coeffs in c_coefficient_rows()},
            "capkN_coefficients": {name: coeffs for name, coeffs in capkN_coefficient_rows()},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(all_tables_text())
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="Exact clique combinatorics of distant graphs over finite rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, spec: bool) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="ring-spec JSON file")
            p.add_argument("--unit-graph", action="store_true",
                           help="use the unit-difference graph of a matrix summand")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--budget", type=int, default=None, help="census node budget")
        p.add_argument("--workers", type=int, default=None, help="census worker count")
        p.add_argument("--bound", type=int, default=None, help="vertex bound")

    p_build = sub.add_parser("build", help="construct a distant graph and summarize it")
    common(p_build, spec=True)
    p_build.add_argument("--dot", help="write DOT to this file")
    p_build.set_defaults(func=cmd_build)

    p_census = sub.add_parser("census", help="exact clique counts")
    common(p_census, spec=True)
    p_census.add_argument("--kmax", type=int, required=True)
    p_census.add_argument("--profile", type=int, default=None,
                          help="also report the extension histogram at this clique size")
    p_census.add_argument("--containing", default=None,
                          help="comma-separated vertex labels; profile only cliques through them")
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    common(p_verify, spec=False)
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="print the counting tables")
    common(p_tables, spec=False)
    p_tables.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        given = {"vertex_bound": args.bound, "worker_count": args.workers}
        config = RunConfig(
            output_format=args.format,
            census_node_budget=budget_from_env() if args.budget is None else args.budget,
            **{name: value for name, value in given.items() if value is not None},
        )
        return args.func(args, config)
    except (BoundExceeded, BudgetExceeded, FixtureMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
