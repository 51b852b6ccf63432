"""Command-line interface: build graphs, run censuses, verify, print tables.

Subcommands:
  build   construct the distant graph of a ring-spec file, summarize it
  census  exact clique counts and extension profiles
  verify  run an acceptance suite; nonzero exit on any failure
  tables  the headline polynomial and coefficient tables

main resolves each setting once: the census node budget is --budget,
else the RINGLINE_BUDGET environment variable, else the default; the
worker count --workers, else the CPUs available; the vertex bound
--bound, else VERTEX_BOUND.  All output orderings are fixed, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .config import SUITES, VERTEX_BOUND, _default_workers, budget_from_env
from .errors import BudgetExceeded
from .graphs import Graph, count_cliques, extension_profile, to_dot
from .rings import MatrixRing, RingSpec, parse_ring_spec, spec_graph, unit_difference_graph


def _load_spec(path: str) -> RingSpec:
    # spec warnings become plain `warning:` lines instead of Python's
    # source-quoting format
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = parse_ring_spec(Path(path))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return spec


def _build_graph(args: argparse.Namespace) -> Graph:
    spec = _load_spec(args.spec)
    if not args.unit_graph:
        return spec_graph(spec, args.bound)
    if (
        len(spec.summands) != 1
        or not isinstance(spec.summands[0], MatrixRing)
        or spec.summands[0].m < 1
        or spec.radical_multiplier != 1
    ):
        raise ValueError("--unit-graph needs a spec with exactly one matrix summand (m >= 1)")
    s = spec.summands[0]
    return unit_difference_graph(s.m, s.q, args.bound)


def _summary(g: Graph) -> dict:
    if g.is_T:
        return {"is_T": True, "vertices": 1, "edges": 0, "regular_degree": None}
    return {
        "is_T": False,
        "vertices": g.n,
        "edges": g.edge_count(),
        "regular_degree": g.regular_degree(),
    }


def cmd_build(args: argparse.Namespace) -> int:
    g = _build_graph(args)
    if args.dot:
        Path(args.dot).write_text(to_dot(g))
    info = _summary(g)
    if args.format == "json":
        print(json.dumps(info, sort_keys=True))
    elif info["is_T"]:
        print("graph T")
    else:  # every graph the CLI builds besides T is regular
        print(f"{info['vertices']} vertices, {info['regular_degree']}-regular, {info['edges']} edges")
    return 0


def _vertices(g: Graph, labels: str) -> list[int]:
    # every label of a graph the CLI builds has the same number c of commas,
    # so each c + 1 consecutive comma-separated pieces make one label
    pieces = labels.split(",")
    width = g.labels[0].count(",") + 1 if g.labels else 1
    if len(pieces) % width:
        raise ValueError(f"--containing {labels!r} does not split into labels of {width} parts")
    return [g.index_of(",".join(pieces[i : i + width])) for i in range(0, len(pieces), width)]


def cmd_census(args: argparse.Namespace) -> int:
    if args.containing is not None and args.profile is None:
        raise ValueError("--containing needs --profile")
    for flag, k in (("--kmax", args.kmax), ("--profile", args.profile)):
        # a cap on k: the census output lists k + 1 counts, whatever the graph
        if k is not None and k > args.bound:
            raise ValueError(f"{flag} {k} exceeds the vertex bound {args.bound}")
    g = _build_graph(args)
    census = count_cliques(g, args.kmax, node_budget=args.budget, workers=args.workers)
    profile = None
    if args.profile is not None:
        containing = _vertices(g, args.containing) if args.containing else []
        profile = extension_profile(
            g, args.profile, containing=containing, node_budget=args.budget, workers=args.workers
        )
    counts = census.as_list()
    if args.format == "json":
        payload: dict = {"counts": counts}
        if profile is not None:
            payload["profile"] = {str(k): v for k, v in profile.items()}
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print("k,cliques")
        for k, count in enumerate(counts):
            print(f"{k},{count}")
        if profile is not None:
            print("extensions,cliques")
            for ext, cnt in profile.items():
                print(f"{ext},{cnt}")
    else:
        joined = ",".join(map(str, counts))
        print(f"clique counts (k=0..{args.kmax}): {joined}")
        if profile is not None:
            body = ", ".join(f"{ext}:{cnt}" for ext, cnt in profile.items())
            print(f"extension profile at k={args.profile}: {body}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_suite  # on demand, like tables: build and census never load it

    results = run_suite(args.suite)
    if args.format == "json":
        rows = [
            {"criterion": r.number, "name": r.name, "ok": r.ok, "detail": r.detail, "seconds": round(r.elapsed, 3)}
            for r in results
        ]
        print(json.dumps(rows, indent=2))
    else:
        for r in results:
            print(r.line())
        passed = sum(r.ok for r in results)
        print(f"{passed}/{len(results)} criteria passed")
    return 0 if all(r.ok for r in results) else 1


def cmd_tables(args: argparse.Namespace) -> int:
    from .tables import all_tables_csv, all_tables_text, c_coefficient_rows, capkN_coefficient_rows

    if args.format == "csv":
        sys.stdout.write(all_tables_csv())
    elif args.format == "json":
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

    def common(p: argparse.ArgumentParser, spec: bool, formats: tuple[str, ...]) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="ring-spec JSON file")
            p.add_argument("--unit-graph", action="store_true",
                           help="use the unit-difference graph of a matrix summand")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--budget", type=int, help="census node budget")
        p.add_argument("--workers", type=int, default=_default_workers(), help="census worker count")
        p.add_argument("--bound", type=int, default=VERTEX_BOUND, help="vertex bound")

    p_build = sub.add_parser("build", help="construct a distant graph and summarize it")
    common(p_build, spec=True, formats=("text", "json"))
    p_build.add_argument("--dot", help="write DOT to this file")
    p_build.set_defaults(func=cmd_build)

    p_census = sub.add_parser("census", help="exact clique counts")
    common(p_census, spec=True, formats=("text", "json", "csv"))
    p_census.add_argument("--kmax", type=int, required=True)
    p_census.add_argument("--profile", type=int, default=None,
                          help="also report the extension histogram at this clique size")
    p_census.add_argument("--containing", default=None,
                          help="comma-separated vertex labels; profile only cliques through them")
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    common(p_verify, spec=False, formats=("text", "json"))
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="print the counting tables")
    common(p_tables, spec=False, formats=("text", "json", "csv"))
    p_tables.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.budget is None:
            args.budget = budget_from_env()
        settings = {"vertex_bound": args.bound, "census_node_budget": args.budget, "worker_count": args.workers}
        for name, value in settings.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        return args.func(args)
    except (BudgetExceeded, ValueError, OSError) as exc:  # BoundExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
