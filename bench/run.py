"""ringline benchmark: seeded closed-loop workloads, oracle-checked, timed.

    python3 bench/run.py --workload {build,search-ring,search-random,cli}
                         --seed N --seconds S --trace {0,1}

Run from the root of a ringline checkout (the package is imported from
./src).  One client runs the workload's fixed job list again and again, one
job after another, for S seconds (and a minimum number of passes); every answer is
checked against an oracle after the timed passes.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a separate traced run, whose spans are
written to .bench_work/.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("build", "search-ring", "search-random", "cli")
SETUP_SAMPLES = 8
# Enough passes that every job's best time is a best of many.
MIN_PASSES = 10
# The reference loop's best time on a quiet host (2-vCPU VM, Python 3.11.7).
# End-to-end times are given for a host of this speed: each is scaled by
# REF_QUIET_S over the loop's best time in its run (see bench/README.md).
REF_QUIET_S = 0.0165


def host_ref_s() -> float:
    """A fixed pure-Python loop that calls no ringline code: the host-speed
    reference, about 17 ms on a quiet host."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start



def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def clear_caches() -> None:
    """Empty ringline's process-wide lru_caches."""
    from ringline import fields, formulas, verification

    for cached in (fields._build_field, formulas.qbinom, verification._mrg, verification._oracle):
        cached.cache_clear()


def reset_caches(workload) -> None:
    """Every pass starts from the cache state set-up left: the process-wide
    lru_caches are emptied and only the workload's field tables re-warmed."""
    from ringline import fields

    clear_caches()
    for q in workload.fields:
        fields.gf_of(q)


class Pass:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ref = 0.0  # host_ref_s() right before the pass
        self.wall = 0.0
        self.children_cpu = 0.0
        self.latencies: list[float] = []
        self.cpus: list[float] = []
        self.answers: list[object] = []
        self.errors: list[str | None] = []
        self.totals: dict = {"calls": {}, "self_ns": {}, "counts": {}}
        self.shims: list[dict] = []


def run_pass(workload, jobs, pass_no: int, tracer=None) -> Pass:
    record = Pass(tracer is not None)
    reset_caches(workload)
    record.ref = host_ref_s()
    cli = workload.subprocess_jobs
    if cli:
        workload.trace_dir = WORKDIR / "shim" if tracer is not None else None
        if workload.trace_dir is not None:
            workload.trace_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None and not cli:
        tracer.install()
    raws = []
    kids0 = children_cpu_now()
    t0 = time.perf_counter()
    for index, job in enumerate(jobs):
        job_id = pass_no * 1000 + index + 1
        if cli:
            workload.job_id = job_id
        cpu_start, start = cpu_now(), time.perf_counter()
        try:
            if tracer is not None and not cli:
                with tracer.span("job", job_id):
                    raw = job.run()
            else:
                raw = job.run()
            error = None
        except Exception as exc:  # a failed job is counted, the run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        record.latencies.append(time.perf_counter() - start)
        record.cpus.append(cpu_now() - cpu_start)
        raws.append(raw)
        record.errors.append(error)
    record.wall = time.perf_counter() - t0
    record.children_cpu = children_cpu_now() - kids0
    if tracer is not None and not cli:
        tracer.uninstall()
        record.totals = tracer.take()
    if cli and tracer is not None:
        record.shims = collect_shims(workload.trace_dir, jobs, pass_no)
        record.totals = merge_totals([s["totals"] for s in record.shims])
        record.children_cpu = sum(s["children_cpu_s"] for s in record.shims)
    for job, raw, error in zip(jobs, raws, record.errors):
        record.answers.append(job.answer(raw) if error is None else None)
    return record


def collect_shims(trace_dir: Path, jobs, pass_no: int) -> list[dict]:
    out = []
    for index in range(len(jobs)):
        path = trace_dir / f"job{pass_no * 1000 + index + 1}.json"
        if path.exists():
            out.append(json.loads(path.read_text()))
            path.unlink()
    return out


def merge_totals(parts: list[dict]) -> dict:
    merged: dict = {"calls": {}, "self_ns": {}, "counts": {}}
    for part in parts:
        for kind, values in part.items():
            for name, value in values.items():
                merged[kind][name] = merged[kind].get(name, 0) + value
    return merged


def run_passes(workload, jobs, seconds: float, tracer=None, probe=None) -> list[Pass]:
    """Untraced passes, or (with a tracer) untraced and traced passes in turn.
    `probe`, if given, is called SETUP_SAMPLES times between passes, spread
    evenly over the run, so that its samples meet the host phases the passes
    meet."""
    passes: list[Pass] = []
    probed = 0
    start = time.perf_counter()

    def enough() -> bool:
        if time.perf_counter() - start < seconds or (probe is not None and probed < SETUP_SAMPLES):
            return False
        if tracer is None:
            return len(passes) >= MIN_PASSES
        return any(p.traced for p in passes) and any(not p.traced for p in passes)

    while not enough():
        if probe is not None and probed < SETUP_SAMPLES and time.perf_counter() - start >= probed * seconds / SETUP_SAMPLES:
            probe()
            probed += 1
            continue
        traced = tracer is not None and len(passes) % 2 == 1
        record = run_pass(workload, jobs, len(passes), tracer if traced else None)
        if any(p.shims for p in passes):  # the CLI spans of one traced pass are kept
            for shim in record.shims:
                shim["spans"] = []
        passes.append(record)
    return passes


def check_answers(jobs, passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed); a job fails if it raised or its answer is wrong."""
    attempted = failed = 0
    shown = 0
    for index, job in enumerate(jobs):
        expected = job.expect()
        for p in passes:
            attempted += 1
            error = p.errors[index]
            if error is None and p.answers[index] == expected:
                continue
            failed += 1
            if shown < 5:
                shown += 1
                got = error if error is not None else p.answers[index]
                print(f"FAILED {job.name}: got {got!r}, expected {expected!r}", file=sys.stderr)
    return attempted, failed


def run_final_jobs(workload, passes: list[Pass]) -> tuple[int, int]:
    """Run the workload's once-per-run jobs after the timed passes; check them."""
    final = workload.final_jobs()
    if not final:
        return 0, 0
    return check_answers(final, [run_pass(workload, final, len(passes))])


def import_seconds() -> float:
    """Wall time of a fresh interpreter that starts and imports ringline."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import ringline"], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"import probe failed with exit code {proc.returncode}")
    return elapsed


def setup_seconds(args) -> float:
    """One in-process set-up from cold caches: a new workload of the same seed
    builds its field tables, inputs and (search-*) graphs."""
    clear_caches()
    start = time.perf_counter()
    make_workload(args).setup()
    return time.perf_counter() - start


def best_per_job(passes: list[Pass], field: str) -> list[float]:
    """Each job's fastest time over the passes.  Host interference only ever
    adds time, and on a shared host it comes and goes within seconds, so the
    best of many runs of a short job is what a code change moves."""
    return [min(values) for values in zip(*(getattr(p, field) for p in passes))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(rows: dict, notes: dict) -> None:
    for name, m in rows.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<6s} {note}")


def plain_run(args, workload) -> dict:
    ref_before = host_ref_s()
    jobs = workload.setup()
    imports: list[float] = []
    setups: list[float] = []

    def probe() -> None:
        imports.append(import_seconds())
        setups.append(setup_seconds(args))

    passes = run_passes(workload, jobs, args.seconds, probe=probe)
    rss = peak_rss_mb()
    final_attempted, final_failed = run_final_jobs(workload, passes)
    ref_after = host_ref_s()
    attempted, failed = check_answers(jobs, passes)
    attempted, failed = attempted + final_attempted, failed + final_failed

    refs = [ref_before, ref_after, *(p.ref for p in passes)]
    scale = REF_QUIET_S / min(refs)
    best = best_per_job(passes, "latencies")
    slowest = max(range(len(jobs)), key=best.__getitem__)
    raw = {
        "setup_s": min(imports) + min(setups),
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": best[slowest],
        "cpu_s": sum(best_per_job(passes, "cpus")),
    }
    rows = {name: metric(value * scale, "s") for name, value in raw.items()}
    rows["peak_rss_mb"] = metric(rss, "MB")
    notes = {
        "setup_s": f"best start + import ringline {min(imports):.4g} s + best set-up {min(setups):.4g} s, "
                   f"{len(setups)} samples each (medians {statistics.median(imports):.4g} s, "
                   f"{statistics.median(setups):.4g} s)",
        "wall_s": f"{len(jobs)} jobs at their best of {len(passes)} passes "
                  f"(median pass {statistics.median(p.wall for p in passes):.4g} s)",
        "job_p50_s": f"median over the {len(jobs)} jobs of each job's best of {len(passes)} passes",
        "job_tail_s": f"slowest job's best of {len(passes)} passes: {jobs[slowest].name}",
        "cpu_s": "process plus children, jobs at their best",
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.4g} s; " + notes[name]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  jobs/pass {len(jobs)}")
    for index, job in enumerate(jobs):
        print(f"  job {best[index]:10.4f} s best, {statistics.median(p.latencies[index] for p in passes):10.4f} s median  {job.name}")
    print_table(rows, notes)
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} {'ratio':<6s} {failed} of {attempted} jobs failed")
    print(f"  {'host.ref_s':34s} {(ref_before + ref_after) / 2:>16.6g} {'s':<6s} "
          f"before {ref_before:.4f}, after {ref_after:.4f} (diagnostic)")
    print(f"  {'host scale':34s} {scale:>16.6g} {'ratio':<6s} "
          f"{REF_QUIET_S} s / best of {len(refs)} reference loops ({min(refs):.4f} s); times above are raw x scale")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": rows}


def median_of(passes: list[Pass], kind: str, name: str) -> float:
    return statistics.median(p.totals[kind].get(name, 0) for p in passes)


def traced_run(args, workload) -> dict:
    from tracing import LAYER_SPANS, SETUP_JOB, Tracer

    ref_before = host_ref_s()
    tracer = Tracer()
    tracer.install()
    with tracer.span("setup", SETUP_JOB):
        jobs = workload.setup()
    tracer.uninstall()
    setup = tracer.take()
    passes = run_passes(workload, jobs, args.seconds, tracer)
    final_attempted, final_failed = run_final_jobs(workload, passes)
    ref_after = host_ref_s()
    attempted, failed = check_answers(jobs, passes)
    attempted, failed = attempted + final_attempted, failed + final_failed
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]

    def layer(kind: str, name: str) -> float:
        return setup[kind].get(name, 0) + median_of(traced, kind, name)

    rows: dict = {"fields.gf_build_s": metric(layer("self_ns", "fields.gf_build") / 1e9, "s")}
    for op in ("mat_det", "rref", "mat_rank", "matrix_init"):
        rows[f"linalg.{op}.calls"] = metric(layer("calls", f"linalg.{op}"), "count")
        rows[f"linalg.{op}.self_s"] = metric(layer("self_ns", f"linalg.{op}") / 1e9, "s")
    for name in ("linalg.enumerate_gl", "rings.matrix_ring_graph", "rings.unit_difference_graph",
                 "rings.zn_projective_line", "rings.spec_graph", "rings.matrix_ring_points"):
        rows[f"{name}.self_s"] = metric(layer("self_ns", name) / 1e9, "s")
    for name in ("rings.vertices", "rings.edges", "rings.pairs_tested"):
        rows[name] = metric(layer("counts", name), "count")
    rows["graphs.graph_init.calls"] = metric(layer("calls", "graphs.graph_init"), "count")
    for name in ("graph_init", "tensor_product", "blowup", "count_cliques", "extension_profile", "max_clique_order"):
        rows[f"graphs.{name}.self_s"] = metric(layer("self_ns", f"graphs.{name}") / 1e9, "s")
    nodes = layer("counts", "graphs.count_cliques.nodes")
    cliques = layer("counts", "graphs.count_cliques.cliques")
    census_s = rows["graphs.count_cliques.self_s"]["value"]
    rows["graphs.count_cliques.nodes"] = metric(nodes, "count")
    rows["graphs.nodes_per_s"] = metric(nodes / census_s if census_s else 0.0, "1/s")
    rows["graphs.cliques_per_node"] = metric(cliques / nodes if nodes else 0.0, "ratio")
    rows["graphs.children_cpu_s"] = metric(statistics.median(p.children_cpu for p in traced), "s")

    criteria = getattr(workload, "criterion_seconds", {})
    for number in range(1, 14):
        rows[f"verification.criterion_{number:02d}_s"] = metric(min(criteria.get(number, [0.0])), "s")
    imports = [s["import_s"] for p in traced for s in p.shims] or [0.0]
    rows["cli.import_s"] = metric(statistics.median(imports), "s")
    plain_best = best_per_job(plain, "latencies")
    for kind in ("verify", "census", "build", "tables"):
        values = [t for job, t in zip(jobs, plain_best) if job.kind == kind]
        rows[f"cli.{kind}_s"] = metric(statistics.median(values) if workload.subprocess_jobs and values else 0.0, "s")

    rows["trace.overhead_ratio"] = metric(sum(best_per_job(traced, "latencies")) / sum(plain_best), "ratio")
    coverage = [sum(p.totals["self_ns"].get(n, 0) for n in LAYER_SPANS) / 1e9 / p.wall for p in traced]
    rows["trace.coverage"] = metric(statistics.median(coverage), "ratio")
    rows["host.ref_s"] = metric((ref_before + ref_after) / 2, "s")

    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "cli_jobs": [s for p in traced for s in p.shims]})
    print(f"workload {args.workload}  seed {args.seed}  traced passes {len(traced)}  "
          f"untraced passes {len(plain)}  jobs/pass {len(jobs)}")
    print_table(rows, {})
    print(f"  spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} in-process, "
          f"{tracer.dropped} dropped)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": rows}


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, WORKDIR / f"{args.workload}-seed{args.seed}", args.tiny)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ringline" / "__init__.py").is_file():
        print(f"error: no ringline sources under {src}; run from the root of a ringline checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ringline.verification  # noqa: F401  (its caches are reset per pass)
    workload = make_workload(args)
    result = traced_run(args, workload) if args.trace else plain_run(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
