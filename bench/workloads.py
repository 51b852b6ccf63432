"""The four workloads: seeded inputs, the fixed job list of one pass, and the
oracle of every job.

Every job passes an explicit node budget and vertex bound (and the CLI an
explicit worker count), so neither RINGLINE_BUDGET nor the core count of the
host changes what is measured.  Seeded choices are made among inputs whose
build or search cost is alike, so that two seeds give different inputs but
about the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ringline import fields, graphs, rings

import oracles

BUDGET = 50_000_000
BOUND = 20_000
CLI_WORKERS = min(2, len(os.sched_getaffinity(0)))
SHIM = Path(__file__).with_name("cli_shim.py")


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], object]  # the timed call
    answer: Callable[[object], object]  # untimed: raw result -> comparable answer
    expect: Callable[[], object]  # the oracle, evaluated once after the timed passes


def local(R: int, J: int) -> dict:
    return {"local": {"R": R, "J": J}}


def mat(m: int, q: int) -> dict:
    return {"matrix": {"m": m, "q": q}}


def _summary(g) -> tuple[int, int | None, int]:
    return (g.n, g.regular_degree(), g.edge_count())


def _regular(vertices: int, degree: int) -> tuple[int, int, int]:
    return (vertices, degree, vertices * degree // 2)


def _prime_power_factors(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def distant_labels(rng: random.Random, q: int, count: int) -> list[str]:
    """Labels of `count` pairwise distant points (I | B) of P(M_2(q)), q prime:
    (I | B) and (I | C) are distant when det(B - C) is a unit mod q."""
    while True:
        mats = [[rng.randrange(q) for _ in range(4)] for _ in range(count)]
        if all(
            ((b[0] - c[0]) * (b[3] - c[3]) - (b[1] - c[1]) * (b[2] - c[2])) % q
            for i, b in enumerate(mats)
            for c in mats[i + 1 :]
        ):
            return [f"10{b[0]}{b[1]}01{b[2]}{b[3]}" for b in mats]


class Workload:
    name = ""
    fields: tuple[int, ...] = ()  # field orders whose tables belong to set-up
    subprocess_jobs = False  # jobs run in child processes (traced through cli_shim.py)

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.tiny = tiny
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> list[Job]:
        """Field tables, seeded inputs and (search-*) the input graphs."""
        for q in self.fields:
            fields.gf_of(q)
        jobs = self.make_jobs()
        self.rng.shuffle(jobs)
        return jobs

    def make_jobs(self) -> list[Job]:
        raise NotImplementedError

    def final_jobs(self) -> list[Job]:
        """Jobs run once after the timed passes: checked, not timed."""
        return []

    def spec_file(self, name: str, spec: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(spec, sort_keys=True))
        return path

    def shuffled_spec(self, spec: dict) -> dict:
        """The same ring with its summands in seeded order."""
        summands = list(spec["summands"])
        self.rng.shuffle(summands)
        return {**spec, "summands": summands}

    # -- in-process search jobs ------------------------------------------

    def census(self, label, g, kmax, expect) -> Job:
        return Job(
            f"census {label} k<={kmax}",
            "census",
            lambda: graphs.count_cliques(g, kmax, node_budget=BUDGET, workers=1),
            lambda c: c.as_list(),
            expect,
        )

    def profile(self, label, g, k, containing, expect) -> Job:
        through = f" through {len(containing)}" if containing else ""
        return Job(
            f"profile {label} k={k}{through}",
            "profile",
            lambda: graphs.extension_profile(g, k, containing=containing, node_budget=BUDGET, workers=1),
            lambda p: p,
            expect,
        )

    def max_clique(self, label, g, expect) -> Job:
        return Job(
            f"max clique {label}",
            "max_clique",
            lambda: graphs.max_clique_order(g, node_budget=BUDGET),
            lambda w: w,
            expect,
        )


# ---------------------------------------------------------------------------
# build: ring graphs through the rings constructors, no search
# ---------------------------------------------------------------------------


class Build(Workload):
    """Ring graphs of a 130-840 vertex band, every one built once per pass.
    The seed only orders the jobs: which specs are built, and even the order of
    a spec's summands, changes the build cost by up to a third, which would
    show as seed-to-seed noise in job_tail_s rather than as a code change."""

    name = "build"
    fields = (2, 3, 4)
    SPECS = [
        {"summands": [mat(2, 3)]},
        {"summands": [local(2, 1), mat(2, 3)]},
        {"summands": [local(3, 1), mat(2, 3)]},
        {"summands": [mat(2, 3)], "radical": 2},
        {"summands": [local(4, 2), local(3, 1), mat(2, 2)]},
        {"summands": [mat(2, 2), local(7, 1)], "radical": 2},
        {"summands": [mat(2, 2), local(9, 1)], "radical": 2},
    ]
    UNIT_GRAPHS = [(2, 4), (3, 2)]
    ZN = [114, 120, 126, 132]
    TINY = ([{"summands": [local(4, 2), mat(2, 2)]}], [(2, 3)], [30])

    def make_jobs(self) -> list[Job]:
        specs, units, zns = self.TINY if self.tiny else (self.SPECS, self.UNIT_GRAPHS, self.ZN)
        jobs = []
        for i, spec in enumerate(specs):
            jobs.append(self._spec_job(spec, self.spec_file(f"spec{i}", spec)))
        for m, q in units:
            jobs.append(
                Job(
                    f"build GL_{m}({q})",
                    "build",
                    lambda m=m, q=q: rings.unit_difference_graph(m, q, BOUND),
                    _summary,
                    lambda m=m, q=q: _regular(*oracles.unit_graph_vertices_degree(m, q)),
                )
            )
        for n in zns:
            jobs.append(
                Job(
                    f"build P(Z/{n})",
                    "build",
                    lambda n=n: rings.zn_projective_line(n, BOUND),
                    _summary,
                    lambda n=n: _regular(*oracles.zn_vertices_degree(n)),
                )
            )
        return jobs

    def _spec_job(self, spec: dict, path: Path) -> Job:
        return Job(
            f"build {json.dumps(spec, sort_keys=True)}",
            "build",
            lambda: rings.spec_graph(rings.parse_ring_spec(path), BOUND),
            _summary,
            lambda: _regular(*oracles.spec_vertices_degree(spec)),
        )


# ---------------------------------------------------------------------------
# search-ring: vertex-transitive distant graphs, serial search
# ---------------------------------------------------------------------------


class SearchRing(Workload):
    """P(M_2(3)), P(M_2(4)), GL_2(5) and a seeded P(Z/n) with 288 points.

    The seeded `containing` cliques cost the same wherever they fall: GL_2(R)
    is transitive on the points and on the pairwise distant triples of P(R)
    (Blunck & Havlicek 2000), and the unit-difference graph is vertex-transitive.
    """

    name = "search-ring"
    fields = (3, 4, 5)
    # 288-point lines whose searches cost within 8% of each other (among
    # 120..154 the census cost doubles with n).
    ZN = [132, 138]

    def make_jobs(self) -> list[Job]:
        if self.tiny:
            return self._tiny_jobs()
        m23 = self._line(3)
        m24 = self._line(4)
        gl25 = rings.unit_difference_graph(2, 5, BOUND)
        n = self.rng.choice(self.ZN)
        zn = rings.zn_projective_line(n, BOUND)
        kmax = self.rng.randint(3, 6)
        triangle = [m23.index_of(lbl) for lbl in distant_labels(self.rng, 3, 3)]
        rv = self.rng.randrange
        line3_k4 = oracles.frozen("P(M_2(3)) profile k=4 through a triangle")
        unit5_k3 = oracles.frozen("GL_2(5) profile k=3 through a vertex")
        return [
            self.census("P(M_2(3))", m23, 4, lambda: oracles.matrix_line_census(2, 3, 4)),
            self.census("P(M_2(4))", m24, 2, lambda: oracles.matrix_line_census(2, 4, 2)),
            self.census("GL_2(5)", gl25, 2, lambda: oracles.unit_graph_census(2, 5, 2)),
            self.census(f"P(Z/{n})", zn, kmax, lambda: oracles.zn_census(n, kmax)),
            self.profile("P(M_2(3))", m23, 3, [], lambda: oracles.matrix_line_profile(2, 3, 3, 0)),
            self.profile("P(M_2(3))", m23, 4, triangle, lambda: line3_k4),
            self.profile("P(M_2(4))", m24, 2, [], lambda: oracles.matrix_line_profile(2, 4, 2, 0)),
            self.profile("P(M_2(4))", m24, 3, [rv(m24.n)], lambda: oracles.matrix_line_profile(2, 4, 3, 1)),
            self.profile("GL_2(5)", gl25, 3, [rv(gl25.n)], lambda: unit5_k3),
            self.profile(f"P(Z/{n})", zn, 2, [], lambda: oracles.zn_profile(n, 2, 0)),
            self.profile(f"P(Z/{n})", zn, 3, [rv(zn.n)], lambda: oracles.zn_profile(n, 3, 1)),
            self.max_clique("P(M_2(3))", m23, lambda: 3**2 + 1),
            self.max_clique("GL_2(5)", gl25, lambda: 5**2 - 1),
            self.max_clique(f"P(Z/{n})", zn, lambda: oracles.zn_max_clique(n)),
        ]

    def _tiny_jobs(self) -> list[Job]:
        m22 = self._line(2)
        gl23 = rings.unit_difference_graph(2, 3, BOUND)
        zn = rings.zn_projective_line(30, BOUND)
        return [
            self.census("P(M_2(2))", m22, 4, lambda: oracles.matrix_line_census(2, 2, 4)),
            self.profile("P(M_2(2))", m22, 3, [self.rng.randrange(m22.n)], lambda: oracles.matrix_line_profile(2, 2, 3, 1)),
            self.census("GL_2(3)", gl23, 2, lambda: oracles.unit_graph_census(2, 3, 2)),
            self.census("P(Z/30)", zn, 4, lambda: oracles.zn_census(30, 4)),
            self.profile("P(Z/30)", zn, 2, [], lambda: oracles.zn_profile(30, 2, 0)),
            self.max_clique("P(M_2(2))", m22, lambda: 2**2 + 1),
            self.max_clique("GL_2(3)", gl23, lambda: 3**2 - 1),
        ]

    def _line(self, q: int):
        path = self.spec_file(f"m2q{q}", {"summands": [mat(2, q)]})
        return rings.spec_graph(rings.parse_ring_spec(path), BOUND)


# ---------------------------------------------------------------------------
# search-random: seeded G(n, p) from user edge lists
# ---------------------------------------------------------------------------


class SearchRandom(Workload):
    name = "search-random"
    DENSE = (140, 0.5, 6)
    SPARSE = (500, 0.06, 3)
    TINY_DENSE = (30, 0.5, 1)
    TINY_SPARSE = (60, 0.1, 1)

    def _graph(self, n: int, p: float):
        rng = self.rng
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        return edges, graphs.Graph.from_edges(n, edges)

    def make_jobs(self) -> list[Job]:
        dense = self.TINY_DENSE if self.tiny else self.DENSE
        sparse = self.TINY_SPARSE if self.tiny else self.SPARSE
        jobs = []
        for i in range(dense[2]):
            n, p = dense[:2]
            edges, g = self._graph(n, p)
            label = f"G({n},{p})#{i}"
            u, v = self.rng.choice(edges)
            jobs += [
                self.census(label, g, 4, lambda n=n, e=edges: oracles.dense_census(n, e, 4)),
                self.profile(label, g, 2, [], lambda n=n, e=edges: oracles.profile_through(n, e, 2, [])),
                self.profile(label, g, 3, [u, v], lambda n=n, e=edges, f=[u, v]: oracles.profile_through(n, e, 3, f)),
                self.max_clique(label, g, lambda n=n, e=edges: oracles.max_clique(n, e)),
            ]
        for i in range(sparse[2]):
            n, p = sparse[:2]
            edges, g = self._graph(n, p)
            label = f"G({n},{p})#{i}"
            kmax = self.rng.randint(4, 6)
            w = self.rng.randrange(n)
            jobs += [
                self.census(label, g, kmax, lambda n=n, e=edges, k=kmax: oracles.enumerated_census(n, e, k)),
                self.profile(label, g, 3, [], lambda n=n, e=edges: oracles.enumerated_profile(n, e, 3)),
                self.profile(label, g, 2, [w], lambda n=n, e=edges, f=[w]: oracles.profile_through(n, e, 2, f)),
                self.max_clique(label, g, lambda n=n, e=edges: oracles.max_clique(n, e)),
            ]
        return jobs


# ---------------------------------------------------------------------------
# cli: fresh `python -m ringline.cli` processes
# ---------------------------------------------------------------------------


def census_stdout(fmt: str, counts: list[int], profile_k: int, profile: dict[int, int]) -> str:
    """The documented census output, built independently of the CLI."""
    if fmt == "json":
        return json.dumps({"counts": counts, "profile": {str(k): v for k, v in profile.items()}}, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["k,cliques"] + [f"{k},{c}" for k, c in enumerate(counts)]
        lines += ["extensions,cliques"] + [f"{e},{c}" for e, c in profile.items()]
        return "\n".join(lines) + "\n"
    body = ", ".join(f"{e}:{c}" for e, c in profile.items())
    return (
        f"clique counts (k=0..{len(counts) - 1}): {','.join(map(str, counts))}\n"
        f"extension profile at k={profile_k}: {body}\n"
    )


def build_stdout(fmt: str, vertices: int, degree: int) -> str:
    edges = vertices * degree // 2
    if fmt == "json":
        return json.dumps(
            {"edges": edges, "is_T": False, "regular_degree": degree, "vertices": vertices}, sort_keys=True
        ) + "\n"
    return f"{vertices} vertices, {degree}-regular, {edges} edges\n"


class Cli(Workload):
    name = "cli"
    fields = (2, 3)
    subprocess_jobs = True
    ZN = [30, 42, 60, 66, 70, 78]
    BUILD_SPECS = [
        {"summands": [local(4, 2), mat(2, 2)]},
        {"summands": [mat(2, 2), local(5, 1)], "radical": 2},
        {"summands": [local(9, 3), local(8, 4)]},
    ]
    FORMATS = ("text", "json", "csv")

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        super().__init__(seed, workdir, tiny)
        src = str(Path.cwd() / "src")
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        self.trace_dir: Path | None = None  # set by the runner for traced passes
        self.job_id = 0
        self.criterion_seconds: dict[int, list[float]] = {}  # from untraced verify runs

    def command(self, argv: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "ringline.cli", *argv]
        out = self.trace_dir / f"job{self.job_id}.json"
        return [sys.executable, str(SHIM), str(out), str(self.job_id), *argv]

    def cli_job(self, name: str, kind: str, argv: list[str], expect, answer=None) -> Job:
        fixed = ["--budget", str(BUDGET), "--bound", str(BOUND), "--workers", str(CLI_WORKERS)]

        def run():
            return subprocess.run(
                self.command(argv + fixed), env=self.env, capture_output=True, text=True, timeout=150
            )

        return Job(name, kind, run, answer or (lambda p: (p.returncode, p.stdout)), expect)

    def make_jobs(self) -> list[Job]:
        rng = self.rng
        fmt = lambda: rng.choice(self.FORMATS)  # noqa: E731
        suites = ["identities"] if self.tiny else ["matrix", "partitions", "identities", "fixtures"]
        jobs = [self._verify_job(suite) for suite in suites]

        # census of P(M_2(2)) with a profile through a seeded distant pair.
        # Every job but `verify matrix` costs clearly less than it (building
        # P(M_2(3)) alone costs about as much), so that job_tail_s is the same
        # job from run to run rather than whichever of two was luckier.
        line2 = self.spec_file("m2q2", {"summands": [mat(2, 2)]})
        kmax = 2 if self.tiny else 3
        f1 = fmt()
        pair = distant_labels(rng, 2, 2)
        jobs.append(
            self.cli_job(
                f"census P(M_2(2)) k<={kmax} --format {f1}",
                "census",
                ["census", "--spec", str(line2), "--kmax", str(kmax), "--profile", "3",
                 "--containing", ",".join(pair), "--format", f1],
                lambda: (0, census_stdout(f1, oracles.matrix_line_census(2, 2, kmax), 3,
                                          oracles.matrix_line_profile(2, 2, 3, 2))),
            )
        )
        # census of a commutative line given as its local summands
        n = rng.choice(self.ZN)
        spec = self.shuffled_spec({"summands": [local(p**a, p ** (a - 1)) for p, a in _prime_power_factors(n)]})
        comm = self.spec_file("comm", spec)
        kmax2, f2 = rng.randint(3, 5), fmt()
        jobs.append(
            self.cli_job(
                f"census Z/{n} locals k<={kmax2} --format {f2}",
                "census",
                ["census", "--spec", str(comm), "--kmax", str(kmax2), "--profile", "2", "--format", f2],
                lambda: (0, census_stdout(f2, oracles.zn_census(n, kmax2), 2, oracles.zn_profile(n, 2, 0))),
            )
        )
        # census of the GL_2(3) unit-difference graph
        line = self.spec_file("m2q3", {"summands": [mat(2, 3)]})
        f3 = fmt()
        c = oracles.matrix_line_extensions
        jobs.append(
            self.cli_job(
                f"census GL_2(3) k<=2 --format {f3}",
                "census",
                ["census", "--spec", str(line), "--unit-graph", "--kmax", "2", "--profile", "1", "--format", f3],
                lambda: (0, census_stdout(f3, oracles.unit_graph_census(2, 3, 2), 1, {c(2, 3)[3]: c(2, 3)[2]})),
            )
        )
        # builds: seeded specs and one unit-difference graph
        for i, spec in enumerate(rng.sample(self.BUILD_SPECS, 1 if self.tiny else 2)):
            spec = self.shuffled_spec(spec)
            path, f = self.spec_file(f"build{i}", spec), rng.choice(("text", "json"))
            jobs.append(
                self.cli_job(
                    f"build {json.dumps(spec, sort_keys=True)} --format {f}",
                    "build",
                    ["build", "--spec", str(path), "--format", f],
                    lambda spec=spec, f=f: (0, build_stdout(f, *oracles.spec_vertices_degree(spec))),
                )
            )
        q = 2 if self.tiny else 3
        unit, f = self.spec_file(f"unit{q}", {"summands": [mat(2, q)]}), rng.choice(("text", "json"))
        jobs.append(
            self.cli_job(
                f"build GL_2({q}) --format {f}",
                "build",
                ["build", "--spec", str(unit), "--unit-graph", "--format", f],
                lambda: (0, build_stdout(f, *oracles.unit_graph_vertices_degree(2, q))),
            )
        )
        ft = fmt()
        jobs.append(
            self.cli_job(
                f"tables --format {ft}", "tables", ["tables", "--format", ft],
                lambda: (0, oracles.EXPECTED["tables"][ft]),
            )
        )
        return jobs

    def final_jobs(self) -> list[Job]:
        """verify all takes seconds, 2.6 of them in criterion 7, so a timed run
        would hold too few of it to be steady; it runs once, checked, and gives
        criteria 6, 7 and 13 their per-layer times."""
        return [self._verify_job("partitions" if self.tiny else "all")]

    def _verify_job(self, suite: str) -> Job:
        """verify exits 1 by design: accepted only when exactly criteria 6 and 7
        (the paper's product formula, wrong for s >= 2 summands) are red."""
        numbers = oracles.EXPECTED["suites"][suite]
        red = [n for n in numbers if n in (6, 7)]

        def answer(proc):
            try:
                rows = json.loads(proc.stdout)
            except json.JSONDecodeError:
                return (proc.returncode, "unparsable output")
            if self.trace_dir is None:
                for r in rows:
                    self.criterion_seconds.setdefault(r["criterion"], []).append(r["seconds"])
            return (
                proc.returncode,
                sorted(r["criterion"] for r in rows),
                sorted(r["criterion"] for r in rows if not r["ok"]),
            )

        return self.cli_job(
            f"verify {suite} --format json",
            "verify",
            ["verify", suite, "--format", "json"],
            lambda: (1 if red else 0, numbers, red),
            answer,
        )


WORKLOADS = {w.name: w for w in (Build, SearchRing, SearchRandom, Cli)}
