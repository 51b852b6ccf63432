"""Span tracer that wraps ringline's public functions from outside the package.

`Tracer.install()` replaces each traced function at every name its callers
look up (for example both `ringline.linalg.mat_det` and `ringline.rings.mat_det`),
and the two hot constructors `MatrixGF.__post_init__` and `Graph.__init__` on
their classes.  While installed, every call records a span (name, start, end,
parent, job id) in memory; `write()` puts the spans out as JSON at the end of a
run.  Self time is a span's duration minus the time of its child spans.
`uninstall()` restores the original objects, so untraced passes pay nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

perf_ns = time.perf_counter_ns

# Traced functions: span name -> (defining module, attribute).
FUNCTIONS = {
    "fields.gf_build": ("ringline.fields", "gf_build"),
    "linalg.mat_det": ("ringline.linalg", "mat_det"),
    "linalg.rref": ("ringline.linalg", "rref"),
    "linalg.mat_rank": ("ringline.linalg", "mat_rank"),
    "linalg.enumerate_gl": ("ringline.linalg", "enumerate_gl"),
    "rings.matrix_ring_graph": ("ringline.rings", "matrix_ring_graph"),
    "rings.unit_difference_graph": ("ringline.rings", "unit_difference_graph"),
    "rings.zn_projective_line": ("ringline.rings", "zn_projective_line"),
    "rings.spec_graph": ("ringline.rings", "spec_graph"),
    "rings.matrix_ring_points": ("ringline.rings", "matrix_ring_points"),
    "graphs.tensor_product": ("ringline.graphs", "tensor_product"),
    "graphs.blowup": ("ringline.graphs", "blowup"),
    "graphs.count_cliques": ("ringline.graphs", "count_cliques"),
    "graphs.extension_profile": ("ringline.graphs", "extension_profile"),
    "graphs.max_clique_order": ("ringline.graphs", "max_clique_order"),
}

# Traced methods: span name -> (defining module, class, method).
METHODS = {
    "linalg.matrix_init": ("ringline.linalg", "MatrixGF", "__post_init__"),
    "graphs.graph_init": ("ringline.graphs", "Graph", "__init__"),
}

LAYER_SPANS = tuple(FUNCTIONS) + tuple(METHODS)

# Constructors whose returned graphs are counted in rings.vertices / rings.edges
# (only when not called by another of them) and whose direct mat_det calls are
# the pairwise adjacency tests counted in rings.pairs_tested.
RING_CONSTRUCTORS = frozenset(
    {"rings.matrix_ring_graph", "rings.unit_difference_graph", "rings.zn_projective_line", "rings.spec_graph"}
)
PAIR_TESTERS = frozenset({"rings.matrix_ring_graph", "rings.unit_difference_graph"})

SETUP_JOB = 0
# At most this many spans of each name are kept per tracer, so the hot leaf
# calls of set-up cannot crowd the search spans out; the totals count all.
SPANS_PER_NAME = 10_000


class Tracer:
    """Spans and per-name totals of the wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._kept: Counter[int] = Counter()
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0
        self.job = SETUP_JOB
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # frames: [name, child_ns, span_id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: int, end: int) -> list | None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if self._kept[name_id] < SPANS_PER_NAME:
            self._kept[name_id] += 1
            self.spans.append(
                (frame[2], name_id, start, end, parent[2] if parent is not None else -1, self.job)
            )
        else:
            self.dropped += 1
        return parent

    @contextmanager
    def span(self, name: str, job: int):
        """A harness-level span (a job or the set-up); its calls carry `job`."""
        self.job = job
        frame = self._enter(name)
        start = perf_ns()
        try:
            yield
        finally:
            self._exit(frame, start, perf_ns())

    def _observe(self, name: str, result, parent: list | None) -> None:
        if name == "graphs.count_cliques":
            self.counts["graphs.count_cliques.nodes"] += result.nodes
            self.counts["graphs.count_cliques.cliques"] += sum(result.as_list()[1:])
        elif name in RING_CONSTRUCTORS and (parent is None or parent[0] not in RING_CONSTRUCTORS):
            self.counts["rings.vertices"] += result.n
            self.counts["rings.edges"] += result.edge_count()
        elif name == "linalg.mat_det" and parent is not None and parent[0] in PAIR_TESTERS:
            self.counts["rings.pairs_tested"] += 1

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, perf_ns())
                raise
            parent = tracer._exit(frame, start, perf_ns())
            tracer._observe(name, result, parent)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each ringline name bound to it."""
        modules = [
            m for n, m in list(sys.modules.items()) if m is not None and (n == "ringline" or n.startswith("ringline."))
        ]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))
        for name, (modname, clsname, meth) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            original = vars(cls)[meth]
            setattr(cls, meth, self._wrap(name, original))
            self._patches.append((cls, meth, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def take(self) -> dict:
        """Per-name totals since the last take(), then reset them."""
        out = {"calls": dict(self.calls), "self_ns": dict(self.self_ns), "counts": dict(self.counts)}
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()
        return out

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "job"],
            "names": self.names,
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def write(self, path, extra: dict | None = None) -> None:
        payload = self.dump()
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))

