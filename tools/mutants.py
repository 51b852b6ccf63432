"""Mutation gate: every mutant below must make Tier-1 fail.

    python tools/mutants.py

Each mutant is (file, old text, new text, name).  For each one, the files
Tier-1 reads (src/, tests/, pyproject.toml, and the demos, README and
frozen benchmark answers that some tests check) are copied to a temporary
directory, the old text is replaced by the new, and
`python -m pytest -q -x -p no:cacheprovider` runs there, two mutants at a
time.  The unmutated copy must pass first.  Exits 1 when a mutant survives,
and also when a mutant's old text does not occur exactly once in its file,
so a refactor of the code a mutant hits must update the list.  Standard
library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY = ("src", "tests", "demos", "bench", "README.md", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
# a run that takes this long is a hang, and a hang fails Tier-1 too
TIMEOUT_S = 900

GRAPHS = "src/ringline/graphs.py"
VERIFICATION = "src/ringline/verification.py"
MUTANTS = [
    # node charges
    (
        GRAPHS,
        "            nodes += 1\n            if nodes > budget:\n                raise BudgetExceeded\n            counts[size + 1]",
        "            if nodes > budget:\n                raise BudgetExceeded\n            counts[size + 1]",
        "inner clique charged no node",
    ),
    (
        GRAPHS,
        "                nodes += 1\n                if nodes > budget:\n                    raise BudgetExceeded\n                counts[1]",
        "                if nodes > budget:\n                    raise BudgetExceeded\n                counts[1]",
        "root charged no node",
    ),
    (GRAPHS, "            nodes += width\n", "            nodes += 1\n", "leaf step charged one node"),
    (GRAPHS, "    spent = len(anchors) if fixed > base else 0\n", "    spent = 0\n", "anchors charged no node"),
    (GRAPHS, "        nodes += len(clique)\n", "        nodes += 1\n", "dive charged one node"),
    # what the walk and the dives count
    (GRAPHS, "    best = max(floor, len(witness))\n", "    best = floor\n", "dive sets no bound"),
    (GRAPHS, "hist[0] += weight * width", "hist[0] += width", "leaf without its anchor's weight"),
    (
        GRAPHS,
        "    cliques, rest = divmod(total, per)\n    if rest:\n",
        "    cliques, rest = divmod(total, per)\n    if False:\n",
        "orbit sum remainder unchecked",
    ),
    # the constructor's checks and the symmetry record
    (
        GRAPHS,
        "    for c0 in range(0, n, _SYMMETRY_BLOCK):\n",
        "    for c0 in range(0, max(1, n - 1 - (n - 1) % _SYMMETRY_BLOCK), _SYMMETRY_BLOCK):\n",
        "transpose check skips its last block",
    ),
    (GRAPHS, "                if row >> v & 1:\n", "                if False:\n", "loops accepted"),
    (GRAPHS, "        is_T = adj == (1,)\n", "        is_T = n == 1\n", "every one-vertex graph is T"),
    (GRAPHS, "        if fail:\n", "        if False:\n", "generators unchecked"),
    (
        GRAPHS,
        "enumerate(failed if any(failed) else _check_transpose(adj, adj, list(generators)))",
        "enumerate(failed)",
        "record built without the automorphism check",
    ),
    (
        GRAPHS,
        "[sigma for sigma in generators if sigma[r] == r]",
        "list(generators)",
        "suborbits from generators that move r",
    ),
    (GRAPHS, "own[order[0]] = adj[r] ^ sum(own)", "own[order[0]] = adj[r]", "largest suborbit's mask is all of adj[r]"),
    (
        GRAPHS,
        "sum(a.degrees()) == sum(b.degrees()) and _check_transpose",
        "_check_transpose",
        "isomorphism check without its popcounts",
    ),
    # anchors, depths and the pool
    (
        GRAPHS,
        "depth if depth > 2 else min(depth, 1))",
        "depth if depth > 1 else min(depth, 1))",
        "census takes floor 2 at kmax 2",
    ),
    (GRAPHS, "min(k, g.n + 1), anchors", "min(k, g.n), anchors", "profile walk stops at n"),
    (GRAPHS, "roots[i::workers], w, twice)", "roots[i + 1 :: workers], w, twice)", "pool share offset by one root"),
    (GRAPHS, "        left = budget - nodes\n", "        left = budget\n", "pool share gets the whole budget"),
    (
        GRAPHS,
        "    if workers > 1:\n        workers = min(workers, _default_workers())\n",
        "",
        "shares not capped at the CPUs",
    ),
    (
        GRAPHS,
        "        done = len(tasks) - len(rest)\n",
        "        done = len(tasks) - len(rest) - 1\n",
        "budget error counts one anchor too few",
    ),
    # the leaf step that meets each neighbour pair once
    (GRAPHS, "                    weight *= 2", "                    weight *= 1", "later suborbits weighted once"),
    (GRAPHS, "(cand & own, cand & later) if top", "(0, cand & later) if top", "own suborbit skipped"),
    (GRAPHS, "key=lambda i: -table[i][1]", "key=lambda i: table[i][1]", "suborbits ordered smallest first"),
    (GRAPHS, "if top == 3 else (cand, 0)", "if top >= 3 else (cand, 0)", "split walk below the leaf level"),
    (GRAPHS, "(once, cand if binned else 0,", "(once, once if binned else 0,", "leaf binned against its walked part"),
    (GRAPHS, "compress(adj, _selectors(cand))", "compress(adj[1:], _selectors(cand))", "dense leaf reads the rows shifted"),
    # the branch and bound
    (GRAPHS, "        if best >= ceiling:\n            break\n", "", "search goes on past its first witness"),
    # the clique-coclique ceiling and the twin classes
    (
        GRAPHS,
        "_anchors(g, [], 1), len(_symmetry(g)[1]) == 1)",
        "_anchors(g, [], 1), True)",
        "coclique ceiling on every orbit count",
    ),
    (GRAPHS, "left ^= lsb | (left & adj[out[-1]])", "left ^= lsb", "coclique keeps the neighbours"),
    (GRAPHS, "n // len(_coclique(adj, best)))", "n // len(_coclique(adj, best)) + 1)", "coclique ceiling one too high"),
    (GRAPHS, "n // len(_coclique(adj, best)))", "n // len(_coclique(adj, best)) - 1)", "coclique ceiling one too low"),
    (
        GRAPHS,
        "        if best >= ceiling:  # charged as the root expansion it replaces\n            nodes += 1\n",
        "        if best >= ceiling:  # charged as the root expansion it replaces\n            nodes += 0\n",
        "coclique ceiling charged no node",
    ),
    (
        GRAPHS,
        "_anchors(g, [], 1), len(_symmetry(g)[1]) == 1)",
        "[(m, c & sum(1 << v for v in dict(zip(reversed(g.adj), range(g.n - 1, -1, -1))).values()), *rest)"
        " for m, c, *rest in _anchors(g, [], 1)], len(_symmetry(g)[1]) == 1)",
        "twin classes on graphs with generators",
    ),
    (
        GRAPHS,
        "    cand = _common_neighbors(g, base)\n",
        "    cand = _common_neighbors(g, base) & sum(1 << v for v in dict(zip(reversed(g.adj), range(g.n - 1, -1, -1))).values())\n",
        "twin classes in the census and the profile",
    ),
    # the acceptance checks, each of which must report its own failure
    (VERIFICATION, "if got != gl_order(m, q):", "if False:", "criterion 8 weights unchecked"),
    (
        VERIFICATION,
        "if (g.adj[u] & g.adj[v]).bit_count() != want_codeg:",
        "if False:",
        "criterion 2 codegrees unchecked",
    ),
    (VERIFICATION, "if not coeffs_theorem_check(m, k):", "if False:", "criterion 9 coefficient identity unchecked"),
    (VERIFICATION, "if cap_n_N_comm(spec, 5) % 30:", "if False:", "criterion 10 cap5N unchecked"),
    (VERIFICATION, "if serial != parallel:", "if False:", "criterion 13 determinism unchecked"),
]


def run(mutant: tuple[str, str, str, str] | None) -> tuple[bool, float]:
    """(whether Tier-1 passed, seconds) on a fresh copy with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="ringline-mutant-") as tmp:
        for name in COPY:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, Path(tmp, name))
        if mutant is not None:
            path, old, new, _ = mutant
            target = Path(tmp, path)
            target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src"))}
        start = time.perf_counter()
        try:
            done = subprocess.run(PYTEST, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
        return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    stale = [name for path, old, _, name in MUTANTS if (ROOT / path).read_text().count(old) != 1]
    for name in stale:
        print(f"stale mutant: {name}: its old text does not occur exactly once")
    if stale:
        return 1
    passed, seconds = run(None)
    print(f"unmutated copy: {'passed' if passed else 'FAILED'} ({seconds:.0f} s)", flush=True)
    if not passed:
        return 1
    survivors = []
    with ThreadPoolExecutor(2) as pool:
        for (_, _, _, name), (passed, seconds) in zip(MUTANTS, pool.map(run, MUTANTS)):
            print(f"{'SURVIVED' if passed else 'killed'}: {name} ({seconds:.0f} s)", flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
