"""Statement-coverage gate: every executable line of src/ringline must run in Tier-1.

    python tools/coverage.py

Runs Tier-1 in this process (`pytest -q --hypothesis-seed=0 -p
no:cacheprovider`) under sys.settrace and threading.settrace, then
compares the lines that ran with the executable lines of each module of
src/ringline, read from the code objects its source compiles to
(co_lines), so docstrings, `nonlocal` and other lines that compile to
nothing do not count.  Code run in child processes (the CLI and demo
tests, a search's process pool) is not seen.  Exits 1 when Tier-1 fails
or when a line never ran, apart from the ALLOWED lines, matched by module
and stripped text, and when an allowed line is no longer in its module.
Standard library only; about 3 minutes on 2 vCPUs.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ringline"
PYTEST = ["-q", "--hypothesis-seed=0", "-p", "no:cacheprovider"]
ALLOWED = {
    # run only as a script, by the console-script and subprocess tests
    ("cli.py", "sys.exit(main())"),
    # the CPU count where os.sched_getaffinity is missing (not on Linux)
    ("config.py", "return os.cpu_count() or 1"),
    # self-checks of proven identities
    ("formulas.py", 'raise AssertionError("sum and nested forms of the 4-clique count disagree")'),
    ("rings.py", 'raise AssertionError("point count disagrees with the multiplicative formula")'),
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers any code object compiled from path has instructions on."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    modules = sorted(PACKAGE.rglob("*.py"))
    hits: dict[str, set[int]] = {str(path): set() for path in modules}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    # ringline is imported under the trace, so its module-level lines count
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main([*PYTEST, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"Tier-1 failed (pytest exit {code}); coverage not checked")
        return 1
    missed, ran, total, found = 0, 0, 0, set()
    for path in modules:
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        ran += len(lines & hits[str(path)])
        found.update((path.name, source[line - 1].strip()) for line in lines)
        for line in sorted(lines - hits[str(path)]):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                print(f"{path.relative_to(ROOT)}:{line}: never ran: {text}")
                missed += 1
    for name, text in sorted(ALLOWED - found):
        print(f"stale allowed line: {name}: {text}")
    print(f"{ran} of {total} executable lines ran, {missed} missed outside the allowed lines")
    return 1 if missed or ALLOWED - found else 0


if __name__ == "__main__":
    sys.exit(main())
