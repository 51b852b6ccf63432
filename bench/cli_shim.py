"""Run one ringline CLI command with the benchmark's tracer installed.

    python3 bench/cli_shim.py OUT.json JOB_ID <ringline cli arguments...>

The command's stdout and exit code are those of `python -m ringline.cli`.
OUT.json receives the spans, the per-name totals, the import time of
ringline.cli and the CPU time of the pool workers the command started.
"""

import resource
import sys
import time

from tracing import Tracer


def main() -> int:
    out_path, job = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import ringline.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli", job):
            code = ringline.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    tracer.write(
        out_path,
        {
            "import_s": import_s,
            "children_cpu_s": children.ru_utime + children.ru_stime,
            "totals": tracer.take(),
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
