"""Run one `howe` CLI command with the per-layer tracer installed.

Usage: python3 bench/cli_child.py <howe arguments...>

Behaves like `python -m howe.cli <arguments>` (same stdout, same exit code)
and, on exit, prints one line `BENCH_TRACE <json>` to stderr holding the
span and counter aggregates plus the time taken by `import howe.cli`.
"""

import json
import sys
import time

from tracer import TRACE_PREFIX, Tracer


def main() -> int:
    t0 = time.perf_counter_ns()
    import howe.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = howe.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.import_ns = import_ns
        print(TRACE_PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
