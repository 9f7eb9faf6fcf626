"""Traced ``heun-rsj`` call for the ``cli`` workload's traced phase.

Usage: ``python perfbench/child.py <heun-rsj argv>``.  Behaves as
``python -m heun_rsj.cli <argv>`` and then appends the spans it recorded,
import included, to stderr after a marker line.
"""

import json
import sys
import time

T0 = time.perf_counter()

import tracing  # noqa: E402  (this directory is sys.path[0])
from workloads import CHILD_MARKER  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.span("import.heun_rsj", __import__, "heun_rsj.cli")
    import heun_rsj.cli

    restore = tracing.install(tracer)
    try:
        rc = heun_rsj.cli.main(sys.argv[1:])
    finally:
        restore()
    sys.stdout.flush()
    spans = [(s[0], s[1], s[2] - T0, s[3] - T0, *s[4:]) for s in tracer.spans]
    sys.stderr.write(CHILD_MARKER + json.dumps(spans) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
