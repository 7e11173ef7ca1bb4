"""Run ``partwise.cli.main`` with the tracing hooks installed.

Usage: traced_cli.py TRACE_OUT SPAWNED_AT partwise-arguments...

SPAWNED_AT is the parent's ``time.time()`` just before it started this
process; the trace records when ``main`` was entered, so the parent can
report start-up time.  The spans and counts are written to TRACE_OUT as
JSON and the CLI's exit code is returned unchanged.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    trace_out, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import partwise.cli

    tracer = Tracer()
    entered = time.time()
    try:
        with tracer.active():
            code = partwise.cli.main(argv)
    finally:
        with open(trace_out, "w") as fh:
            json.dump(dict(tracer.dump(), startup_s=entered - spawned_at), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
