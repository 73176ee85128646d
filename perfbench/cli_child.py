"""Run one framecert CLI command under the tracer and save its spans.

    python3 -X importtime perfbench/cli_child.py SPANS_FILE ARGS...

ARGS go to ``framecert.cli.main``; the exit code is main's.  SPANS_FILE
receives a ``cli.import`` span for the import of ``framecert.cli`` and the
spans recorded during ``main``.  The traced ``cli_cold`` run starts this
script in place of ``python3 -m framecert.cli``.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer, install


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import framecert.cli as cli
    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, perf_counter(), -1, 0, None])
    install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (argv,))
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
