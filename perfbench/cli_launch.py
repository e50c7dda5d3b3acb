"""Run the sparsemult command line from the checkout's sources.

Stands in for the ``sparsemult`` console script:
``python3 perfbench/cli_launch.py <subcommand> [options]``.  When
PERFBENCH_TRACE names a file, the launcher also times the import of
``sparsemult.cli``, installs the tracer, runs the command as one op and
writes the trace summary there; spans are appended to PERFBENCH_SPANS.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

if __name__ == "__main__":
    trace_path = os.environ.get("PERFBENCH_TRACE")
    t0 = perf_counter()
    import sparsemult.cli as cli

    import_s = perf_counter() - t0
    if not trace_path:
        sys.exit(cli.main())

    import json

    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op_span(int(os.environ["PERFBENCH_OP"])):
            code = cli.main()
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "a", encoding="utf-8") as fh:
            tracer.write_spans(fh)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary()}, fh)
    sys.exit(code)
