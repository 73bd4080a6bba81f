"""Run one ncfgl command line under the tracer; used for traced cli rounds.

    python3 perfbench/cli_traced.py RECORD_PATH [ncfgl arguments ...]

Behaves like ``python -m ncfgl.cli [arguments ...]`` (same stdout, stderr and
exit code) and writes a JSON record to RECORD_PATH: the import time of
``ncfgl.cli``, the time spent inside this script before the record is
written, the per-layer self times and counters, and every span.  The caller
counts the rest of the child's wall time as interpreter start and exit.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    begin = time.perf_counter()
    import ncfgl.cli

    import_s = time.perf_counter() - begin
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import CLI_SPAN_TARGETS, Tracer

    tracer = Tracer().install(CLI_SPAN_TARGETS)
    try:
        return ncfgl.cli.run(argv)
    finally:
        # Also reached when the command dies with a traceback, as some do.
        sys.stdout.flush()
        inside_s = time.perf_counter() - START
        tracer.remove()
        record = {
            "import_s": import_s,
            "inside_s": inside_s,
            "layers": tracer.snapshot(),
            "missing": tracer.missing,
            "spans": tracer.spans,
        }
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

if __name__ == "__main__":
    sys.exit(main())
