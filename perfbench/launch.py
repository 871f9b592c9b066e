"""Run one CLI command with the layer wrappers installed.

Usage: python perfbench/launch.py SPANS_JSON ARG...

Installs the wrappers from tracing.py, calls
``simplicial_filters.cli.main(ARG...)`` and, when it returns, writes the span
table, the counters and the cache deltas to SPANS_JSON. Exits with the
command's exit code and prints exactly what the command prints.
"""
import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracing.import_package()
    from simplicial_filters import cli

    before = tracing.cache_snapshot()
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    try:
        idx = rec.open("cli.main")
        try:
            code = cli.main(argv)
        finally:
            rec.close(idx)
    finally:
        tracer.remove()
    counts = rec.counts
    counts.update(tracing.cache_snapshot())
    counts.subtract(before)
    with open(out, "w") as fh:
        json.dump({"table": rec.table(), "counts": dict(counts),
                   "intervals": rec.intervals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
