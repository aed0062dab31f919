"""Run the cp2genus CLI under the benchmark's tracer.

    PERFBENCH_TRACE_OUT=out.json python perfbench/tracecli.py <cli args>

Behaves like `python -m cp2genus.cli <cli args>` (same stdout, stderr and
exit code) and writes the raw trace aggregate, including the time taken
to import cp2genus.cli, to the file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

start = time.perf_counter_ns()
import cp2genus.cli as cli  # noqa: E402

import_ns = time.perf_counter_ns() - start

import tracer  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    tr.install()
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tr.uninstall()
        raw = tr.aggregate()
        raw["import_ns"] = import_ns
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
