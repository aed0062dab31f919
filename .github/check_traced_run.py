"""Check the output of one traced benchmark run, read from stdin.

    python3 perfbench/run.py --workload genus-c43 --seed 0 --seconds 3 --trace 1 \
        | python3 .github/check_traced_run.py genus-c43

Exits 1 when the last line is not a result with "correct": true, when a
traced function is reported absent, or when the result lacks a per-layer
metric that BENCHMARK.json declares; a renamed or removed function the
tracer wraps shows up in the last two.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(lines: list[str]) -> list[str]:
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["the last line is not a JSON result"]
    out = []
    if result.get("correct") is not True:
        out.append("a traced answer differs from the untraced run or the reference")
    out += [line for line in lines if line.startswith("absent (")]
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    missing = [name for name in declared if name not in result.get("metrics", {})]
    if missing:
        out.append("per-layer metrics missing from the result: " + ", ".join(missing))
    return out


def main() -> int:
    workload = sys.argv[1] if len(sys.argv) > 1 else "traced run"
    found = problems(sys.stdin.read().splitlines())
    for problem in found:
        print(f"::error::{workload}: {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
