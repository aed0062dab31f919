"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Runs every op of every workload once, at the default seed and at one
held-out seed, and writes perfbench/reference/<workload>.json.  Recording
refuses to write a file when any op fails its by-construction checks.
Re-record only in a change that says why an answer changed.
"""

from __future__ import annotations

import json
import platform
import sys

from run import BENCH, commit, run_child
import workloads

SEEDS = (0, 7919)  # the default seed and one held-out seed


def main() -> int:
    for name in sorted(workloads.WORKLOADS):
        seeds = {}
        for seed in SEEDS:
            _, out = run_child([sys.executable, str(BENCH / "worker.py"), "--workload", name,
                                "--seed", str(seed), "--seconds", "0", "--answers"], 600)
            result = json.loads(out.splitlines()[-1])
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failed']} ops failed", file=sys.stderr)
                for why in result["failures"]:
                    print("  " + why, file=sys.stderr)
                return 1
            seeds[str(seed)] = result["answers"]
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"recorded_from": commit(),
                                    "python": platform.python_version(),
                                    "seeds": seeds}, indent=0) + "\n")
        print(f"wrote {path.relative_to(BENCH.parent)}: "
              + ", ".join(f"seed {s}: {len(a)} answers" for s, a in seeds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
