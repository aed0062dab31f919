"""Self-test: the benchmark must notice a wrong answer.

    python3 perfbench/selftest.py

Runs decide-small at the default seed against the recorded reference,
which must give error_rate = 0, then against a copy with one answer
corrupted, which must give error_rate > 0 and correct = false.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, ROOT

WORKLOAD, SEED = "decide-small", 0


def run(reference) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "1", "--trace", "0", "--reference", str(reference)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    reference = BENCH / "reference" / f"{WORKLOAD}.json"
    clean = run(reference)
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        recorded = json.loads(reference.read_text())
        answers = recorded["seeds"][str(SEED)]
        answers[0] = "corrupted:" + answers[0]
        corrupt_path = tmp / "corrupt-reference.json"
        corrupt_path.write_text(json.dumps(recorded))
        corrupt = run(corrupt_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = (clean["failed"] == 0 and clean["correct"]
          and corrupt["failed"] > 0 and not corrupt["correct"])
    print(f"clean reference: {clean['failed']}/{clean['attempted']} failed; "
          f"corrupted reference: {corrupt['failed']}/{corrupt['attempted']} failed")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
