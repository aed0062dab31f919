"""cp2genus benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-small --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
child process (perfbench/worker.py) with a fixed PYTHONHASHSEED; set-up
time is the median over several fresh processes.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced cycle with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes per run for setup_s, the measured run included
CLI_SETUP_SAMPLES = 9  # a bare import takes about 0.1 s, so take more
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[float, str]:
    """Start a fresh process and wait for it; returns (start, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {cmd[1:3]} did not finish in {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: {' '.join(cmd[:3])} exited with {proc.returncode}")
    return start, out


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def block_throughput(result: dict, block: int) -> float:
    """Median over the run's complete blocks of correct ops per second of
    service time.  Every block holds the workload's exact mix, so the
    median discounts bursts of load from outside the benchmark."""
    latencies, failed_at = result["latencies_ns"], set(result["failed_at"])
    rates = []
    for start in range(0, len(latencies) - block + 1, block):
        correct = sum(1 for i in range(start, start + block) if i not in failed_at)
        rates.append(correct / (sum(latencies[start:start + block]) / 1e9))
    return statistics.median(rates)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=None,
                    help="recorded answers (default: perfbench/reference/<workload>.json)")
    args = ap.parse_args()

    if not (ROOT / "src" / "cp2genus" / "__init__.py").is_file():
        print(f"error: no cp2genus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = args.reference or str(BENCH / "reference" / f"{args.workload}.json")
    # an installed package ships bytecode; compile it before any timing
    if not compileall.compile_dir(str(ROOT / "src" / "cp2genus"), quiet=1):
        print("error: cp2genus does not compile", file=sys.stderr)
        return 2

    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--reference", reference]
    cli = args.workload == "cli-cold"
    setups = []
    if args.trace == 0:
        if cli:
            # a shell user's set-up: a fresh interpreter importing the CLI
            for _ in range(CLI_SETUP_SAMPLES):
                start, _ = run_child([sys.executable, "-c", "import cp2genus.cli"], 60)
                setups.append(time.monotonic() - start)
        else:
            for _ in range(SETUP_SAMPLES - 1):
                start, out = run_child(worker + ["--setup-only"], 60)
                setups.append(json.loads(out.splitlines()[-1])["ready"] - start)
    start, out = run_child(worker, CHILD_TIMEOUT_S)
    result = json.loads(out.splitlines()[-1])
    if args.trace == 0 and not cli:
        setups.append(result["ready"] - start)

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result.get("answers_identical", True)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": commit(), "workload": args.workload, "seed": args.seed,
           "answers_compared_with_reference": result["reference_seed"]}
    print("env " + json.dumps(env))
    for why in result["failures"]:
        print("failure " + why)

    if args.trace == 0:
        lat = sorted(result["latencies_ns"])
        metrics = {
            "ops_per_s": (block_throughput(result, workloads.BLOCK[args.workload]), "1/s"),
            "latency_p50_ms": (percentile(lat, 0.5) / 1e6, "ms"),
            "latency_p90_ms": (percentile(lat, 0.9) / 1e6, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        print(f"samples latency={len(lat)} blocks={len(lat) // workloads.BLOCK[args.workload]} "
              f"setup={len(setups)} "
              f"error_rate={failed / attempted:.6f} ({failed}/{attempted})")
    else:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["per_layer"].items()}
        u = metrics["trace.untraced_ops_per_s"][0]
        t = metrics["trace.traced_ops_per_s"][0]
        print(f"trace overhead: untraced {u:.2f} ops/s, traced {t:.2f} ops/s "
              f"(x{u / t:.2f}); answers identical: {result['answers_identical']}")
        if result["absent"]:
            print("absent (traced function no longer exists): " + ", ".join(result["absent"]))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
