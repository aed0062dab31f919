"""One workload in one fresh process: set up, run the closed loop, report.

run.py starts this file once per set-up sample and once for the measured
run.  It prints one JSON object on its last stdout line.  Library
workloads call cp2genus in this process; cli-cold starts one CLI process
per op and waits for it, so at most one process computes at a time.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # p90 needs ten samples beyond it
CLI_TIMEOUT_S = 120


def digest(answer: str) -> str:
    if len(answer) <= 100:
        return answer
    return "sha256:" + hashlib.sha256(answer.encode()).hexdigest()[:24]


class Op:
    """run() is the timed call; answer() and check() run outside the timing."""

    def __init__(self, run, answer, check=lambda raw: True):
        self.run, self.answer, self.check = run, answer, check


# ---------------------------------------------------------------------------
# library ops


def _report(r) -> str:
    """A genus report in one short line, so the reference stays readable."""
    closed = f"{r.closed_form[0]}:{r.closed_form[1]}" if r.closed_form else None
    bounds = f"{r.bounds[0]}..{r.bounds[1]}" if r.bounds else None
    return (f"closed={closed} enum={r.enumeration} agree={r.agree} "
            f"bounds={bounds} notes={len(r.notes)}")


def library_ops(specs, ctxs) -> list[Op]:
    """Parse every input once (set-up) and bind each op to its operands."""
    from cp2genus import abelian, galois, genus, iso, lattice, materialize

    def parse(spec, i=0):
        return lattice.parse(spec["d"][i], spec["p"], ctxs[spec["p"]], lenient=True)

    def semi(D):
        return genus.SemidirectDescriptor(D)

    ops = []
    for spec in specs:
        name, p = spec["op"], spec["p"]
        if name == "parse":
            src, ctx = spec["d"][0], ctxs[p]
            ops.append(Op(
                lambda src=src, ctx=ctx, p=p: lattice.parse(src, p, ctx, lenient=True),
                lattice.render,
                lambda D, ctx=ctx, p=p: lattice.parse(lattice.render(D), p, ctx) == D))
        elif name == "render":
            D, ctx = parse(spec), ctxs[p]
            ops.append(Op(lambda D=D: lattice.render(D), str,
                          lambda s, D=D, ctx=ctx, p=p: lattice.parse(s, p, ctx) == D))
        elif name == "invariants":
            D = parse(spec)
            ops.append(Op(lambda D=D: iso.invariants_of(D),
                          lambda inv: json.dumps(iso.invariants_to_json(inv), sort_keys=True)))
        elif name in ("iso", "genus-eq"):
            D1, D2 = parse(spec, 0), parse(spec, 1)
            if name == "iso":
                ops.append(Op(lambda D1=D1, D2=D2: iso.isomorphic(D1, D2), str,
                              lambda v, D1=D1, D2=D2: not v or iso.same_genus(D1, D2)))
            else:
                ops.append(Op(lambda D1=D1, D2=D2: iso.same_genus(D1, D2), str))
        elif name == "profinite-iso":
            E1, E2 = semi(parse(spec, 0)), semi(parse(spec, 1))
            ops.append(Op(lambda E1=E1, E2=E2: genus.profinite_isomorphic(E1, E2), str))
        elif name == "twist":
            D, k = parse(spec), spec["k"]
            k_inv = pow(k, -1, p * p)
            ops.append(Op(lambda D=D, k=k: galois.twist(D, k), lattice.render,
                          lambda T, D=D, k_inv=k_inv: galois.twist(T, k_inv) == D))
        elif name == "group-iso":
            D1 = parse(spec)
            twisted = spec.get("k") is not None
            D2 = galois.twist(D1, spec["k"]) if twisted else parse(spec, 1)
            E1, E2 = semi(D1), semi(D2)
            ops.append(Op(lambda E1=E1, E2=E2: genus.group_isomorphic(E1, E2), str,
                          (lambda v: v is True) if twisted else (lambda v: True)))
        elif name == "genus-count":
            E = semi(parse(spec))
            # with trivial class groups the two engines provably agree; shapes
            # outside the closed-form case analysis have agree None
            check = ((lambda r: r.agree is not False and r.bounds[0] <= r.value <= r.bounds[1])
                     if p <= 5 else (lambda r: True))
            ops.append(Op(lambda E=E: genus.genus_report(E), _report, check))
        elif name == "orbits":
            ctx, m = ctxs[p], spec["m"]
            ops.append(Op(
                lambda ctx=ctx, m=m: (abelian.orbit_count(ctx.H_p),
                                      abelian.orbit_count(ctx.H_p2),
                                      genus.ut_orbit_count(ctx, m)),
                str,
                # the synthetic generator 3 is a primitive root mod 43
                lambda v: v[0] == 1 and v[1] == 2))
        elif name == "validate":
            D, n = parse(spec), spec["n"]

            def run(D=D):
                rep = materialize.rep_of(D)
                return rep, materialize.validate_rep(rep)

            ops.append(Op(run, lambda r: (
                f"n={r[0].n} matrix=" + hashlib.sha256(repr(r[0].matrix).encode()).hexdigest()[:24]
                + " " + ",".join(f"{c.name}:{c.ok}" for c in r[1].checks)),
                lambda r, n=n: r[1].passed and r[0].n == n))
        elif name == "ext":
            x = spec["x"]
            # |Ext(S, X)| = p^e with e the Z-rank of the (g^p - 1)-torsion
            e = {"Z": 1, "R": p - 1, "E": p, "Z+R": p, "Z+E": p + 1}[x]
            ops.append(Op(lambda x=x, p=p: materialize.ext_group(x, p),
                          lambda G: str(G.factors),
                          lambda G, p=p, e=e: G.factors == (p,) * e))
        else:
            raise ValueError(f"unknown op {name}")
    return ops


def library_setup(name: str, specs, setup_tracer=None):
    # every library module, so that the tracer finds them all loaded
    from cp2genus import classdata, materialize  # noqa: F401

    if setup_tracer is not None:
        setup_tracer.install()
    if name == "genus-c43":
        ctxs = {7: classdata.load_config(ROOT / workloads.C43_FILE)}
    else:
        ctxs = {p: classdata.builtin(p) for p in (2, 3, 5)}
    for p, ctx in ctxs.items():
        for m in range(p + 1):
            if (p, m) != (7, 7):  # one U_7 build at p = 7 costs seconds
                ctx.unit_quotient(m)
    ops = library_ops(specs, ctxs)
    if setup_tracer is not None:
        setup_tracer.uninstall()
    return ops


# ---------------------------------------------------------------------------
# cli ops


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_ops(specs, traced_dir=None) -> list[Op]:
    env = cli_env()
    ops = []
    for i, spec in enumerate(specs):
        argv, expected = spec["argv"], spec["rc"]
        if traced_dir is None:
            cmd = [sys.executable, "-m", "cp2genus.cli", *argv]
            op_env = env
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), *argv]
            op_env = dict(env, PERFBENCH_TRACE_OUT=str(traced_dir / f"{i}.json"))

        def run(cmd=cmd, op_env=op_env):
            proc = subprocess.run(cmd, cwd=ROOT, env=op_env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stdout

        def check(raw, argv=argv, expected=expected):
            rc, out = raw
            if rc not in expected:
                return False
            if rc >= 2:
                return out == b""
            if "--json" in argv or argv[0] == "materialize":
                obj = json.loads(out)
                if "--validate" in argv:
                    return obj["validation"]["passed"] is True
            return True

        ops.append(Op(run, lambda raw: f"rc={raw[0]} out=" + hashlib.sha256(raw[1]).hexdigest()[:24],
                      check))
    return ops


# ---------------------------------------------------------------------------
# the closed loop


class Judge:
    """Counts an op as failed on an unexpected exception, a failed
    by-construction check, an answer that differs from the recorded
    reference, or an answer that differs from the same op earlier in the run."""

    def __init__(self, reference):
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.failures: list[str] = []

    def __call__(self, index: int, op: Op, raw, error) -> tuple[bool, str | None]:
        if error is not None:
            self._fail(index, f"{type(error).__name__}: {error}")
            return False, None
        try:
            answer = digest(op.answer(raw))
            ok = op.check(raw)
        except Exception as exc:  # a malformed answer is a failed op
            self._fail(index, f"checking raised {type(exc).__name__}: {exc}")
            return False, None
        if not ok:
            self._fail(index, f"by-construction check failed: {answer}")
            return False, answer
        if self.reference is not None and self.reference[index] != answer:
            self._fail(index, f"answer {answer!r} != reference {self.reference[index]!r}")
            return False, answer
        if self.seen.setdefault(index, answer) != answer:
            self._fail(index, "answer changed between repeats")
            return False, answer
        return True, answer

    def _fail(self, index, why):
        if len(self.failures) < 20:
            self.failures.append(f"op {index}: {why}")


def call(op: Op):
    start = time.perf_counter_ns()
    try:
        raw, error = op.run(), None
    except Exception as exc:  # recorded as a failed op, never aborts the run
        raw, error = None, exc
    return raw, error, time.perf_counter_ns() - start


def timed_loop(ops, judge: Judge, seconds: float) -> dict:
    """Cycle through the ops for `seconds` and at least MIN_OPS ops."""
    # an int array keeps the benchmark's own memory out of peak_rss_mb
    latencies, failed_at, i = array.array("q"), [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or i < MIN_OPS:
        index = i % len(ops)
        raw, error, ns = call(ops[index])
        latencies.append(ns)
        if not judge(index, ops[index], raw, error)[0]:
            failed_at.append(i)
        i += 1
    return {"latencies_ns": latencies, "failed_at": failed_at,
            "attempted": i, "failed": len(failed_at)}


def one_cycle(ops, judge: Judge) -> tuple[list, int, int]:
    """Every op once; returns answers, failures and service nanoseconds."""
    answers, failed, busy = [], 0, 0
    for index, op in enumerate(ops):
        raw, error, ns = call(op)
        busy += ns
        ok, answer = judge(index, op, raw, error)
        failed += not ok
        answers.append(answer)
    return answers, failed, busy


def peak_rss_mb(cli: bool) -> float:
    # ru_maxrss is in KiB on Linux.  For cli-cold the CLI processes are this
    # process's only children, so RUSAGE_CHILDREN is their peak.
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--answers", action="store_true",
                    help="run every op once and print the answers (see record.py)")
    ap.add_argument("--reference", default=None,
                    help="JSON file of recorded answers; absent seeds are not compared")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    specs = workloads.WORKLOADS[args.workload](args.seed)
    reference = None
    if args.reference and Path(args.reference).is_file():
        recorded = json.loads(Path(args.reference).read_text())["seeds"]
        reference = recorded.get(str(args.seed))
        if reference is not None and len(reference) != len(specs):
            print(f"reference for seed {args.seed} has {len(reference)} answers, "
                  f"workload has {len(specs)} ops", file=sys.stderr)
            return 2

    cli = args.workload == "cli-cold"
    setup_tracer = tracer.Tracer() if args.trace and not cli else None
    ops = cli_ops(specs) if cli else library_setup(args.workload, specs, setup_tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    judge = Judge(reference)
    result = {"ready": ready, "reference_seed": reference is not None}
    if args.answers:
        result["answers"], result["failed"], _ = one_cycle(ops, judge)
    elif not args.trace:
        result.update(timed_loop(ops, judge, args.seconds))
        result["peak_rss_mb"] = peak_rss_mb(cli)
        result["latencies_ns"] = result["latencies_ns"].tolist()
    else:
        result.update(traced_run(args, specs, ops, judge, setup_tracer))
    result["failures"] = judge.failures
    print(json.dumps(result))
    return 0


def traced_run(args, specs, ops, judge, setup_tracer) -> dict:
    """One untraced cycle, then the same cycle traced; answers must match."""
    untraced, failed_u, busy_u = one_cycle(ops, judge)
    if args.workload == "cli-cold":
        tmp = ROOT / ".perfbench_tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            traced, failed_t, busy_t = one_cycle(cli_ops(specs, tmp), judge)
            raws = [json.loads(f.read_text()) for f in sorted(tmp.glob("*.json"))]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        raw = tracer.merge(raws)
        setup_raw = None
    else:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, failed_t, busy_t = one_cycle(ops, judge)
        finally:
            tr.uninstall()
        raw = tr.aggregate()
        setup_raw = setup_tracer.aggregate()
    metrics, absent = tracer.metrics(raw)
    # cli-cold's set-up is a bare import: it builds nothing and loads no data
    setup_metrics, setup_absent = tracer.metrics(setup_raw) if setup_raw else ({}, [])
    for name in ("modring.um_builds", "modring.um_build_s", "classdata.load_s"):
        if name in setup_absent:
            absent.append("setup." + name)
        else:
            unit = "s" if name.endswith("_s") else "count"
            metrics["setup." + name] = setup_metrics.get(name, (0, unit))
    n = len(ops)
    metrics["trace.untraced_ops_per_s"] = (n / (busy_u / 1e9), "1/s")
    metrics["trace.traced_ops_per_s"] = (n / (busy_t / 1e9), "1/s")
    mismatched = sum(a != b for a, b in zip(untraced, traced))
    return {
        "attempted": 2 * n,
        "failed": failed_u + failed_t,
        "answers_identical": mismatched == 0,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": absent,
    }


if __name__ == "__main__":
    sys.exit(main())
