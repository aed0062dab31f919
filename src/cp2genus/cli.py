"""Command-line front end.

Every subcommand is a thin shell over one library call; descriptors are
given in the DSL (see lattice module docstring), for example

    cp2genus genus-count --p 3 "Z + c(0)"
    cp2genus iso --p 5 "C(0,0;1,1)" "D(0,0;1,1)"
    cp2genus um --p 2 --m 2

Boolean decisions print a verdict and exit 0; with --quiet they print
nothing and exit 0 (yes) or 1 (no).  Usage and domain errors exit 2,
and so does a stdout closed before the output is written; missing or
unsupported class data exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classdata, galois, genus, iso, lattice, materialize
from .abelian import orbit_count
from .errors import ConfigError, Cp2Error, InternalError, NeedsConfig, ParseError, UnsupportedPrime


def _context(args):
    if args.classdata:
        data = classdata.load_config(args.classdata)
        if data.p != args.p:
            raise Cp2Error(f"class data file is for p={data.p}, command asked for p={args.p}")
        return data
    return classdata.builtin(args.p)


def _parse_descriptor(args, ctx, text):
    return lattice.parse(text, args.p, ctx, lenient=args.lenient_units)


def _emit(args, text_lines, json_obj) -> int:
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0


def _decide(args, verdict: bool, yes: str, no: str) -> int:
    if args.quiet:
        return 0 if verdict else 1
    print(yes if verdict else no)
    return 0


def cmd_check(args, ctx) -> int:
    D = _parse_descriptor(args, ctx, args.descriptor)
    gv = lattice.genus_vector(D)
    rc, sc = lattice.ideal_classes(D)
    u0 = lattice.u0(D)
    info = {
        "descriptor": lattice.render(D),
        "rank": lattice.rank(D),
        "faithfulness": lattice.faithfulness(D),
        "genus_vector": {
            "a": gv.a, "b": gv.b, "c": gv.c, "d": gv.d, "e": gv.e,
            "beta": list(gv.beta), "gamma": list(gv.gamma),
            "delta": list(gv.delta), "eps": list(gv.eps), "eta": list(gv.eta),
        },
        "t": lattice.t_of(D),
        "sigma": lattice.sigma(D),
        "u0": list(u0.coeffs),
        "R_class": list(rc),
        "S_class": list(sc),
    }
    if args.json:  # the text output lists no copies
        info["summands"] = lattice.to_json(D)["summands"]
    lines = [
        f"descriptor: {info['descriptor']}",
        f"rank: {info['rank']}",
        f"action: {info['faithfulness']}",
        f"t: {info['t']}  sigma: {info['sigma']}  u0: {u0}",
        f"R class: {rc}  S class: {sc}",
    ]
    return _emit(args, lines, info)


def cmd_invariants(args, ctx) -> int:
    D = _parse_descriptor(args, ctx, args.descriptor)
    inv = iso.invariants_of(D)
    lines = [
        f"genus (p-adic): {iso.padic_to_json(inv.padic)}",
        f"R class: {inv.R_class}  S class: {inv.S_class}",
        f"t: {inv.t}",
        f"u0 coset in U_t: {inv.u0_class if inv.u0_class is not None else 'not applicable'}",
        f"quadratic character: {inv.quad_char if inv.quad_char is not None else 'not applicable'}",
    ]
    return _emit(args, lines, iso.invariants_to_json(inv))


def cmd_padic(args, ctx) -> int:
    D = _parse_descriptor(args, ctx, args.descriptor)
    pd = iso.padic_completion(D)
    return _emit(args, [f"{iso.padic_to_json(pd)}"], iso.padic_to_json(pd))


def cmd_iso(args, ctx) -> int:
    D1 = _parse_descriptor(args, ctx, args.descriptor1)
    D2 = _parse_descriptor(args, ctx, args.descriptor2)
    return _decide(args, iso.isomorphic(D1, D2), "isomorphic", "not isomorphic")


def cmd_genus_eq(args, ctx) -> int:
    D1 = _parse_descriptor(args, ctx, args.descriptor1)
    D2 = _parse_descriptor(args, ctx, args.descriptor2)
    return _decide(args, iso.same_genus(D1, D2), "same genus", "different genus")


def cmd_twist(args, ctx) -> int:
    D = _parse_descriptor(args, ctx, args.descriptor)
    T = galois.twist(D, args.k)
    return _emit(args, [lattice.render(T)], lattice.to_json(T) if args.json else None)


def cmd_group_iso(args, ctx) -> int:
    E1 = genus.SemidirectDescriptor(_parse_descriptor(args, ctx, args.descriptor1))
    E2 = genus.SemidirectDescriptor(_parse_descriptor(args, ctx, args.descriptor2))
    return _decide(
        args, genus.group_isomorphic(E1, E2),
        "isomorphic as groups", "not isomorphic as groups",
    )


def cmd_profinite_iso(args, ctx) -> int:
    E1 = genus.SemidirectDescriptor(_parse_descriptor(args, ctx, args.descriptor1))
    E2 = genus.SemidirectDescriptor(_parse_descriptor(args, ctx, args.descriptor2))
    return _decide(
        args, genus.profinite_isomorphic(E1, E2),
        "profinitely isomorphic", "not profinitely isomorphic",
    )


def cmd_genus_count(args, ctx) -> int:
    E = genus.SemidirectDescriptor(_parse_descriptor(args, ctx, args.descriptor))
    rep = genus.genus_report(E)
    lines = []
    if rep.closed_form:
        lines.append(f"closed form: {rep.closed_form[0]} (case {rep.closed_form[1]})")
    lines.append(f"enumeration: {rep.enumeration}")
    if rep.agree is not None:
        lines.append(f"engines agree: {rep.agree}")
    if rep.bounds:
        lines.append(f"bounds: {rep.bounds[0]} <= genus <= {rep.bounds[1]}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    lines.append(f"genus size: {rep.value}")
    return _emit(args, lines, genus.report_to_json(rep))


def cmd_um(args, ctx) -> int:
    q = ctx.unit_quotient(args.m)
    obj = {
        "p": args.p,
        "m": args.m,
        "order": q.order,
        "subgroup_order": q.subgroup_order,
        "reps": [list(r.coeffs) for r in q.reps] if q.order <= 64 else None,
    }
    name = f"U_{args.m}" + (" = U_p" if args.m == args.p else "")
    lines = [
        f"{name} for p={args.p}: order {q.order}"
        + (" (trivial)" if q.order == 1 else ""),
        f"ambient unit group order: {q.subgroup_order * q.order}",
        f"quotient by subgroup of order {q.subgroup_order}",
    ]
    if q.order <= 16:
        lines.append("representatives: " + ", ".join(str(r) for r in q.reps))
    return _emit(args, lines, obj)


def cmd_orbits(args, ctx) -> int:
    hp = orbit_count(ctx.H_p)
    hp2 = orbit_count(ctx.H_p2)
    obj = {"p": args.p, "H_p_orbits": hp, "H_p2_orbits": hp2}
    lines = [
        f"|G({args.p}) \\ H(Z[zeta_{args.p}])| = {hp}",
        f"|G({args.p}^2) \\ H(Z[zeta_{args.p}^2])| = {hp2}",
    ]
    if args.m is not None:
        um = genus.ut_orbit_count(ctx, args.m)
        obj["U_m"] = args.m
        obj["U_m_orbits"] = um
        lines.append(f"|G({args.p}^2) \\ U_{args.m}| = {um}")
    return _emit(args, lines, obj)


def cmd_materialize(args, ctx) -> int:
    D = _parse_descriptor(args, ctx, args.descriptor)
    rep = materialize.rep_of(D)
    obj = {"p": args.p, "n": rep.n, "matrix": [list(row) for row in rep.matrix]}
    if args.validate:
        report = materialize.validate_rep(rep)
        obj["validation"] = {
            "passed": report.passed,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks],
        }
    print(json.dumps(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="the prime p")
    common.add_argument("--classdata", metavar="FILE", help="class-data JSON config")
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--quiet", action="store_true",
                        help="boolean commands: no output, answer in the exit code")
    common.add_argument("--lenient-units", dest="lenient_units", action="store_true",
                        help="canonicalize non-canonical unit parameters instead of rejecting")

    ap = argparse.ArgumentParser(
        prog="cp2genus",
        description="Z[C_{p^2}]-lattice calculus and profinite genus of Z^n x| C_{p^2}",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_, descriptors=0, **extra):
        sp = sub.add_parser(name, parents=[common], help=help_)
        if descriptors == 1:
            sp.add_argument("descriptor")
        elif descriptors == 2:
            sp.add_argument("descriptor1")
            sp.add_argument("descriptor2")
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=func)
        return sp

    add("check", cmd_check, "parse a descriptor and print its invariant data", 1)
    add("invariants", cmd_invariants, "full isomorphism invariants", 1)
    add("padic", cmd_padic, "p-adic completion parameters", 1)
    add("iso", cmd_iso, "are two lattices isomorphic?", 2)
    add("genus-eq", cmd_genus_eq, "are two lattices in the same genus?", 2)
    add("twist", cmd_twist, "apply the Galois twist g -> g^k", 1,
        **{"--k": {"type": int, "required": True, "help": "unit mod p^2"}})
    add("group-iso", cmd_group_iso,
        "are the semidirect products isomorphic as groups?", 2)
    add("profinite-iso", cmd_profinite_iso,
        "are the profinite completions isomorphic?", 2)
    add("genus-count", cmd_genus_count, "size of the profinite genus", 1)
    add("um", cmd_um, "the unit quotient U_m", 0,
        **{"--m": {"type": int, "required": True, "help": "truncation index"}})
    add("orbits", cmd_orbits, "Galois orbit counts on the class groups", 0,
        **{"--m": {"type": int, "default": None, "help": "also report U_m orbits"}})
    add("materialize", cmd_materialize,
        "integer matrix of the g-action (trivial classes only)", 1,
        **{"--validate": {"action": "store_true", "help": "include validation checks"}})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every subcommand reads the class data: it is loaded and checked once
        code = args.func(args, _context(args))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (say `| head -c 10`): send what is still
        # buffered to the null device, so that the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedPrime, NeedsConfig, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Cp2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a last resort: the --json summand lists of check and twist and
        # the models of materialize refuse oversized inputs before
        # allocating
        print("error: input too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
