"""The answer ledger: one line of recorded answers per (context, descriptor).

The descriptors are every sum of at most two indecomposable shapes
(classes 0, unit 1), each built from DSL text, and the single summands
that the Galois twist moves: class 1 in each nontrivial class group,
and each extension shape whose U_m is nontrivial with the unit 1 + l^d,
d its least free degree.  The contexts are trivial class data at
p = 2, 3, 5 and 7 and three synthetic nontrivial ones.  Each line
records the descriptor's render, t, invariants_to_json, the
report_to_json of its genus report when it is faithful, and the render
of its twist by the primitive root mod p^2.  The file's header says how
the values are written; they are packed to keep it small.

Then every canonical unit: for trivial data at p = 2, 3, 5 and 7 and
the extra exp(L^3) generator at p = 7, one line per U_m, 0 <= m <= p,
with its order and one sha256 over rep_of(u) and rep_of of the twist
of u, over the units u in lexicographic order (a fixed stride above
UNIT_SAMPLE units).

    python tests/ledger.py          # print the first lines that differ
    python tests/ledger.py --write  # re-record tests/data/answers.ledger

Only a change that announces an answer change re-records the file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from functools import lru_cache
from pathlib import Path

LEDGER = Path(__file__).parent / "data" / "answers.ledger"

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).parent)]

from cp2genus import classdata, galois, genus, iso, lattice  # noqa: E402
from cp2genus.abelian import primitive_root  # noqa: E402
from cp2genus.modring import PolyMod, galois_on_unit  # noqa: E402

from conftest import (  # noqa: E402
    classdata_both_nontrivial, exp_l3_extra, synthetic_c43, synthetic_cyclic,
)

# the most units a U_m line hashes: above it, a fixed lexicographic stride
UNIT_SAMPLE = 20_000

HEADER = """\
# cp2genus answer ledger; python tests/ledger.py --write re-records it.
# Below each "@ context" line, one tab-separated line per descriptor:
#   render, t, invariants_to_json, report_to_json of the genus report
#   (null unless faithful), render of the twist by the primitive root
#   mod p^2 ("=" when the twist is the descriptor itself).
# A JSON object is written as the list of its values in sorted-key order,
# a list of digits 0-9 as one string, and each report note by its number.
# Below each "@ U_m context" line, one line per 0 <= m <= p: m, the order
#   of U_m, and the sha256 of the bytes of rep_of(u) and rep_of(twist of u)
#   for every unit u in lexicographic order, or every n-th one above
#   20000 units, n = ceil(units / 20000).
"""


def contexts():
    """(name, class data) in ledger order."""
    out = [(f"trivial p={p}", classdata.trivial(p)) for p in (2, 3, 5, 7)]
    out += [("C_11 p=5", synthetic_cyclic(5, 11, 2)), ("C_43 p=7", synthetic_c43()),
            ("C_3, C_43 p=7", classdata_both_nontrivial())]
    return out


def extensions(p: int) -> list[tuple[str, int]]:
    """(kind, r) of every extension shape at p."""
    return [(kind, r) for kind in lattice.EXTENSION_KINDS
            if kind != "D" or p % 4 == 1 for r in lattice.r_range(kind, p)]


def shapes(p: int) -> list[str]:
    """The DSL text of every indecomposable shape at p, classes 0, unit 1."""
    return ["Z", "b(0)", "c(0)", "Eb(0)", "Ec(0)"] + [f"{kind}(0,0;{r})" for kind, r in extensions(p)]


def twist_shapes(ctx) -> list[str]:
    """The DSL text of single summands the twist moves: class 1 in each
    nontrivial class group, and each extension shape whose U_m is
    nontrivial with the unit 1 + l^d, d the least free degree of U_m."""
    out = []
    for kinds, action in (("b", "Eb"), ctx.H_p), (("c", "Ec"), ctx.H_p2):
        if action.target.rank:
            cls = ":".join(["1"] + ["0"] * (action.target.rank - 1))
            out += [f"{kind}({cls})" for kind in kinds]
    for kind, r in extensions(ctx.p):
        free = ctx.unit_quotient(lattice.unit_index(kind, r, ctx.p)).free_degrees
        if free:
            out.append(f"{kind}(0,0;{r},1+l^{free[0]})")
    return out


def unit_contexts():
    """(name, class data) whose U_m lines the ledger records."""
    return [(f"trivial p={p}", classdata.trivial(p)) for p in (2, 3, 5, 7)] + [
        ("exp(L^3) p=7", exp_l3_extra())]


def unit_digest(ctx, m: int) -> str:
    """The U_m line: m, the order and _digest of U_m."""
    q = ctx.unit_quotient(m)
    return f"{m}\t{q.order}\t{_digest(q)}"


@lru_cache(maxsize=None)
def _digest(q) -> str:
    """The sha256 of the canonical representatives of u and of its twist
    by the primitive root mod p^2, u over the units of F_p[l]/(l^m) in
    lexicographic order.  Quotients compare by identity, so a U_m that
    two contexts share is hashed once."""
    p, m = q.p, q.m
    g = primitive_root(p * p)
    units = (p - 1) * p ** (m - 1) if m else 1
    vectors = itertools.product(range(1, p), *[range(p)] * (m - 1)) if m else [()]
    digest = hashlib.sha256()
    for coeffs in itertools.islice(vectors, 0, None, -(-units // UNIT_SAMPLE)):
        u = PolyMod(p, m, coeffs)
        digest.update(bytes(q.rep_of(u).coeffs))
        digest.update(bytes(q.rep_of(galois_on_unit(g, u)).coeffs))
    return digest.hexdigest()


def _packed(x, keys: dict, name: str):
    """x with each object replaced by its values in sorted-key order (the
    keys recorded in keys[name]) and each list of digits by a string."""
    if isinstance(x, dict):
        keys[name] = sorted(x)
        return [_packed(x[k], keys, k) for k in sorted(x)]
    if isinstance(x, list):
        if all(type(v) is int and 0 <= v <= 9 for v in x):
            return "".join(map(str, x))
        return [_packed(v, keys, name) for v in x]
    return x


def _answers(D, keys: dict, notes: dict) -> str:
    compact = {"separators": (",", ":")}
    report = None
    if lattice.faithfulness(D) == lattice.Faithfulness.FAITHFUL:
        report = genus.report_to_json(genus.genus_report(genus.SemidirectDescriptor(D)))
        report["notes"] = [notes.setdefault(n, len(notes)) for n in report["notes"]]
    text = lattice.render(D)
    twist = lattice.render(galois.twist(D, primitive_root(D.p**2)))
    return "\t".join([
        text,
        str(lattice.t_of(D)),
        json.dumps(_packed(iso.invariants_to_json(iso.invariants_of(D)), keys, "invariants"),
                   **compact),
        json.dumps(_packed(report, keys, "report"), **compact),
        "=" if twist == text else twist,
    ])


def build() -> list[str]:
    """The ledger's lines, header included."""
    keys: dict = {}
    notes: dict = {}
    body = []
    for name, ctx in contexts():
        single = shapes(ctx.p)
        texts = single + [f"{a} + {b}" for a, b in itertools.combinations_with_replacement(single, 2)]
        body.append(f"@ {name}")
        body += [_answers(lattice.parse(text, ctx.p, ctx), keys, notes)
                 for text in texts + twist_shapes(ctx)]
    for name, ctx in unit_contexts():
        body.append(f"@ U_m {name}")
        body += [unit_digest(ctx, m) for m in range(ctx.p + 1)]
    head = HEADER.splitlines()
    head += [f"# {name} keys: {' '.join(k)}" for name, k in sorted(keys.items())]
    head += [f"# note {i}: {n}" for n, i in notes.items()]
    return head + body


def differences(limit: int = 10) -> list[str]:
    """Up to limit lines of the rebuilt ledger that differ from the file,
    each with its line number and context; a length change counts too."""
    recorded = LEDGER.read_text().splitlines()
    out, context = [], ""
    for i, (old, new) in enumerate(itertools.zip_longest(recorded, build()), 1):
        if new is not None and new.startswith("@ "):
            context = new[2:]
        if old != new:
            out.append(f"line {i} ({context or 'header'}):\n  - {old}\n  + {new}")
            if len(out) == limit:
                break
    return out


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        LEDGER.parent.mkdir(exist_ok=True)
        LEDGER.write_text("".join(f"{x}\n" for x in build()))
        return 0
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    diff = differences()
    print("\n".join(diff) if diff else "the ledger matches")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
