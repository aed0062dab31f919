"""Seeded inputs for the benchmark workloads.

Standard library only: this module never imports cp2genus.  It writes
descriptors as DSL text, so the program receives nothing but strings
and argv.  Unit parameters are drawn at random and are usually not the
canonical coset representatives; library workloads therefore parse
leniently and CLI ops pass --lenient-units.

Every workload is a cycle of blocks.  A block holds a fixed number of
ops of each cost class (stratum), shuffled, so that any prefix of a run
has nearly the same mix whatever the seed drew.  The seed picks the
members of each stratum: shapes, ideal classes, units, twists.
"""

from __future__ import annotations

import random

C43_FILE = "perfbench/data/c43.json"  # relative to the checkout root

# orders of (H(Z[zeta_p]), H(Z[zeta_p^2])) in the class data each prime uses
CLASS_ORDERS = {2: (1, 1), 3: (1, 1), 5: (1, 1), 7: (1, 43)}

EXTENSION = ("B", "C", "D", "E", "F")
S_PART = ("c", "Ec") + EXTENSION

EXT_MODULES = ("Z", "R", "E", "Z+R", "Z+E")


def kinds_at(p: int) -> list[str]:
    out = ["Z", "b", "c", "Eb", "Ec", "B", "E", "F"]
    if p >= 3:
        out.append("C")
    if p % 4 == 1:
        out.append("D")
    return out


def r_choices(kind: str, p: int) -> list[int]:
    if kind == "B":
        # B with r = 0 needs U_p; at p = 7 that build alone costs seconds
        return list(range(1 if p == 7 else 0, p))
    if kind in ("C", "D"):
        return list(range(1, p - 1))
    return list(range(0, p - 1))


def unit_index(kind: str, r: int, p: int) -> int:
    return p - r if kind == "B" else p - 1 - r


def rank(kind: str, p: int) -> int:
    return {
        "Z": 1, "b": p - 1, "c": p * (p - 1), "Eb": p, "Ec": p * (p - 1) + 1,
        "B": p * p, "C": p * p + 1, "D": p * p + 1, "E": p * p - 1, "F": p * p,
    }[kind]


def galois_unit(rng: random.Random, p: int) -> int:
    while True:
        k = rng.randrange(1, p * p)
        if k % p:
            return k


def _class(rng: random.Random, order: int) -> str:
    return str(rng.randrange(order)) if order > 1 else "0"


def _unit(rng: random.Random, p: int, m: int):
    if m <= 1 or rng.random() < 0.3:
        return None
    terms = ["1"]
    for j in range(1, m):
        c = rng.randrange(p)
        if c:
            power = "l" if j == 1 else f"l^{j}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms)


def summand_text(rng: random.Random, p: int, kind: str, r: int) -> str:
    """One summand of the given shape with a random class and unit."""
    hp, hp2 = CLASS_ORDERS[p]
    if kind == "Z":
        return "Z"
    if kind in ("b", "Eb"):
        return f"{kind}({_class(rng, hp)})"
    if kind in ("c", "Ec"):
        return f"{kind}({_class(rng, hp2)})"
    u = _unit(rng, p, unit_index(kind, r, p))
    head = f"{kind}({_class(rng, hp)},{_class(rng, hp2)};{r}"
    return head + (f",{u})" if u else ")")


def shape(rng: random.Random, p: int, kinds, n: int) -> list[tuple[str, int]]:
    """n summand shapes (kind, r) with kinds drawn from `kinds`; a shape
    sometimes repeats the one before it."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.2:
            out.append(out[-1])
            continue
        kind = rng.choice(kinds)
        r = rng.choice(r_choices(kind, p)) if kind in EXTENSION else -1
        out.append((kind, r))
    return out


def text(rng: random.Random, p: int, shp) -> str:
    """Descriptor text for a shape; equal summands are written n*X."""
    parts = []
    for i, (kind, r) in enumerate(shp):
        if i and shp[i - 1] == (kind, r) and rng.random() < 0.5:
            parts.append(parts[-1])
        else:
            parts.append(summand_text(rng, p, kind, r))
    out, i = [], 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        out.append(parts[i] if j - i == 1 else f"{j - i}*{parts[i]}")
        i = j
    return " + ".join(out)


def genus_mate(rng: random.Random, p: int, shp) -> list[tuple[str, int]]:
    """The same shape again; C and D may swap, since the genus merges them."""
    out = []
    for kind, r in shp:
        if kind in ("C", "D") and p % 4 == 1 and rng.random() < 0.5:
            kind = "D" if kind == "C" else "C"
        out.append((kind, r))
    return out


def faithful(shp) -> bool:
    return any(kind in S_PART for kind, _ in shp)


def faithful_shape(rng: random.Random, p: int, kinds, n: int):
    while True:
        shp = shape(rng, p, kinds, n)
        if faithful(shp):
            return shp


def blocks(rng: random.Random, slots: list, count: int) -> list:
    """`count` shuffled copies of the stratum slots, flattened."""
    out = []
    for _ in range(count):
        block = list(slots)
        rng.shuffle(block)
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# decide-small: many tiny library queries at p in {2, 3, 5}.  A group-iso
# pair is either a twisted copy (twisted in set-up) or a genus mate, so the
# phi(p^2) twist search runs in full on the pairs that are not isomorphic.

DECIDE_KINDS = ("parse", "render", "invariants", "iso", "genus-eq", "twist",
                "profinite-iso", "genus-count")
DECIDE_SLOTS = (
    [(name, p, False) for name in DECIDE_KINDS for p in (2, 3, 5)]
    + [("group-iso", p, twisted) for p in (2, 3, 5) for twisted in (False, True)]
)
DECIDE_BLOCKS = 40


def _pair(rng, p, faithful_only: bool):
    kinds = kinds_at(p)
    draw = faithful_shape if faithful_only else shape
    s1 = draw(rng, p, kinds, rng.randint(1, 3))
    if rng.random() < 0.5:
        s2 = genus_mate(rng, p, s1)
    else:
        s2 = draw(rng, p, kinds, rng.randint(1, 3))
    return [text(rng, p, s1), text(rng, p, s2)]


def decide_small(seed: int) -> list[dict]:
    rng = random.Random(f"decide-small:{seed}")
    ops = []
    for name, p, twisted in blocks(rng, DECIDE_SLOTS, DECIDE_BLOCKS):
        kinds = kinds_at(p)
        n = rng.randint(1, 3)
        op = {"op": name, "p": p}
        if name in ("iso", "genus-eq"):
            op["d"] = _pair(rng, p, False)
        elif name == "profinite-iso":
            op["d"] = _pair(rng, p, True)
        elif name == "group-iso":
            shp = faithful_shape(rng, p, kinds, n)
            if twisted:
                op["d"] = [text(rng, p, shp)]
                op["k"] = galois_unit(rng, p)
            else:
                op["d"] = [text(rng, p, shp), text(rng, p, genus_mate(rng, p, shp))]
        elif name == "twist":
            op["d"] = [text(rng, p, shape(rng, p, kinds, n))]
            op["k"] = galois_unit(rng, p)
        elif name == "genus-count":
            op["d"] = [text(rng, p, faithful_shape(rng, p, kinds, n))]
        else:
            op["d"] = [text(rng, p, shape(rng, p, kinds, n))]
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# genus-c43: warm genus questions at p = 7 over the synthetic C_43 class
# data.  "heavy" genus shapes are extension-only with t = 6, so the
# enumeration walks all 43 * |U_6| invariant tuples; "light" ones carry a
# c or Ec summand, so the U_t coordinate is not live.

HEAVY_KINDS = (("E", 0), ("F", 0), ("B", 1))
GENUS_SLOTS = (["invariants"] * 4 + ["group-iso"] * 2 + ["group-iso-twisted"] * 2
               + ["orbits"] * 4 + ["genus-light"] * 4 + ["genus-heavy"] * 4)
GENUS_BLOCKS = 4


def genus_c43(seed: int) -> list[dict]:
    rng = random.Random(f"genus-c43:{seed}")
    p, kinds = 7, kinds_at(7)
    ops = []
    for name in blocks(rng, GENUS_SLOTS, GENUS_BLOCKS):
        if name == "invariants":
            ops.append({"op": name, "p": p,
                        "d": [text(rng, p, shape(rng, p, kinds, rng.randint(1, 2)))]})
        elif name.startswith("group-iso"):
            shp = faithful_shape(rng, p, kinds, rng.randint(1, 2))
            if name.endswith("twisted"):
                ops.append({"op": "group-iso", "p": p, "d": [text(rng, p, shp)],
                            "k": galois_unit(rng, p)})
            else:
                ops.append({"op": "group-iso", "p": p,
                            "d": [text(rng, p, shp), text(rng, p, genus_mate(rng, p, shp))]})
        elif name == "orbits":
            ops.append({"op": name, "p": p, "m": rng.randint(1, 6)})
        elif name == "genus-heavy":
            shp = [rng.choice(HEAVY_KINDS) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                shp.append(("Z", -1))
            ops.append({"op": "genus-count", "p": p, "d": [text(rng, p, shp)]})
        else:
            shp = [(rng.choice(("c", "Ec")), -1)] + shape(rng, p, kinds, rng.randint(0, 1))
            ops.append({"op": "genus-count", "p": p, "d": [text(rng, p, shp)]})
    return ops


# ---------------------------------------------------------------------------
# materialize: integer matrix models and Ext groups.  Model sizes are set
# by the stratum: "small" at p in {2, 3}, and one, two or three of the big
# p = 5 summands (ranks 24 to 26) adding up to exactly n = 25, 50 or 75,
# since the cost of validate_rep grows like n^4.

BIG5 = ("B", "C", "D", "E", "F")
MATERIALIZE_SLOTS = (["ext"] * 5 + ["small"] * 3 + ["p5x1"] * 4 + ["p5x2"] * 4
                     + ["p5x3"] * 4)
MATERIALIZE_BLOCKS = 5
MATERIALIZE_N = {1: 25, 2: 50, 3: 75}


def materialize(seed: int) -> list[dict]:
    rng = random.Random(f"materialize:{seed}")
    ext = [(p, x) for p in (2, 3, 5, 7) for x in EXT_MODULES] * 2
    rng.shuffle(ext)
    ops = []
    for name in blocks(rng, MATERIALIZE_SLOTS, MATERIALIZE_BLOCKS):
        if name == "ext":
            p, x = ext.pop()
            ops.append({"op": "ext", "p": p, "x": x})
            continue
        if name == "small":
            p = rng.choice((2, 3))
            shp = shape(rng, p, kinds_at(p), rng.randint(1, 2))
        else:
            p, big = 5, int(name[-1])
            while True:
                shp = shape(rng, p, BIG5, big)
                if sum(rank(kind, p) for kind, _ in shp) == MATERIALIZE_N[big]:
                    break
        ops.append({"op": "validate", "p": p, "d": [text(rng, p, shp)],
                    "n": sum(rank(kind, p) for kind, _ in shp)})
    return ops


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per op.  "base" ops run at p in {2, 3};
# "p5u" ops carry a B(...;0) summand at p = 5, so every one of them builds
# U_5 from scratch; one op per block runs at p = 7 with the C_43 class
# data and builds U_5 there (never U_6 or U_7); "fail" ops must exit 2
# (usage or domain error) or 3 (class data).

SUBCOMMANDS = ("check", "invariants", "padic", "iso", "genus-eq", "twist",
               "group-iso", "profinite-iso", "genus-count", "um", "orbits",
               "materialize")
BOOLEAN = ("iso", "genus-eq", "group-iso", "profinite-iso")  # these take two descriptors
CLI_SLOTS = ["base"] * 11 + ["fail"] * 2 + ["p5u"] * 6 + ["p7"] * 1
CLI_BLOCKS = 4
# p = 7 summands whose unit lives in U_5; with one of them present t <= 5
P7_U5 = (("C", 1), ("E", 1), ("F", 1), ("B", 2))
P7_PLAIN = (("Z", -1), ("b", -1), ("c", -1), ("Eb", -1), ("Ec", -1))
P7_SUBCOMMANDS = ("check", "invariants", "twist", "genus-count", "group-iso",
                  "orbits", "um")


def _fail_ops(rng):
    p = rng.choice((2, 3, 5))
    return [
        (["check", "--p", str(p), "Z + q(0)"], 2),
        (["invariants", "--p", "11", "Z"], 3),
        (["genus-count", "--p", "7", "Z + c(0)"], 3),
        (["group-iso", "--p", str(p), "Z + b(0)", "Z"], 2),
        (["twist", "--p", str(p), "--k", str(p), "Z + c(0)"], 2),
        (["um", "--p", str(p), "--m", str(p + 1)], 2),
        (["iso", "--p", "3", "D(0,0;1)", "Z"], 2),
    ]


def _cli_argv(rng, sub: str, p: int, shapes) -> list[str]:
    argv = [sub, "--p", str(p)]
    if sub in ("um", "orbits"):
        argv += ["--m", str(shapes)]
        if rng.random() < 0.5:
            argv.append("--json")
        return argv
    if sub == "twist":
        argv += ["--k", str(galois_unit(rng, p))]
    argv += [text(rng, p, s) for s in shapes]
    if sub in BOOLEAN and rng.random() < 0.5:
        argv.append("--quiet")
    elif sub not in BOOLEAN and sub != "materialize" and rng.random() < 0.5:
        argv.append("--json")
    if sub == "materialize" and rng.random() < 0.7:
        argv.append("--validate")
    argv.append("--lenient-units")
    return argv


def _cli_shapes(rng, sub: str, p: int, kinds, u_p: bool):
    """Shapes for the descriptors of a subcommand; u_p forces a B(...;0)."""
    if sub in ("um", "orbits"):
        return p if u_p else rng.randint(0, min(p, 5))
    need_faithful = sub in ("group-iso", "profinite-iso", "genus-count")
    n = 2 if sub in BOOLEAN else 1
    out = []
    for _ in range(n):
        if u_p:
            shp = [("B", 0)] + shape(rng, p, kinds, rng.randint(0, 1))
        elif need_faithful:
            shp = faithful_shape(rng, p, kinds, rng.randint(1, 2))
        else:
            shp = shape(rng, p, kinds, rng.randint(1, 2))
        out.append(shp)
    if n == 2 and rng.random() < 0.5:
        out[1] = genus_mate(rng, p, out[0])
    return out


def cli_cold(seed: int) -> list[dict]:
    rng = random.Random(f"cli-cold:{seed}")
    subs: list[str] = []
    ops = []
    for name in blocks(rng, CLI_SLOTS, CLI_BLOCKS):
        if name == "fail":
            argv, rc = rng.choice(_fail_ops(rng))
            ops.append({"op": "cli", "argv": argv, "rc": [rc]})
            continue
        if name == "p7":
            sub = rng.choice(P7_SUBCOMMANDS)
            if sub in ("orbits", "um"):
                argv = _cli_argv(rng, sub, 7, 5)
            else:
                shapes = [[rng.choice(P7_U5)] + rng.sample(P7_U5 + P7_PLAIN, rng.randint(0, 1))
                          for _ in range(2 if sub == "group-iso" else 1)]
                argv = _cli_argv(rng, sub, 7, shapes)
            argv += ["--classdata", C43_FILE]
        else:
            if not subs:
                subs = list(SUBCOMMANDS)
                rng.shuffle(subs)
            sub = subs.pop()
            p = 5 if name == "p5u" else rng.choice((2, 3))
            argv = _cli_argv(rng, sub, p, _cli_shapes(rng, sub, p, kinds_at(p), name == "p5u"))
        ops.append({"op": "cli", "argv": argv, "rc": [0, 1] if "--quiet" in argv else [0]})
    return ops


WORKLOADS = {
    "decide-small": decide_small,
    "genus-c43": genus_c43,
    "materialize": materialize,
    "cli-cold": cli_cold,
}
# ops per block: throughput is taken per block, where the mix is exact
BLOCK = {
    "decide-small": len(DECIDE_SLOTS),
    "genus-c43": len(GENUS_SLOTS),
    "materialize": len(MATERIALIZE_SLOTS),
    "cli-cold": len(CLI_SLOTS),
}
