import itertools
import json
import random

import pytest

from cp2genus import classdata, lattice
from cp2genus.abelian import AbGroup, CyclicAction, primitive_root

from oracles import expand, from_list


@pytest.fixture(scope="session")
def ctx2():
    return classdata.builtin(2)


@pytest.fixture(scope="session")
def ctx3():
    return classdata.builtin(3)


@pytest.fixture(scope="session")
def ctx5():
    return classdata.builtin(5)


def synthetic_c43() -> classdata.ClassData:
    """p = 7 with H(Z[zeta_49]) = C_43 and a declared faithful generator
    action (multiplication by 3, a primitive root mod 43).  Synthetic
    test data, not the true Galois action."""
    data = classdata.ClassData(
        p=7,
        H_p=CyclicAction(AbGroup(()), 7, 3, ()),
        H_p2=CyclicAction(AbGroup((43,)), 49, 3, ((3,),)),
    )
    data.validate()
    return data


def synthetic_cyclic(p: int, q: int, a: int) -> classdata.ClassData:
    """Trivial H_p and H_p2 = C_q, on which the primitive root mod p^2
    acts as multiplication by a (so a^(p(p-1)) = 1 mod q).  Synthetic
    test data, not the true Galois action."""
    g = primitive_root(p * p)
    data = classdata.ClassData(
        p=p,
        H_p=CyclicAction(AbGroup(()), p, g % p, ()),
        H_p2=CyclicAction(AbGroup((q,)), p * p, g, ((a,),)),
    )
    data.validate()
    return data


def classdata_both_nontrivial() -> classdata.ClassData:
    """p = 7 with H_p = C_3 under multiplication by 2 and H_p2 = C_43
    under multiplication by 3, both generated by the residue 3.
    Synthetic test data."""
    data = classdata.ClassData(
        p=7,
        H_p=CyclicAction(AbGroup((3,)), 7, 3, ((2,),)),
        H_p2=CyclicAction(AbGroup((43,)), 49, 3, ((3,),)),
    )
    data.validate()
    return data


def exp_l3_extra() -> classdata.ClassData:
    """Trivial class groups at p = 7 plus the extra R unit generator
    exp(L^3) = 1 + l^3 + 2l^4, L = log(1+l).  It is Galois-stable and
    moves the free degrees of U_4 .. U_6."""
    base = classdata.trivial(7)
    data = classdata.ClassData(7, base.H_p, base.H_p2,
                               extra_R_unit_gens=((1, 0, 0, 1, 2, 0),))
    data.validate()
    return data


C43_CONFIG = {
    "p": 7,
    "H_p": {"invariant_factors": [], "generator_residue": 3, "generator_matrix": []},
    "H_p2": {"invariant_factors": [43], "generator_residue": 3, "generator_matrix": [[3]]},
    "provenance": "synthetic test action on C_43",
}


def _c43_with(where: str, **raw) -> bytes:
    """The C_43 config text with each field key of where ("" for the root)
    set to the JSON text raw[key]."""
    cfg = json.loads(json.dumps(C43_CONFIG))
    for key in raw:
        (cfg[where] if where else cfg)[key] = f"@{key}@"
    text = json.dumps(cfg)
    for key, value in raw.items():
        text = text.replace(f'"@{key}@"', value)
    return text.encode()


# class-data files the loader must refuse with a ConfigError naming the
# field: (file bytes, a pattern of its message).  Each used to crash with
# a traceback or to be coerced into an answer.
MALFORMED_CONFIGS = {
    "residue-1e400": (_c43_with("H_p2", generator_residue="1e400"),
                      "H_p2.generator_residue"),
    # Python's digit limit refuses it while parsing; without the limit
    # (before 3.10.7) the action check does
    "matrix-5000-digits": (_c43_with("H_p2", generator_matrix=f"[[{'9' * 5000}]]"),
                           "invalid JSON|H_p2"),
    "not-utf8": (b'{"p": 7, "provenance": "\xff"}', "invalid JSON"),
    "nested-100000": (_c43_with("", p="[" * 100000 + "]" * 100000), "invalid JSON"),
    # with the string coerced, Z/2 + Z/2 under the identity would load
    "factors-string": (_c43_with("H_p2", invariant_factors='"22"',
                                 generator_matrix="[[1, 0], [0, 1]]"),
                       "H_p2.invariant_factors"),
    "matrix-strings": (_c43_with("H_p2", invariant_factors="[2, 2]",
                                 generator_matrix='["10", "01"]'),
                       r"H_p2\.generator_matrix\[0\]"),
    "residue-3.7": (_c43_with("H_p2", generator_residue="3.7"), "H_p2.generator_residue"),
    "p-7.9": (_c43_with("", p="7.9"), "^p: expected an integer"),
    "residue-true": (_c43_with("H_p", generator_residue="true"), "H_p.generator_residue"),
    "residue-3.0": (_c43_with("H_p2", generator_residue="3.0"), "H_p2.generator_residue"),
    "p-string": (_c43_with("", p='"7"'), "^p: expected an integer"),
    "residue-list": (_c43_with("H_p2", generator_residue="[3]"), "H_p2.generator_residue"),
    "matrix-entry-list": (_c43_with("H_p2", generator_matrix="[[[3]]]"),
                          r"H_p2\.generator_matrix\[0\]\[0\]"),
    "extra-gens-string": (_c43_with("", extra_R_unit_gens='[["1", 0]]'),
                          r"extra_R_unit_gens\[0\]\[0\]"),
    "provenance-number": (_c43_with("", provenance="5"), "provenance"),
    "factors-one": (_c43_with("H_p2", invariant_factors="[1]"),
                    r"H_p2\.invariant_factors: invariant factor 1 must be >= 2"),
    "factors-not-dividing": (_c43_with("H_p2", invariant_factors="[4, 6]",
                                       generator_matrix="[[1, 0], [0, 1]]"),
                             "violate divisibility"),
}


def trivial_config(p, **extra) -> dict:
    """A class-data config with trivial class groups at p, plus any extra
    top-level keys (such as extra unit generators)."""

    def action(i):
        return {"invariant_factors": [], "generator_residue": primitive_root(p**i),
                "generator_matrix": []}

    return {"p": p, "H_p": action(1), "H_p2": action(2),
            "provenance": f"trivial class groups at p={p}", **extra}


@pytest.fixture(scope="session")
def ctx7_synthetic():
    return synthetic_c43()


@pytest.fixture()
def c43_config_file(tmp_path):
    path = tmp_path / "c43.json"
    path.write_text(json.dumps(C43_CONFIG))
    return path


def contexts(ctx2, ctx3, ctx5):
    return {2: ctx2, 3: ctx3, 5: ctx5}


def indecomposable_templates(p, ctx):
    """Every indecomposable descriptor over trivial class data: the five
    plain kinds plus each extension kind for every legal (r, u)."""
    out = [lattice.parse(t, p, ctx) for t in ("Z", "b(0)", "c(0)", "Eb(0)", "Ec(0)")]
    for kind in ("B", "C", "D", "E", "F"):
        if kind == "D" and p % 4 != 1:
            continue
        for r in lattice.r_range(kind, p):
            m = lattice.unit_index(kind, r, p)
            for u in ctx.unit_quotient(m).reps:
                out.append(from_list(p, ctx, [lattice.make_summand(p, ctx, kind, r=r, u=u.coeffs)]))
    return out


def faithful_shapes(p, ctx):
    """Every faithful sum of one or two indecomposable shapes: a plain kind,
    or an extension kind with an exponent r, its classes 0 and unit 1."""
    shapes = [lattice.make_summand(p, ctx, kind) for kind in ("Z", "b", "c", "Eb", "Ec")]
    shapes += [lattice.make_summand(p, ctx, kind, r=r)
               for kind in lattice.EXTENSION_KINDS if kind != "D" or p % 4 == 1
               for r in lattice.r_range(kind, p)]
    combos = [(s,) for s in shapes] + list(itertools.combinations_with_replacement(shapes, 2))
    sums = [from_list(p, ctx, combo) for combo in combos]
    return [D for D in sums if lattice.faithfulness(D) == lattice.Faithfulness.FAITHFUL]


def random_summand(rng: random.Random, p, ctx):
    """A random summand: kind, classes, exponent r and unit."""
    kind = rng.choice(lattice.KINDS)
    if kind == "D" and p % 4 != 1:
        kind = "C"
    if kind in ("C", "D") and p == 2:
        kind = "B"
    Hp, Hp2 = ctx.H_p.target, ctx.H_p2.target
    b = tuple(rng.randrange(f) for f in Hp.factors)
    c = tuple(rng.randrange(f) for f in Hp2.factors)
    if kind == "Z":
        return lattice.make_summand(p, ctx, "Z")
    if kind in ("b", "Eb"):
        return lattice.make_summand(p, ctx, kind, b=b)
    if kind in ("c", "Ec"):
        return lattice.make_summand(p, ctx, kind, c=c)
    r = rng.choice(lattice.r_range(kind, p))
    m = lattice.unit_index(kind, r, p)
    u = rng.choice(ctx.unit_quotient(m).reps).coeffs
    return lattice.make_summand(p, ctx, kind, b=b, c=c, r=r, u=u)


def random_descriptor(rng: random.Random, p, ctx, max_summands=3, faithful=False):
    while True:
        k = rng.randint(1, max_summands)
        D = from_list(p, ctx, [random_summand(rng, p, ctx) for _ in range(k)])
        if not faithful or lattice.faithfulness(D) == lattice.Faithfulness.FAITHFUL:
            return D


def random_multiset(rng: random.Random, p, ctx, max_distinct=4, max_mult=5):
    """A random descriptor of up to max_distinct random summands, each
    with a multiplicity up to max_mult (a summand drawn twice merges)."""
    pairs = [(random_summand(rng, p, ctx), rng.randint(1, max_mult))
             for _ in range(rng.randint(1, max_distinct))]
    return lattice.descriptor(p, ctx, pairs)


def genus_mate(rng: random.Random, D):
    """A random descriptor in the genus of D: every summand keeps its kind
    and exponent r and gets random ideal classes and unit parameter."""
    p, ctx = D.p, D.context
    summands = []
    for s in expand(D):
        b = c = u = None
        if s.b is not None:
            b = tuple(rng.randrange(f) for f in ctx.H_p.target.factors)
        if s.c is not None:
            c = tuple(rng.randrange(f) for f in ctx.H_p2.target.factors)
        if s.u is not None:
            u = rng.choice(ctx.unit_quotient(lattice.unit_index(s.kind, s.r, p)).reps).coeffs
        summands.append(lattice.make_summand(p, ctx, s.kind, b=b, c=c, r=s.r, u=u))
    return from_list(p, ctx, summands)
