import json
import random

import pytest

from cp2genus import classdata, lattice
from cp2genus.abelian import AbGroup, CyclicAction, primitive_root


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
        H_p=CyclicAction(AbGroup(()), 7, 6, 3, ()),
        H_p2=CyclicAction(AbGroup((43,)), 49, 42, 3, ((3,),)),
        provenance="synthetic test action on C_43",
    )
    data.validate()
    return data


C43_CONFIG = {
    "p": 7,
    "H_p": {"invariant_factors": [], "generator_residue": 3, "generator_matrix": []},
    "H_p2": {"invariant_factors": [43], "generator_residue": 3, "generator_matrix": [[3]]},
    "provenance": "synthetic test action on C_43",
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
                out.append(
                    lattice.descriptor(
                        p, ctx, [lattice.make_summand(p, ctx, kind, r=r, u=u)]
                    )
                )
    return out


def random_summand(rng: random.Random, p, ctx, max_m=None):
    """A random summand; max_m caps the index m of its unit quotient U_m."""
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
    r = rng.choice([r for r in lattice.r_range(kind, p)
                    if max_m is None or lattice.unit_index(kind, r, p) <= max_m])
    m = lattice.unit_index(kind, r, p)
    u = rng.choice(ctx.unit_quotient(m).reps)
    return lattice.make_summand(p, ctx, kind, b=b, c=c, r=r, u=u)


def random_descriptor(rng: random.Random, p, ctx, max_summands=3, faithful=False,
                      max_m=None):
    while True:
        k = rng.randint(1, max_summands)
        D = lattice.descriptor(
            p, ctx, [random_summand(rng, p, ctx, max_m) for _ in range(k)]
        )
        if not faithful or lattice.faithfulness(D) == lattice.Faithfulness.FAITHFUL:
            return D
