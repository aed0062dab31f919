import random

import pytest

from cp2genus import galois, iso, lattice as lat, modring
from cp2genus.errors import Cp2Error

from conftest import indecomposable_templates, random_descriptor, synthetic_c43


def test_padic_merges_c_and_d(ctx5):
    A = lat.parse("C(0,0;1) + E(0,0;0)", 5, ctx5)
    B = lat.parse("D(0,0;1) + E(0,0;0)", 5, ctx5)
    assert iso.padic_completion(A) == iso.padic_completion(B)
    assert iso.same_genus(A, B)


def test_padic_forgets_classes_and_units():
    ctx = synthetic_c43()
    assert iso.padic_completion(lat.parse("c(5)", 7, ctx)) == \
        iso.padic_completion(lat.parse("c(0)", 7, ctx))


def test_padic_of_trivial(ctx3):
    pd = iso.padic_completion(lat.parse("4*Z", 3, ctx3))
    assert pd.a == 4 and pd.nR == pd.nE == pd.nS == pd.nZS == 0
    assert pd.beta == (0, 0, 0) and pd.cd == (0,)


@pytest.mark.parametrize("p,want", [(2, 9), (3, 13), (5, 21)])
def test_indecomposable_padic_count(p, want, ctx2, ctx3, ctx5):
    ctx = {2: ctx2, 3: ctx3, 5: ctx5}[p]
    classes = {iso.padic_completion(D) for D in indecomposable_templates(p, ctx)}
    assert len(classes) == want == 4 * p + 1


def test_same_genus_examples(ctx5):
    D = lat.parse("Z + E(0,0;1)", 5, ctx5)
    assert iso.same_genus(D, D)
    assert iso.same_genus(
        lat.parse("C(0,0;1,1)", 5, ctx5), lat.parse("D(0,0;1,1)", 5, ctx5)
    )
    assert not iso.same_genus(lat.parse("Z", 5, ctx5), lat.parse("b(0)", 5, ctx5))


def test_invariants_trivial_module(ctx5):
    inv = iso.invariants_of(lat.parse("3*Z", 5, ctx5))
    assert inv.u0_class == modring.one(5, 4)  # coset invariant applies, u0 = 1
    assert inv.quad_char is None              # blocked by the Z summands
    assert inv.t == 4


def test_invariants_quad_char(ctx5):
    inv = iso.invariants_of(lat.parse("D(0,0;1,1)", 5, ctx5))
    assert inv.quad_char == -1   # n0 = 2 is a non-residue mod 5
    inv = iso.invariants_of(lat.parse("C(0,0;1,1)", 5, ctx5))
    assert inv.quad_char == 1
    inv = iso.invariants_of(lat.parse("C(0,0;1,1) + D(0,0;1,1)", 5, ctx5))
    assert inv.quad_char == -1   # single n0 factor
    inv = iso.invariants_of(lat.parse("2*D(0,0;1,1)", 5, ctx5))
    assert inv.quad_char == 1    # n0^2 is a square


def test_invariants_presence_blockers(ctx5):
    # a b summand blocks the coset invariant; an F summand blocks quad_char
    inv = iso.invariants_of(lat.parse("b(0) + C(0,0;1)", 5, ctx5))
    assert inv.u0_class is None and inv.quad_char is not None
    inv = iso.invariants_of(lat.parse("F(0,0;0) + C(0,0;1)", 5, ctx5))
    assert inv.u0_class is not None and inv.quad_char is None
    inv = iso.invariants_of(lat.parse("Ec(0) + C(0,0;1)", 5, ctx5))
    assert inv.u0_class is None and inv.quad_char is None


def test_isomorphic_examples(ctx2, ctx5):
    assert not iso.isomorphic(
        lat.parse("C(0,0;1,1)", 5, ctx5), lat.parse("D(0,0;1,1)", 5, ctx5)
    )
    assert iso.isomorphic(lat.parse("c(0)", 2, ctx2), lat.parse("c(0)", 2, ctx2))


def test_isomorphic_context_mismatch(ctx3, ctx5):
    with pytest.raises(Cp2Error):
        iso.isomorphic(lat.parse("Z", 3, ctx3), lat.parse("Z", 5, ctx5))


def test_isomorphic_is_equivalence(ctx3, ctx5):
    rng = random.Random(13)
    for p, ctx in ((3, ctx3), (5, ctx5)):
        corpus = [random_descriptor(rng, p, ctx) for _ in range(30)]
        for D in corpus:
            assert iso.isomorphic(D, D)
        for D1 in corpus[:12]:
            for D2 in corpus[:12]:
                assert iso.isomorphic(D1, D2) == iso.isomorphic(D2, D1)
                if iso.isomorphic(D1, D2):
                    assert iso.same_genus(D1, D2)  # invariant (i) included


def test_presence_pattern_is_genus_determined(ctx5):
    rng = random.Random(14)
    corpus = [random_descriptor(rng, 5, ctx5) for _ in range(40)]
    for D1 in corpus:
        for D2 in corpus:
            if iso.same_genus(D1, D2):
                i1, i2 = iso.invariants_of(D1), iso.invariants_of(D2)
                assert (i1.u0_class is None) == (i2.u0_class is None)
                assert (i1.quad_char is None) == (i2.quad_char is None)


def test_isomorphism_respects_classes():
    ctx = synthetic_c43()
    D1 = lat.parse("Z + c(1)", 7, ctx)
    D2 = lat.parse("Z + c(2)", 7, ctx)
    assert iso.same_genus(D1, D2)
    assert not iso.isomorphic(D1, D2)
    # but a twist by the class-group generator matches them
    assert galois.twisted_isomorphic(D1, lat.parse("c(1) + Z", 7, ctx)) == 1


def test_u0_coset_distinguishes(ctx5):
    # B(r=0) summands carry a unit in U~_5; different cosets, non-isomorphic
    reps = ctx5.unit_quotient(5).reps
    u1, u2 = reps[0].coeffs, reps[1].coeffs
    D1 = lat.descriptor(5, ctx5, [(lat.make_summand(5, ctx5, "B", r=0, u=u1), 1)])
    D2 = lat.descriptor(5, ctx5, [(lat.make_summand(5, ctx5, "B", r=0, u=u2), 1)])
    assert iso.same_genus(D1, D2)
    assert not iso.isomorphic(D1, D2)


def test_invariants_json(ctx5):
    inv = iso.invariants_of(lat.parse("C(0,0;1,1)", 5, ctx5))
    obj = iso.invariants_to_json(inv)
    assert obj["quad_char"] == 1 and obj["t"] == 3
    assert obj["padic"]["CD"] == [1, 0, 0]
