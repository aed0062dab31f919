import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import galois, iso, lattice as lat, modring
from cp2genus.errors import Cp2Error

from conftest import (classdata_both_nontrivial, exp_l3_extra, genus_mate, random_descriptor,
                      synthetic_c43)
from oracles import (closure_elements, default_unit_generators, scan_twisted_isomorphic,
                     twist_search)


def test_twist_identity(ctx2, ctx3, ctx5):
    rng = random.Random(3)
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5)):
        for _ in range(20):
            D = random_descriptor(rng, p, ctx)
            assert galois.twist(D, 1) == D


def test_twist_composition_exhaustive(ctx2, ctx3, ctx5):
    rng = random.Random(4)
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5)):
        corpus = [random_descriptor(rng, p, ctx) for _ in range(6)]
        units = galois.galois_units(p)
        for D in corpus:
            for k1 in units:
                for k2 in units:
                    assert galois.twist(galois.twist(D, k2), k1) == \
                        galois.twist(D, (k1 * k2) % (p * p))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_twist_group_law_property(ctx2, ctx3, ctx5, ctx7_synthetic, p, seed, data):
    """twist is an action of (Z/p^2)^*: twist(twist(D, k), l) = twist(D, kl)
    and twist(D, 1) = D, at p = 7 on the synthetic C_43 class group too."""
    ctx = {2: ctx2, 3: ctx3, 5: ctx5, 7: ctx7_synthetic}[p]
    D = random_descriptor(random.Random(seed), p, ctx)
    k = data.draw(st.sampled_from(galois.galois_units(p)))
    l = data.draw(st.sampled_from(galois.galois_units(p)))
    assert galois.twist(D, 1) == D
    assert galois.twist(galois.twist(D, k), l) == galois.twist(D, k * l % (p * p))


def test_twist_preserves_genus_and_rank(ctx3, ctx5):
    rng = random.Random(5)
    for p, ctx in ((3, ctx3), (5, ctx5), (7, synthetic_c43())):
        for _ in range(15):
            D = random_descriptor(rng, p, ctx)
            for k in galois.galois_units(p)[:6]:
                T = galois.twist(D, k)
                assert iso.padic_completion(T) == iso.padic_completion(D)
                assert lat.rank(T) == lat.rank(D)


def test_twist_moves_classes():
    ctx = synthetic_c43()
    D = lat.parse("c(1)", 7, ctx)
    T = galois.twist(D, 3)  # generator residue: multiplication by 3
    assert T.summands[0][0].c == (3,)
    T = galois.twist(D, 9)
    assert T.summands[0][0].c == (9,)


def test_twist_d_tag_and_unit(ctx5):
    D = lat.parse("D(0,0;1,1)", 5, ctx5)
    for k in galois.galois_units(5):
        T = galois.twist(D, k)
        (s, n), = T.summands
        assert s.kind == "D" and n == 1
        assert s.u.constant == 1


def test_twist_rejects_bad_k(ctx5):
    D = lat.parse("Z", 5, ctx5)
    with pytest.raises(Cp2Error):
        galois.twist(D, 5)
    with pytest.raises(Cp2Error):
        galois.twist(D, 0)


def test_quotient_subgroup_is_galois_stable(ctx2, ctx3, ctx5):
    # the subgroup we quotient by must be carried to itself, otherwise
    # the induced action on U_m cosets would be ill-defined
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5)):
        for m in range(1, p + 1):
            q = ctx.unit_quotient(m)
            elements = closure_elements(default_unit_generators(p, m))
            for k in galois.galois_units(p):
                for h in elements:
                    assert q.rep_of(modring.galois_on_unit(k, h)) == modring.one(p, m)


def test_coset_action_well_defined(ctx5):
    # elements of one coset all land in one coset
    q = ctx5.unit_quotient(4)
    sample = sorted(closure_elements(default_unit_generators(5, 4)), key=str)[:10]
    for k in (2, 3, 7):
        for rep in q.reps:
            target = q.rep_of(modring.galois_on_unit(k, rep))
            for h in sample:
                x = modring.poly_mul(rep, h)
                assert q.rep_of(modring.galois_on_unit(k, x)) == target


def test_twisted_isomorphic_reflexive(ctx3, ctx5):
    rng = random.Random(6)
    for p, ctx in ((3, ctx3), (5, ctx5)):
        for _ in range(10):
            D = random_descriptor(rng, p, ctx)
            assert galois.twisted_isomorphic(D, D) == 1


def test_twisted_isomorphic_finds_twist():
    ctx = synthetic_c43()
    rng = random.Random(7)
    for _ in range(10):
        D = random_descriptor(rng, 7, ctx)
        k = rng.choice(galois.galois_units(7))
        T = galois.twist(D, k)
        found = galois.twisted_isomorphic(D, T)
        assert found is not None
        assert iso.isomorphic(D, galois.twist(T, found))


def test_invariant_twist_search_matches_descriptor_search(ctx3, ctx5):
    rng = random.Random(8)
    ts = set()
    for p, ctx in ((3, ctx3), (5, ctx5), (7, synthetic_c43())):
        for _ in range(15):
            D1 = random_descriptor(rng, p, ctx)
            k = rng.choice(galois.galois_units(p))
            D2 = random_descriptor(rng, p, ctx)
            ts |= {(p, lat.t_of(D1)), (p, lat.t_of(D2))}
            for other in (galois.twist(D1, k), D2, D1):
                assert galois.twisted_isomorphic(D1, other) == twist_search(D1, other)
    assert (7, 7) in ts  # a u0 coset in U_7


def test_twisted_isomorphic_negative(ctx3, ctx5):
    # different rank: immediately distinct
    D1 = lat.parse("Z", 3, ctx3)
    D2 = lat.parse("Z + Z", 3, ctx3)
    assert galois.twisted_isomorphic(D1, D2) is None
    # the C/D pair at p=5: same genus but no twist matches
    C = lat.parse("C(0,0;1,1)", 5, ctx5)
    D = lat.parse("D(0,0;1,1)", 5, ctx5)
    assert galois.twisted_isomorphic(C, D) is None


def test_twisted_isomorphic_context_mismatch(ctx3, ctx5):
    with pytest.raises(Cp2Error):
        galois.twisted_isomorphic(lat.parse("Z", 3, ctx3), lat.parse("Z", 5, ctx5))


def search_corpus(rng, ctx2, ctx3, ctx5):
    """(p, D) pairs over trivial data at p <= 5, the synthetic C_43, both
    class groups nontrivial (where the residue filter acts on R classes)
    and the stable extra generator exp(L^3) at p = 7."""
    both = classdata_both_nontrivial()
    out = [(p, random_descriptor(rng, p, ctx))
           for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, synthetic_c43()), (7, both),
                          (7, exp_l3_extra()))
           for _ in range(4)]
    out += [(7, lat.parse(text, 7, both)) for text in ("b(1) + c(1)", "Eb(2) + C(1,5;2)")]
    return out


def test_twisted_isomorphic_matches_scan(ctx2, ctx3, ctx5):
    # D against each of its twists, against itself and against a genus mate
    rng = random.Random(15)
    for p, D in search_corpus(rng, ctx2, ctx3, ctx5):
        twists = [galois.twist(D, k) for k in galois.galois_units(p)]
        for other in twists + [D, genus_mate(rng, D)]:
            found = galois.twisted_isomorphic(D, other)
            assert found == scan_twisted_isomorphic(D, other), (lat.render(D), lat.render(other))
        assert None not in [galois.twisted_isomorphic(D, T) for T in twists]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_twisted_isomorphic_matches_scan_property(ctx2, ctx3, ctx5, ctx7_synthetic, p, seed,
                                                  data):
    ctx = {2: ctx2, 3: ctx3, 5: ctx5, 7: ctx7_synthetic}[p]
    rng = random.Random(seed)
    D = random_descriptor(rng, p, ctx)
    k = data.draw(st.sampled_from(galois.galois_units(p)))
    for other in (galois.twist(D, k), genus_mate(rng, D), random_descriptor(rng, p, ctx)):
        assert galois.twisted_isomorphic(D, other) == scan_twisted_isomorphic(D, other)


def test_search_work_is_linear_in_p(monkeypatch):
    # at most p - 1 coset computations (one per residue, not per unit) and
    # one p-adic completion per descriptor
    ctx, p = synthetic_c43(), 7
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    rng = random.Random(16)
    pairs = []
    for _ in range(20):
        D = random_descriptor(rng, p, ctx)
        pairs += [(D, galois.twist(D, rng.choice(galois.galois_units(p)))), (D, genus_mate(rng, D))]
    monkeypatch.setattr(galois, "galois_on_unit", counted("galois_on_unit", galois.galois_on_unit))
    monkeypatch.setattr(iso, "padic_completion", counted("padic_completion", iso.padic_completion))
    most = 0
    for D1, D2 in pairs:
        calls.clear()
        galois.twisted_isomorphic(D1, D2)
        assert calls["galois_on_unit"] <= p - 1
        assert calls["padic_completion"] == 2
        most = max(most, calls["galois_on_unit"])
    assert most == p - 1  # some searches moved a u0 coset
