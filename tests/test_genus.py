import itertools
import math
import random
from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from cp2genus import abelian, classdata, galois, genus, iso, lattice as lat, modring
from cp2genus.errors import EnumerationGuard, NotFaithful

from conftest import (classdata_both_nontrivial, exp_l3_extra, faithful_shapes,
                      indecomposable_templates, random_descriptor, synthetic_c43,
                      synthetic_cyclic)
from oracles import (
    act_on_invariants,
    brute_fixed_counts,
    brute_orbit_genus_count,
    brute_ut_orbit_count,
    census_genus_count,
    diagonal_orbits,
    orbits,
    per_coordinate_fold,
    per_power,
    walk_ut_fixed_counts,
)

SD = genus.SemidirectDescriptor


def test_group_isomorphic_examples(ctx5):
    E1 = SD(lat.parse("C(0,0;1,1)", 5, ctx5))
    E2 = SD(lat.parse("D(0,0;1,1)", 5, ctx5))
    assert genus.group_isomorphic(E1, E1)
    assert not genus.group_isomorphic(E1, E2)
    assert genus.profinite_isomorphic(E1, E2)
    assert genus.profinite_isomorphic(E1, E1)


def test_not_faithful_errors(ctx3):
    E = SD(lat.parse("Z + b(0)", 3, ctx3))
    with pytest.raises(NotFaithful):
        genus.group_isomorphic(E, E)
    with pytest.raises(NotFaithful):
        genus.profinite_isomorphic(E, E)


def test_profinite_differs_on_beta(ctx5):
    E1 = SD(lat.parse("B(0,0;0)", 5, ctx5))
    E2 = SD(lat.parse("B(0,0;1)", 5, ctx5))
    assert not genus.profinite_isomorphic(E1, E2)


def test_enumerate_genus_counts(ctx3, ctx5):
    assert len(genus.enumerate_genus(lat.parse("c(0)", 3, ctx3))) == 1
    assert len(genus.enumerate_genus(lat.parse("C(0,0;1,1)", 5, ctx5))) == 2
    assert len(genus.enumerate_genus(lat.parse("4*Z", 5, ctx5))) == 1


def test_enumerate_genus_guard():
    # p = 13, H_p2 = C_3 under the identity: B(0,0;0) has t = 13, and its
    # genus is the 1 R class, the 3 S classes and the 13^5 cosets of U_13,
    # above the guard, so it is refused before any tuple is listed
    D = lat.parse("B(0,0;0)", 13, synthetic_cyclic(13, 3, 1))
    assert D.moving_coordinates == ("R_class", "S_class", "u0_class")
    with pytest.raises(EnumerationGuard, match=f"genus of size {3 * 13**5} exceeds"):
        genus.enumerate_genus(D)


def test_orbit_genus_count_examples(ctx3, ctx5):
    assert genus.orbit_genus_count(lat.parse("c(0)", 3, ctx3)) == 1
    assert genus.orbit_genus_count(lat.parse("C(0,0;1,1)", 5, ctx5)) == 2
    assert genus.orbit_genus_count(lat.parse("Z + C(0,0;1,1)", 5, ctx5)) == 1


def test_closed_form_cases(ctx2, ctx3, ctx5):
    cases = [
        (3, "3*Z", 1, genus.CASE_TRIVIAL),
        (3, "Z + b(0)", 1, genus.CASE_NONFAITHFUL),
        (3, "Z + c(0)", 1, genus.CASE_SO_CS),
        (3, "Z + 2*Ec(0)", 1, genus.CASE_SO_CS),
        (3, "b(0) + c(0)", 1, genus.CASE_CS_BS),
        (3, "Eb(0) + B(0,0;0)", 1, genus.CASE_CS_BS),
        (3, "Z + B(0,0;1)", 1, genus.CASE_SEM_ABSORCAO),
        (2, "E(0,0;0)", 1, genus.CASE_SEM_ABSORCAO),
        (5, "C(0,0;1)", 2, genus.CASE_MAIS_SIMPLES),
        (5, "Z + C(0,0;1)", 1, genus.CASE_MAIS_SIMPLES),
        # t = 4 and U_4 has two Galois orbits, hence 2 even without a C/D part
        (5, "E(0,0;0)", 2, genus.CASE_MAIS_SIMPLES),
        (5, "E(0,0;3)", 1, genus.CASE_MAIS_SIMPLES),
        (5, "b(0) + C(0,0;1)", 2, genus.CASE_COM_BC),
        (5, "c(0) + E(0,0;1)", 1, genus.CASE_COM_BC),
        (5, "b(0) + c(0)", 1, genus.CASE_COM_BC),
        (5, "Z + b(0) + c(0)", 1, genus.CASE_ULTIMAO),
        (5, "Eb(0) + Ec(0)", 1, genus.CASE_ULTIMAO),
        (5, "b(0) + B(0,0;0)", 1, genus.CASE_ULTIMAO),
        (5, "c(0) + F(0,0;0)", 1, genus.CASE_ULTIMAO),
    ]
    ctxs = {2: ctx2, 3: ctx3, 5: ctx5}
    for p, text, value, tag in cases:
        E = SD(lat.parse(text, p, ctxs[p]))
        assert genus.closed_form_count(E) == (value, tag), (p, text)


def test_closed_form_unsupported_shape(ctx5):
    E = SD(lat.parse("Ec(0) + C(0,0;1)", 5, ctx5))
    assert genus.closed_form_count(E) is None
    rep = genus.genus_report(E)
    assert rep.closed_form is None and rep.enumeration == 1
    assert any("no closed-form case" in n for n in rep.notes)


def test_genus_report_agreement(ctx2, ctx3, ctx5):
    rng = random.Random(21)
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5)):
        for _ in range(20):
            D = random_descriptor(rng, p, ctx, faithful=True)
            rep = genus.genus_report(SD(D))
            assert rep.enumeration is not None
            if rep.closed_form is not None:
                assert rep.agree is True, lat.render(D)
            assert rep.bounds[0] <= rep.value <= rep.bounds[1]
            assert not any("violates" in n for n in rep.notes)


def test_genus_report_counts_without_guard(ctx5):
    # the orbit engine lists nothing, so the report always carries its value
    E = SD(lat.parse("B(0,0;0)", 5, ctx5))
    rep = genus.genus_report(E)
    assert rep.enumeration == rep.closed_form[0] == rep.value == 2
    assert not any("enumeration skipped" in n for n in rep.notes)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_orbit_count_twist_invariant_property(p, seed, data):
    ctx = classdata.builtin(p)
    D = random_descriptor(random.Random(seed), p, ctx)
    k = data.draw(st.sampled_from(galois.galois_units(p)))
    assert genus.orbit_genus_count(galois.twist(D, k)) == genus.orbit_genus_count(D)


def test_orbit_count_twist_invariant(ctx3, ctx5):
    rng = random.Random(22)
    for p, ctx in ((3, ctx3), (5, ctx5)):
        for _ in range(10):
            D = random_descriptor(rng, p, ctx)
            base = genus.orbit_genus_count(D)
            for k in galois.galois_units(p)[:5]:
                assert genus.orbit_genus_count(galois.twist(D, k)) == base


def test_group_iso_implies_profinite(ctx5):
    rng = random.Random(23)
    for _ in range(20):
        D1 = random_descriptor(rng, 5, ctx5, faithful=True)
        D2 = random_descriptor(rng, 5, ctx5, faithful=True)
        if genus.group_isomorphic(SD(D1), SD(D2)):
            assert genus.profinite_isomorphic(SD(D1), SD(D2))


# --- nontrivial class data (synthetic C_43 at p=7) ------------------------


def test_c43_so_cs():
    ctx = synthetic_c43()
    E = SD(lat.parse("Z + c(0)", 7, ctx))
    rep = genus.genus_report(E)
    assert rep.closed_form == (2, genus.CASE_SO_CS)
    assert rep.enumeration == 2
    assert rep.agree is True


def test_c43_cs_bs():
    ctx = synthetic_c43()
    E = SD(lat.parse("b(0) + c(0)", 7, ctx))
    rep = genus.genus_report(E)
    assert rep.closed_form == (2, genus.CASE_CS_BS)   # orbits: 1 x 2
    assert rep.enumeration == 2 and rep.agree is True


def test_c43_sem_absorcao():
    ctx = synthetic_c43()
    # r = 6 keeps t = 1, so the unit factor is trivial
    E = SD(lat.parse("B(0,0;6)", 7, ctx))
    rep = genus.genus_report(E)
    assert rep.closed_form == (2, genus.CASE_SEM_ABSORCAO)
    assert rep.enumeration == 2 and rep.agree is True


def test_c43_matches_diagonal_orbit_oracle():
    ctx = synthetic_c43()
    D = lat.parse("Ec(1)", 7, ctx)
    # genus tuples: S-class runs over C_43, everything else fixed
    assert genus.orbit_genus_count(D) == diagonal_orbits(49, (ctx.H_p2,), ())


def test_orbit_engine_matches_walk_nontrivial_classes():
    rng = random.Random(41)
    for ctx in (synthetic_c43(), classdata_both_nontrivial()):
        for _ in range(25):
            D = random_descriptor(rng, 7, ctx, faithful=True)
            assert genus.orbit_genus_count(D) == brute_orbit_genus_count(D), lat.render(D)


def test_p5_cyclic_class_data_pins_the_closed_form_split():
    # H_{p^2} = C_11 under x2 and C_41 under x36 at p = 5: the closed form
    # of B(0,0;1) disagrees with the orbit engine, and the package's own
    # isomorphism verdicts side with the engine.  Every lattice B(0,c;1,u)
    # lies in one genus with distinct invariants, and grouping them by
    # twisted isomorphism gives the engine's count.  These are the current
    # answers; the closed form is the one the ROADMAP expects to change.
    assert lat.unit_index("B", 1, 5) == 4
    for q, a, closed, engine in ((11, 2, 4, 5), (41, 36, 6, 12)):
        ctx = synthetic_cyclic(5, q, a)
        rep = genus.genus_report(SD(lat.parse("B(0,0;1)", 5, ctx)))
        assert rep.closed_form == (closed, genus.CASE_MAIS_SIMPLES)
        assert (rep.enumeration, rep.agree) == (engine, False)
        lattices = [
            lat.descriptor(5, ctx, [(lat.make_summand(5, ctx, "B", b=(), c=(c,), r=1, u=u), 1)])
            for c in range(q) for u in ctx.unit_quotient(4).reps
        ]
        assert len(lattices) == 5 * q
        assert all(iso.same_genus(lattices[0], D) for D in lattices)
        assert len({iso.invariants_of(D) for D in lattices}) == len(lattices)
        classes = []
        for D in lattices:
            if not any(galois.twisted_isomorphic(first, D) is not None for first in classes):
                classes.append(D)
        assert len(classes) == engine, q


@st.composite
def cyclic_class_data(draw):
    """Synthetic class data at p in {3, 5}: H_{p^2} = C_q under
    multiplication by a random a with a^(p(p-1)) = 1 mod q."""
    p = draw(st.sampled_from([3, 5]))
    q = draw(st.integers(2, 60))
    order = p * (p - 1)
    a = draw(st.sampled_from([a for a in range(1, q)
                              if math.gcd(a, q) == 1 and pow(a, order, q) == 1]))
    return synthetic_cyclic(p, q, a)


@settings(max_examples=60, deadline=None)
@given(cyclic_class_data(), st.integers(0, 2**32 - 1))
def test_orbit_engine_matches_walk_on_cyclic_class_data(ctx, seed):
    for A in (ctx.H_p, ctx.H_p2):
        assert per_power(A.fixed_counts, A.acting_order) == brute_fixed_counts(A)
    rng = random.Random(seed)
    for _ in range(3):
        D = random_descriptor(rng, ctx.p, ctx, faithful=True)
        assert genus.orbit_genus_count(D) == brute_orbit_genus_count(D), lat.render(D)


def test_ut_orbit_count_matches_walk(ctx2, ctx3, ctx5):
    for p, ctx, ms in ((2, ctx2, range(3)), (3, ctx3, range(4)), (5, ctx5, range(6)),
                       (7, synthetic_c43(), range(7)), (7, exp_l3_extra(), range(7))):
        for m in ms:
            for _ in range(2):  # the second read comes from the cache
                assert genus.ut_orbit_count(ctx, m) == brute_ut_orbit_count(ctx, m), (p, m)


def test_ut_fixed_counts_match_walk():
    # the closed form in the free degrees against the cycle type of the
    # Galois permutation of the listed cosets; exp(L^3) = 1 + l^3 + 2l^4
    # (L = log(1+l)) is a Galois-stable extra generator that moves the
    # free degrees of U_4 .. U_6 at p = 7
    for ctx in [classdata.trivial(p) for p in (2, 3, 5, 7, 11)] + [exp_l3_extra()]:
        for t in range(ctx.p + 1):
            fixed = per_power(genus._ut_fixed_counts(ctx, t), ctx.p * (ctx.p - 1))
            assert fixed == walk_ut_fixed_counts(ctx, t), (ctx, t)


def test_cached_orbit_counts_match_walk(ctx2, ctx3, ctx5, monkeypatch):
    # the orbit counts cached on each CyclicAction (per (context, t) on
    # U_t: test_ut_orbit_count_matches_walk) equal the walked orbits, also
    # when read a second time; the first genus report on a context calls
    # burnside_count four times, all in the one fold of its genus shape
    # (the engine and the R class, S class and U_t sets, which the bounds
    # read too), and a second report reads the kept fold without calling it
    for ctx in (ctx2, ctx3, ctx5, synthetic_c43(), classdata_both_nontrivial()):
        for A in (ctx.H_p, ctx.H_p2):
            assert abelian.orbit_count(A) == abelian.orbit_count(A) == len(orbits(A))
    calls = []

    def counted(fixed, order):
        calls.append(order)
        return burnside(fixed, order)

    burnside = abelian.burnside_count
    monkeypatch.setattr(abelian, "burnside_count", counted)
    monkeypatch.setattr(genus, "burnside_count", counted)
    c43 = synthetic_c43()  # a context no fold has seen: its own provenance
    ctx = classdata.ClassData(7, c43.H_p, c43.H_p2, provenance="unseen C_43 context")
    E = SD(lat.parse("E(0,0;1) + Z", 7, ctx))
    assert lat.t_of(E.module) == 5
    assert E.module.moving_coordinates == ("R_class", "S_class", "u0_class")
    genus.genus_report(E)
    assert calls == [42] * 4
    calls.clear()
    genus.genus_report(E)
    assert calls == []


@pytest.mark.parametrize("make", [
    lambda: classdata.trivial(2), lambda: classdata.trivial(3), lambda: classdata.trivial(5),
    lambda: classdata.trivial(7), lambda: synthetic_cyclic(5, 11, 2), synthetic_c43,
    classdata_both_nontrivial,
], ids=["trivial-p2", "trivial-p3", "trivial-p5", "trivial-p7", "p5-C11", "C43", "both"])
def test_kept_fold_matches_per_coordinate_fold(make):
    # the fold kept per (class data, moving coordinates, t) gives the
    # engine and each set's orbit count as a fresh fold over the
    # coordinate sets does, for every subset of the four coordinates and
    # every t <= p; its R class count, Burnside over the divisors of
    # p(p-1), is the class group's own count over p - 1; and the bounds
    # are the product formula of the class groups' and U_t's own counts
    ctx = make()
    p = ctx.p
    names = ("R_class", "S_class", "u0_class", "quad_char")
    for size in range(len(names) + 1):
        for live in itertools.combinations(names, size):
            for t in range(1, p + 1):
                assert genus._genus_fold(ctx, live, t) == per_coordinate_fold(ctx, live, t), (
                    live, t)
    hp, hp2 = abelian.orbit_count(ctx.H_p), abelian.orbit_count(ctx.H_p2)
    for r in range(p):  # B(0,0;r) has t = p - r
        D = lat.descriptor(p, ctx, [(lat.make_summand(p, ctx, "B", r=r), 1)])
        assert lat.t_of(D) == p - r
        assert genus.genus_bounds(SD(D)) == (
            hp2, 2 * hp * hp2 * brute_ut_orbit_count(ctx, p - r)), r


def test_fixed_coset_coordinate_is_one_on_sums_of_z(ctx2, ctx3, ctx5):
    # the u0 coset is a coordinate the action moves whenever an extension
    # summand is present; where the coset invariant applies without one,
    # the module is a sum of Z's and its u0 = 1 is fixed by every ring map
    rng = random.Random(27)
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, synthetic_c43())):
        samples = [random_descriptor(rng, p, ctx) for _ in range(200)]
        assert p < 7 or any(lat.t_of(D) == 7 for D in samples)  # a u0 coset in U_7
        samples += [lat.parse(f"{n}*Z", p, ctx) for n in (1, 3)]
        fixed = [D for D in samples if lat.u0_coset_applies(D)
                 and not any(s.kind in lat.EXTENSION_KINDS for s, _ in D.summands)]
        assert fixed
        for D in fixed:
            assert all(s.kind == "Z" for s, _ in D.summands), lat.render(D)
            u = iso.invariants_of(D).u0_class
            assert u == modring.one(p, lat.t_of(D))
            assert all(modring.galois_on_unit(k, u) == u for k in galois.galois_units(p))
            assert "u0_class" not in D.moving_coordinates


def test_c43_group_iso_by_twist():
    ctx = synthetic_c43()
    E1 = SD(lat.parse("Z + c(1)", 7, ctx))
    E2 = SD(lat.parse("Z + c(3)", 7, ctx))   # c(3) = twist of c(1) by k=3
    E3 = SD(lat.parse("Z + c(2)", 7, ctx))   # 2 is not a power of 3 times 1... check below
    assert genus.group_isomorphic(E1, E2)
    # 2 = 3^d mod 43 has a solution iff 2 is in <3> = all of (Z/43)^*,
    # but the acting exponents d are restricted to images of (Z/49)^*;
    # multiplication by 3 realizes 3^d for d in [0, 42) so every class is
    # reachable: the genus of c(1) is a single group-iso class
    assert genus.group_isomorphic(E1, E3)


def test_exhaustive_small_shapes_engines_agree(ctx2, ctx3, ctx5):
    # every module made of one or two indecomposables over trivial class
    # data: wherever a closed-form case matches, it must equal the
    # Burnside orbit engine, which must equal the orbit walk over the
    # listed genus; the rest must still be counted
    expected_enum_only = {2: 0, 3: 0, 5: 70}
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5)):
        templates = indecomposable_templates(p, ctx)
        shapes = [(t,) for t in templates]
        shapes += list(itertools.combinations_with_replacement(templates, 2))
        enum_only = 0
        for combo in shapes:
            M = lat.descriptor(p, ctx, [pair for D in combo for pair in D.summands])
            rep = genus.genus_report(SD(M))
            assert rep.enumeration == brute_orbit_genus_count(M), lat.render(M)
            if rep.closed_form is None:
                enum_only += 1
            else:
                assert rep.agree is True, lat.render(M)
        assert enum_only == expected_enum_only[p]


def test_twist_commutes_with_invariants(ctx3, ctx5):
    # the square behind orbit counting: computing invariants of a twisted
    # descriptor equals acting on the invariants of the original
    rng = random.Random(31)
    for p, ctx in ((3, ctx3), (5, ctx5), (7, synthetic_c43())):
        for _ in range(12):
            D = random_descriptor(rng, p, ctx)
            base = iso.invariants_of(D)
            for k in galois.galois_units(p)[:6]:
                left = iso.invariants_of(galois.twist(D, k))
                right = act_on_invariants(ctx, k, base)
                assert left == right, (p, lat.render(D), k)


def test_doubly_nontrivial_data_disagreement_is_reported():
    # with both class groups nontrivial the closed-form product of
    # separate orbit counts can differ from the diagonal orbit count;
    # the report must surface this, and the enumeration side must match
    # the independent Burnside oracle
    data = classdata_both_nontrivial()
    E = SD(lat.parse("b(0) + c(0)", 7, data))
    rep = genus.genus_report(E)
    assert rep.closed_form == (4, genus.CASE_CS_BS)
    assert rep.enumeration == 5
    assert rep.agree is False
    assert any("disagree" in n for n in rep.notes)
    assert rep.enumeration == diagonal_orbits(49, (data.H_p, data.H_p2), ())
    lo, hi = rep.bounds
    assert lo <= rep.closed_form[0] <= hi and lo <= rep.enumeration <= hi


def test_genus_bounds_values(ctx5):
    E = SD(lat.parse("C(0,0;1)", 5, ctx5))
    lo, hi = genus.genus_bounds(E)
    assert lo == 1 and hi == 2
    ctx = synthetic_c43()
    E = SD(lat.parse("B(0,0;6)", 7, ctx))
    lo, hi = genus.genus_bounds(E)
    assert lo == 2 and hi == 4


# --- the census: the genus realized as descriptors, grouped by twist ------


CENSUS_DATA = {
    "p3": lambda: classdata.builtin(3),
    "p5": lambda: classdata.builtin(5),
    "p5-C11": lambda: synthetic_cyclic(5, 11, 2),
    "p5-C41": lambda: synthetic_cyclic(5, 41, 36),
    "p7": lambda: classdata.trivial(7),
    "p7-C43": synthetic_c43,
}


@pytest.mark.parametrize("data, n_shapes, closed_form_misses", [
    ("p3", 95, {}),
    ("p5", 315, {}),
    ("p5-C11", 315, {genus.CASE_MAIS_SIMPLES: 18}),
    pytest.param("p5-C41", 315, {genus.CASE_MAIS_SIMPLES: 18}, marks=pytest.mark.slow),
    pytest.param("p7", 455, {}, marks=pytest.mark.slow),
    pytest.param("p7-C43", 455, {genus.CASE_SEM_ABSORCAO: 102}, marks=pytest.mark.slow),
], ids=list(CENSUS_DATA))
def test_census_matches_engine_on_small_shapes(data, n_shapes, closed_form_misses):
    # over the faithful shapes of at most two summands the orbit engine
    # equals the census, and the closed form misses it on exactly these
    # numbers of shapes per case
    ctx = CENSUS_DATA[data]()
    shapes = faithful_shapes(ctx.p, ctx)
    assert len(shapes) == n_shapes
    misses = Counter()
    for D in shapes:
        census = census_genus_count(D)
        assert genus.orbit_genus_count(D) == census, lat.render(D)
        closed = genus.closed_form_count(SD(D))
        if closed is not None and closed[0] != census:
            misses[closed[1]] += 1
    assert misses == closed_form_misses


@settings(max_examples=40, deadline=None)
@given(cyclic_class_data(), st.integers(0, 2**32 - 1))
def test_census_matches_engine_on_cyclic_class_data(ctx, seed):
    D = random_descriptor(random.Random(seed), ctx.p, ctx, faithful=True)
    assert genus.orbit_genus_count(D) == census_genus_count(D), lat.render(D)


def test_closed_form_lies_within_bounds_on_small_shapes():
    # why genus_report checks only the engine against the bounds: on a
    # faithful module the S class moves, so the closed form's product of
    # orbit counts lies between orb(S) and 2 orb(R) orb(S) orb(U_t)
    checked = 0
    for ctx in [classdata.trivial(p) for p in (2, 3, 5)] + [
            synthetic_cyclic(5, 11, 2), synthetic_cyclic(5, 41, 36), synthetic_c43(),
            classdata_both_nontrivial()]:
        for D in faithful_shapes(ctx.p, ctx):
            assert "S_class" in D.moving_coordinates, lat.render(D)
            closed = genus.closed_form_count(SD(D))
            lo, hi = genus.genus_bounds(SD(D))
            if closed is not None:
                assert lo <= closed[0] <= hi, lat.render(D)
            checked += 1
    assert checked == 1995


def test_closed_form_case_names_per_shape(ctx3, ctx5):
    # how many faithful shapes of at most two summands each case covers
    for ctx, expected in (
        (ctx5, {genus.CASE_SO_CS: 7, genus.CASE_MAIS_SIMPLES: 228, genus.CASE_COM_BC: 21,
                genus.CASE_ULTIMAO: 21, None: 38}),
        (ctx3, {genus.CASE_SO_CS: 7, genus.CASE_SEM_ABSORCAO: 52, genus.CASE_CS_BS: 36}),
    ):
        cases = Counter()
        for D in faithful_shapes(ctx.p, ctx):
            closed = genus.closed_form_count(SD(D))
            cases[closed[1] if closed else None] += 1
        assert cases == expected, ctx.p
    for text, case in (("b(0) + E(0,0;1)", genus.CASE_COM_BC), ("b(0) + c(0)", genus.CASE_COM_BC),
                       ("b(0) + F(0,0;0)", genus.CASE_ULTIMAO),
                       ("Eb(0) + Ec(0)", genus.CASE_ULTIMAO), ("Ec(0) + C(0,0;1)", None)):
        D = lat.parse(text, 5, ctx5)
        closed = genus.closed_form_count(SD(D))
        assert (closed[1] if closed else None) == case, text
    assert lat.sigma(lat.parse("b(0) + E(0,0;1)", 5, ctx5)) == 1


def test_counts_derive_no_invariants(ctx5, monkeypatch):
    # the engine and the closed form read the shape, never invariants_of
    shapes = [lat.parse(t, 5, ctx5) for t in ("B(0,0;1)", "b(0) + C(0,0;1)", "Z + c(0)")]

    def refuse(D):
        raise AssertionError("invariants_of was called")

    monkeypatch.setattr(iso, "invariants_of", refuse)
    for D in shapes:
        genus.orbit_genus_count(D)
        genus.closed_form_count(SD(D))
