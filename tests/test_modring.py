import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import modring as mr
from cp2genus.errors import AmbientMismatch, Cp2Error, InternalError, NonUnit

from oracles import (
    brute_quotient,
    closure_elements,
    delta_by_products,
    es_family,
    galois_by_substitution,
    poly_shift,
    sift_closure,
    sift_member,
    unit_group,
)


def test_poly_mul_examples():
    a = mr.poly(3, 2, (1, 1))
    b = mr.poly(3, 2, (1, 2))
    assert mr.poly_mul(a, b) == mr.one(3, 2)
    # identity
    for coeffs in itertools.product(range(3), repeat=2):
        x = mr.poly(3, 2, coeffs)
        assert mr.poly_mul(x, mr.one(3, 2)) == x
    # truncation: l * l^(m-1) = 0
    for p, m in ((2, 2), (3, 3), (5, 4)):
        top = poly_shift(mr.one(p, m), m - 1)
        assert mr.poly_mul(mr.lam(p, m), top) == mr.zero(p, m)


def test_poly_mul_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        mr.poly_mul(mr.one(3, 2), mr.one(3, 3))
    with pytest.raises(AmbientMismatch):
        mr.poly_mul(mr.one(3, 2), mr.one(5, 2))


def test_rep_of_rejects_a_unit_with_one_wrong_ambient_parameter():
    # rep_of must check p and m each on its own
    quotient = mr.compute_Um(5, 4)
    assert quotient.rep_of(mr.poly(5, 4, (1, 1))).m == 4
    for wrong in (mr.poly(7, 4, (1, 1)), mr.poly(5, 3, (1, 1))):
        with pytest.raises(AmbientMismatch):
            quotient.rep_of(wrong)


def test_poly_inv_examples():
    assert mr.poly_inv(mr.poly(3, 2, (1, 1))) == mr.poly(3, 2, (1, 2))
    assert mr.poly_inv(mr.one(5, 3)) == mr.one(5, 3)
    with pytest.raises(NonUnit):
        mr.poly_inv(mr.lam(3, 2))


def test_poly_inv_roundtrip_all_units():
    for p, m in ((2, 2), (3, 3), (5, 2)):
        for u in unit_group(p, m):
            assert mr.poly_mul(u, mr.poly_inv(u)) == mr.one(p, m)


def test_unit_group_contents():
    assert set(unit_group(2, 2)) == {mr.one(2, 2), mr.poly(2, 2, (1, 1))}
    assert set(unit_group(3, 1)) == {mr.poly(3, 1, (1,)), mr.poly(3, 1, (2,))}
    assert len(unit_group(3, 2)) == 6


@pytest.mark.parametrize("p,mmax", [(2, 2), (3, 3), (5, 5), (7, 5)])
def test_unit_group_order_formula(p, mmax):
    for m in range(1, mmax + 1):
        assert len(unit_group(p, m)) == (p - 1) * p ** (m - 1)


def test_unit_group_m0_rejected():
    with pytest.raises(Cp2Error):
        unit_group(3, 0)


def test_subgroup_closure_examples():
    trivial = mr.subgroup_closure([mr.one(3, 2)])
    assert trivial.order == 1 and [u for u in unit_group(3, 2) if u in trivial] == [mr.one(3, 2)]
    whole = mr.subgroup_closure([mr.poly(2, 2, (1, 1))])
    assert whole.order == 2 and all(u in whole for u in unit_group(2, 2))
    two = mr.subgroup_closure([mr.poly(3, 2, (2,))])
    assert two.order == 2


def test_subgroup_closure_closed_under_product_and_inverse():
    for gens in ([mr.poly(5, 3, (2, 1))], [mr.poly(3, 3, (1, 1)), mr.poly(3, 3, (2,))]):
        sub = mr.subgroup_closure(gens)
        elements = closure_elements(tuple(gens))
        assert sub.order == len(elements)
        for x in elements:
            assert mr.poly_inv(x) in sub
            for y in elements:
                assert mr.poly_mul(x, y) in sub


def test_subgroup_closure_rejects_non_unit():
    with pytest.raises(NonUnit):
        mr.subgroup_closure([mr.lam(3, 2)])


def test_subgroup_closure_rejects_m_above_p():
    # 1 + lR has exponent p only for m <= p; the library builds nothing larger
    for p, m in ((2, 3), (2, 4), (3, 4), (3, 5), (5, 6)):
        with pytest.raises(Cp2Error, match="m <= p"):
            mr.subgroup_closure([mr.poly(p, m, (1, 1))])


@st.composite
def unit_generator_sets(draw):
    """One to five random units of F_p[l]/(l^m), p in {2, 3, 5, 7}, m <= p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(1, p))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        c0 = draw(st.integers(1, p - 1))
        rest = draw(st.lists(st.integers(0, p - 1), min_size=m - 1, max_size=m - 1))
        gens.append(mr.PolyMod(p, m, (c0, *rest)))
    return gens


@settings(max_examples=80, deadline=None)
@given(unit_generator_sets(), st.randoms(use_true_random=False))
def test_subgroup_closure_matches_sift_oracle(gens, rng):
    # same order, same pivot degrees, same membership as the general sift
    # with its p-th-power requeue
    p, m = gens[0].p, gens[0].m
    sub = mr.subgroup_closure(gens)
    constants, pivots = sift_closure(gens)
    assert sub.constants == constants
    assert sub.order == len(constants) * p ** len(pivots)
    assert [mr._leading_degree(e.coeffs) for e in sub.pivots] == sorted(pivots)
    samples = [mr.PolyMod(p, m, (rng.randrange(1, p),)
                          + tuple(rng.randrange(p) for _ in range(m - 1)))
               for _ in range(20)]
    for _ in range(10):  # members that are not generators
        x = mr.one(p, m)
        for g in gens:
            x = mr.poly_mul(x, mr.poly_pow(g, rng.randrange(p * p)))
        samples.append(x)
    for u in gens + samples:
        assert (u in sub) == sift_member(constants, pivots, u), u


def test_image_of_R_units():
    for p in (3, 5):
        img = mr.compute_Um(p, 1).subgroup
        assert img.order == p - 1 and all(u in img for u in unit_group(p, 1))
    img = mr.compute_Um(2, 1).subgroup
    assert img.order == 1 and mr.one(2, 1) in img
    with pytest.raises(Cp2Error):
        mr.compute_Um(3, 4)  # m must be <= p
    with pytest.raises(Cp2Error):
        mr.compute_Um(3, -1)


def test_image_of_ES_units():
    es2 = mr.compute_Um(2, 2).subgroup
    assert es2.order == 2 and all(u in es2 for u in unit_group(2, 2))
    es3 = mr.compute_Um(3, 3).subgroup
    assert mr.poly(3, 3, (1, 1)) in es3
    assert mr.poly(3, 3, (2,)) in es3
    for p in (2, 3, 5):
        assert mr.one(p, p) in mr.compute_Um(p, p).subgroup


def test_delta_lucas_identity():
    # Delta_(l0 + p*l1) = Delta_l0 * (1 + (l1/l0) l^(p-1)) in F_p[l]/(l^p),
    # and l1 l^(p-1) when p divides l
    for p in (2, 3, 5, 7, 11, 13):
        for l in range(1, p * p):
            l0, l1 = l % p, l // p
            if l0:
                twist = mr.poly(p, p, (1,) + (0,) * (p - 2) + (l1 * pow(l0, -1, p),))
                expected = mr.poly_mul(mr.delta_poly(p, p, l0), twist)
            else:
                expected = mr.poly(p, p, (0,) * (p - 1) + (l1,))
            assert mr.delta_poly(p, p, l) == expected, (p, l)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_es_family_lies_in_Um_at_m_p(p):
    # the p + 1 default generators belong to the classical family, so every
    # member lying in the image makes the two subgroups equal
    sub = mr.compute_Um(p, p).subgroup
    family = es_family(p)
    assert len(family) == p * p - p + 1
    assert set(sub.generators) <= set(family)
    for u in family:
        assert u in sub, (p, u)
    # 1 + l^(p-1) = Delta_{p+1} is listed for the Lucas argument, but the
    # other default generators already give it
    top = sub.generators[-1]
    assert top == mr.delta_poly(p, p, p + 1) == mr.poly(p, p, (1,) + (0,) * (p - 2) + (1,))
    assert top in mr.subgroup_closure(sub.generators[:-1])


def test_compute_Um_facts():
    assert mr.compute_Um(2, 2).order == 1     # U_p trivial at p=2
    for p in (3, 5, 7):
        assert mr.compute_Um(p, 1).order == 1  # image of u(R) covers u(F_p)
    q0 = mr.compute_Um(5, 0)
    assert q0.order == 1 and q0.reps[0].m == 0
    with pytest.raises(Cp2Error):
        mr.compute_Um(3, 4)


@pytest.mark.parametrize("p,mmax", [(2, 2), (3, 3), (5, 5), (7, 3)])
def test_quotient_invariants(p, mmax):
    for m in range(1, mmax + 1):
        q = mr.compute_Um(p, m)
        assert q.order * q.subgroup.order == (p - 1) * p ** (m - 1)
        for rep in q.reps:
            assert rep.coeffs[0] == 1
            assert q.rep_of(rep) == rep
        # distinct reps lie in distinct cosets
        for r1, r2 in itertools.combinations(q.reps, 2):
            assert mr.poly_mul(r1, mr.poly_inv(r2)) not in q.subgroup


def test_rep_of_consistency():
    q = mr.compute_Um(5, 4)
    for u in unit_group(5, 4):
        rep = q.rep_of(u)
        # same coset: u / rep lies in the subgroup
        assert mr.poly_mul(u, mr.poly_inv(rep)) in q.subgroup


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in range(1, p + 1)]
                         + [(13, 13)])
def test_clearing_tables_match_poly_pow(p, m):
    sub = mr.compute_Um(p, m).subgroup
    clearing = sub._clearing
    assert len(clearing) == len(sub.pivots)
    for e, (d, table) in zip(sub.pivots, clearing):
        assert e.coeffs[:d] == (1,) + (0,) * (d - 1) and e.coeffs[d]
        assert len(table) == p and table[0] == ()
        for a in range(1, p):
            q = mr.poly_pow(e, p - a).coeffs
            assert table[a] == tuple((j, q[j]) for j in range(d, m) if q[j]), (e, a)


def test_galois_identity_k1():
    for p, m in ((3, 3), (5, 4)):
        for u in unit_group(p, m):
            assert mr.galois_on_unit(1, u) == u


def test_galois_example():
    assert mr.galois_on_unit(2, mr.poly(3, 2, (1, 1))) == mr.poly(3, 2, (1, 2))


def test_galois_rejects_noncoprime():
    with pytest.raises(Cp2Error):
        mr.galois_on_unit(3, mr.one(3, 3))
    with pytest.raises(Cp2Error):
        mr.galois_on_unit(0, mr.one(5, 2))


def test_galois_composition_exhaustive():
    for p, m in ((2, 2), (3, 3)):
        units = [k for k in range(1, p * p) if k % p != 0]
        ring = [mr.poly(p, m, cs) for cs in itertools.product(range(p), repeat=m)]
        for k1 in units:
            for k2 in units:
                for x in ring:
                    assert mr.galois_on_unit(k1, mr.galois_on_unit(k2, x)) == \
                        mr.galois_on_unit((k1 * k2) % (p * p), x)


def test_galois_is_ring_map():
    p, m, k = 5, 4, 7
    us = unit_group(p, m)[:40]
    for x in us:
        for y in us[:10]:
            assert mr.galois_on_unit(k, mr.poly_mul(x, y)) == \
                mr.poly_mul(mr.galois_on_unit(k, x), mr.galois_on_unit(k, y))


def test_galois_sees_k_mod_p_certificate():
    # in F_p[l]/(l^m) with m <= p, (1+l)^p = 1 + l^p = 1, so the map
    # l -> (1+l)^k - 1 depends on k only mod p: checked against the
    # substitution with the unreduced k, on every unit k and seeded x
    rng = random.Random(15)
    for p in (2, 3, 5, 7):
        units = [k for k in range(1, p * p) if k % p != 0]
        for m in range(1, p + 1):
            xs = [mr.poly(p, m, [rng.randrange(p) for _ in range(m)]) for _ in range(4)]
            for k in units:
                for x in xs:
                    direct = galois_by_substitution(k, x)
                    assert direct == galois_by_substitution(k % p, x), (p, m, k, x)
                    assert mr.galois_on_unit(k, x) == direct
                    assert mr.galois_on_unit(k, x) == mr.galois_on_unit(k % p, x)


def test_galois_rejects_m_beyond_p():
    # at m = p + 1, l^p survives: (1+l)^(p+1) - 1 = l + l^p (mod l^(p+1)),
    # not l, so the map would see k mod p^2 there; no U_m has m > p, and
    # galois_on_unit refuses such an element rather than act on it
    for p in (2, 3, 5, 7):
        m, x = p + 1, mr.lam(p, p + 1)
        assert galois_by_substitution(p + 1, x) == mr.poly(p, m, [0, 1] + [0] * (p - 2) + [1])
        for k in (1, p + 1):
            with pytest.raises(Cp2Error, match="m <= "):
                mr.galois_on_unit(k, x)
        assert mr.galois_on_unit(p + 1, mr.lam(p, p)) == mr.lam(p, p)


def test_twisted_shift_identity_small():
    # galois(k, l^r u) = l^r * Delta_k^r * galois(k, u), in F_p[l]/(l^p)
    for p in (2, 3):
        m = p
        units = [k for k in range(1, p * p) if k % p != 0]
        for k in units:
            delta = mr.delta_poly(p, m, k)
            for u in unit_group(p, m):
                gu = mr.galois_on_unit(k, u)
                for r in range(p):
                    lhs = mr.galois_on_unit(k, poly_shift(u, r))
                    rhs = poly_shift(mr.poly_mul(mr.poly_pow(delta, r), gu), r)
                    assert lhs == rhs


def test_delta_poly_matches_products():
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(p + 1):
            for l in range(1, p * p if p <= 7 else 3 * p):
                assert mr.delta_poly(p, m, l) == delta_by_products(p, m, l), (p, m, l)


def test_delta_truncations_in_R_image():
    for p in (2, 3, 5):
        img = mr.compute_Um(p, p - 1).subgroup
        for k in range(1, p * p):
            if k % p == 0:
                continue
            assert mr.truncate_poly(mr.delta_poly(p, p, k), p - 1) in img


def test_poly_helpers():
    x = mr.poly(5, 3, (4, 9, 1))
    assert x.coeffs == (4, 4, 1)
    with pytest.raises(Cp2Error):
        mr.poly(5, 2, (1, 2, 3))
    assert mr.poly(5, 2, (1, 2, 3), truncate=True).coeffs == (1, 2)
    assert mr.truncate_poly(x, 2).coeffs == (4, 4)
    assert mr.lift_poly(mr.truncate_poly(x, 2), 4).coeffs == (4, 4, 0, 0)


def test_quotient_rejects_inconsistent_subgroup():
    # two pivots at degree 1 claim a subgroup of order 2*3^2, but they leave
    # 3 cosets free, and 2*9*3 is not the 2*3^2 units of F_3[l]/(l^3)
    forged = mr.UnitSubgroup(
        3, 3, (), frozenset({1, 2}), (mr.poly(3, 3, (1, 1)), mr.poly(3, 3, (1, 1, 1)))
    )
    with pytest.raises(InternalError):
        mr._quotient(3, 3, forged)


def test_quotient_names_missing_constants():
    # 1 + lR holds no element with constant 2, so the coset of 2 has no
    # constant-1 representative
    sub = mr.subgroup_closure([mr.poly(3, 2, (1, 1))])
    assert sub.constants == frozenset({1}) and sub.order == 3
    with pytest.raises(Cp2Error, match=r"\[2\]") as info:
        mr._quotient(3, 2, sub)
    assert not isinstance(info.value, InternalError)


def _oracle_quotient(q):
    """The oracle's (elements, reps, index) for the subgroup of q."""
    elements = closure_elements(q.subgroup.generators)
    return (elements, *brute_quotient(q.p, q.m, elements))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_matches_enumeration_oracle(p):
    for m in range(1, p + 1):
        if (p, m) == (7, 7):
            continue
        q = mr.compute_Um(p, m)
        elements, reps, index = _oracle_quotient(q)
        assert q.reps == reps and q.order == len(reps)
        assert q.subgroup.order == len(elements)
        for u in unit_group(p, m):
            assert q.rep_of(u) == index[u]
            assert (u in q.subgroup) == (u in elements)


def test_quotient_u7_at_p7_sampled_against_oracle():
    # the oracle closure of the image has 14,406 elements; listing every
    # coset of the 705,894 units is too slow, so check every 97th unit and
    # that each of the 49 reps is the least constant-1 element of its coset
    q = mr.compute_Um(7, 7)
    elements = closure_elements(q.subgroup.generators)
    assert len(elements) == 14406 == q.subgroup.order
    assert q.order * len(elements) == 6 * 7**6 and q.order == 49
    ones = [h for h in elements if h.coeffs[0] == 1]
    for rep in q.reps:
        assert min(mr.poly_mul(rep, h).coeffs for h in ones) == rep.coeffs
    for r1, r2 in itertools.combinations(q.reps, 2):
        assert mr.poly_mul(r1, mr.poly_inv(r2)) not in elements
    reps = set(q.reps)
    sample = itertools.product(range(1, 7), *[range(7)] * 6)
    for u in (mr.PolyMod(7, 7, c) for c in itertools.islice(sample, 0, None, 97)):
        rep = q.rep_of(u)
        assert rep in reps and mr.poly_mul(u, mr.poly_inv(rep)) in elements
        assert (u in q.subgroup) == (u in elements)


@pytest.mark.parametrize("p", [5, 7])
def test_bass_cyclic_units_lie_in_ES_image(p):
    # Bass's cyclic units u_k = (1+g+...+g^(k-1))^(p-1) + ((1-k^(p-1))/p) N of
    # Z C_p, k = 2..p-2, map under g -> 1+l to Delta_k^(p-1) + c l^(p-1),
    # because the norm element N = ((1+l)^p - 1)/l is l^(p-1) mod p
    image = mr.compute_Um(p, p).subgroup
    top = mr.poly(p, p, (0,) * (p - 1) + (1,))
    for k in range(2, p - 1):
        c = (1 - k ** (p - 1)) // p
        u = mr.poly_add(
            mr.poly_pow(mr.delta_poly(p, p, k), p - 1),
            mr.poly_mul(mr.poly(p, p, (c,)), top),
        )
        assert u in image, (p, k)
    if p == 5:
        g = mr.poly(5, 5, (1, 1))
        u = mr.poly_sub(mr.poly_add(g, mr.poly_pow(g, 4)), mr.one(5, 5))  # g + g^4 - 1
        assert u in image


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n exactly (B_1 = -1/2), from sum_{k <= j} C(j+1, k) B_k = 0."""
    B = [Fraction(1)]
    for j in range(1, n + 1):
        B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 37])
def test_free_degrees_kummer_certificate(p):
    # the default unit images leave free exactly the odd degrees j >= 3 and
    # the even j with p | B_j (Kummer's criterion): every p <= 23 is
    # regular, and 37 divides B_32
    B = bernoulli(p)
    assert (p == 37) == any(B[j].numerator % p == 0 for j in range(2, p - 2, 2))
    for m in (p - 1, p):
        expected = tuple(j for j in range(1, m)
                         if j % 2 and j >= 3 or j % 2 == 0 and B[j].numerator % p == 0)
        assert mr.compute_Um(p, m).free_degrees == expected, (p, m)
