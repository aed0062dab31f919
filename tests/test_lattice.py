import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import classdata, galois, iso
from cp2genus import lattice as lat
from cp2genus import materialize as mat
from cp2genus import modring
from cp2genus.errors import Cp2Error, ParseError
from cp2genus.lattice import Faithfulness

from conftest import classdata_both_nontrivial, random_descriptor, random_multiset, synthetic_c43
from oracles import (expand, flat_counts, flat_genus_vector, flat_ideal_classes, flat_invariants,
                     flat_moving_coordinates, flat_quad_char_applies, flat_r1, flat_r2, flat_rank,
                     flat_rational_type, flat_render, flat_rep_matrix, flat_sigma, flat_t_of,
                     flat_twist, flat_u0, flat_u0_coset_applies, from_list, x_pow_minus_1)


def test_parse_basics(ctx2):
    D = lat.parse("Z + Z", 2, ctx2)
    assert [(s.kind, n) for s, n in D.summands] == [("Z", 2)]
    D = lat.parse("c(0) + B(0,0;1,1)", 2, ctx2)
    kinds = sorted(s.kind for s, _ in D.summands)
    assert kinds == ["B", "c"]
    B = next(s for s, _ in D.summands if s.kind == "B")
    assert B.r == 1 and B.u == modring.one(2, 1)


def test_parse_type_d_requires_1_mod_4(ctx3, ctx5):
    with pytest.raises(ParseError):
        lat.parse("D(0,0;1,1)", 3, ctx3)
    lat.parse("D(0,0;1,1)", 5, ctx5)  # fine at p=5


def test_parse_r_ranges(ctx2, ctx3, ctx5):
    with pytest.raises(ParseError):
        lat.parse("C(0,0;1)", 2, ctx2)  # range [1, 0] empty at p=2
    with pytest.raises(ParseError):
        lat.parse("B(0,0;2)", 2, ctx2)
    with pytest.raises(ParseError):
        lat.parse("E(0,0;4)", 5, ctx5)
    lat.parse("C(0,0;1)", 3, ctx3)


def test_parse_syntax_errors_carry_position(ctx3):
    with pytest.raises(ParseError) as err:
        lat.parse("Z + ?", 3, ctx3)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        lat.parse("", 3, ctx3)
    with pytest.raises(ParseError):
        lat.parse("Q(0)", 3, ctx3)
    with pytest.raises(ParseError):
        lat.parse("B(0,0;1", 3, ctx3)
    with pytest.raises(ParseError):
        lat.parse("0*Z", 3, ctx3)


def test_numerals_are_ascii_and_convertible(ctx3):
    # str.isdigit accepts '\u00b2' (which int() rejects) and '\u0663' (which
    # int() reads as 3); Python converts at most 4300 digits by default
    for text, at in (("\u00b2*Z", 0), ("\u0663*Z", 0), ("Z + b(\u0663)", 6),
                     ("9" * 5000 + "*Z", 0), ("Z + " + "9" * 5000 + "*Z", 4)):
        with pytest.raises(ParseError) as err:
            lat.parse(text, 3, ctx3)
        assert err.value.position == at, text
    assert "5000 digits" in str(err.value)


def test_multiplicity_above_maxsize_is_a_parse_error(ctx3):
    # the JSON summand lists and the matrix models list every copy, and
    # no Python sequence is longer than sys.maxsize
    for text, at in (("99999999999999999999*Z", 0), (f"Z + {sys.maxsize + 1}*c(0)", 4)):
        with pytest.raises(ParseError, match="^multiplicity must be <= ") as err:
            lat.parse(text, 3, ctx3)
        assert err.value.position == at, text


def test_parse_multiplicity_and_whitespace(ctx3):
    assert lat.parse(" 3*Z+ c( 0 ) ", 3, ctx3) == lat.parse("Z+Z+Z+c(0)", 3, ctx3)


def test_class_exponents(ctx7_synthetic):
    D = lat.parse("c(7)", 7, ctx7_synthetic)
    assert D.summands[0][0].c == (7,)
    # one position per message: the vector index is an entry, the text
    # offset a position
    with pytest.raises(ParseError) as err:
        lat.parse("Z + c(50)", 7, ctx7_synthetic)
    assert str(err.value) == "class exponent 50 out of range [0, 43) in entry 0 (at position 4)"
    with pytest.raises(ParseError):
        lat.parse("c(43)", 7, ctx7_synthetic)
    with pytest.raises(ParseError):
        lat.parse("c(0:1)", 7, ctx7_synthetic)  # too many entries


def test_unit_strict_vs_lenient(ctx3, ctx5):
    with pytest.raises(ParseError):
        lat.parse("B(0,0;0,1+l)", 3, ctx3)  # not canonical: coset of 1
    D = lat.parse("B(0,0;0,1+l)", 3, ctx3, lenient=True)
    assert D.summands[0][0].u == modring.one(3, 3)
    # canonical representative accepted strictly
    reps = ctx5.unit_quotient(5).reps
    other = next(r for r in reps if r != modring.one(5, 5))
    text = f"B(0,0;0,{other})"
    D = lat.parse(text, 5, ctx5)
    assert D.summands[0][0].u == other
    with pytest.raises(ParseError):
        lat.parse("B(0,0;1,1+l^4)", 5, ctx5)  # degree beyond truncation


def test_unit_terms_are_reduced_before_truncation(ctx5):
    # l^4 + 4l^4 = 5l^4 = 0 at p = 5, so nothing lies beyond l^4
    plain = lat.parse("B(0,0;1)", 5, ctx5)
    assert lat.parse("B(0,0;1,1+l^4+4l^4)", 5, ctx5) == plain
    with pytest.raises(ParseError) as err:
        lat.parse("Z + B(0,0;1,1+l^4)", 5, ctx5)
    assert str(err.value) == "coefficients exceed truncation degree 4 (at position 4)"


def test_large_unit_exponents_cost_no_memory(ctx5):
    plain = lat.parse("B(0,0;0)", 5, ctx5)
    assert lat.parse("B(0,0;0,1+l^999999999)", 5, ctx5, lenient=True) == plain
    assert lat.parse("B(0,0;0,1+5l^999999999)", 5, ctx5) == plain
    assert lat.parse("B(0,0;0,1+l^999999999+4l^999999999)", 5, ctx5) == plain
    with pytest.raises(ParseError):
        lat.parse("B(0,0;0,1+l^999999999+4l^999999998)", 5, ctx5)


def test_unit_must_be_one_mod_l(ctx5):
    with pytest.raises(ParseError):
        lat.parse("B(0,0;0,2)", 5, ctx5)


def test_rank_values(ctx2, ctx3, ctx5):
    assert lat.rank(lat.parse("3*Z", 2, ctx2)) == 3
    assert lat.rank(lat.parse("Z + c(0) + B(0,0;0,1)", 2, ctx2)) == 7
    assert lat.rank(lat.parse("E(0,0;0)", 3, ctx3)) == 8
    p = 5
    one_each = {
        "Z": 1, "b(0)": p - 1, "c(0)": p * (p - 1), "Eb(0)": p,
        "Ec(0)": p * (p - 1) + 1, "B(0,0;0)": p * p, "C(0,0;1)": p * p + 1,
        "D(0,0;1)": p * p + 1, "E(0,0;0)": p * p - 1, "F(0,0;0)": p * p,
    }
    for text, want in one_each.items():
        assert lat.rank(lat.parse(text, 5, ctx5)) == want


def test_rational_types_pin_kind_tables(ctx2, ctx3, ctx5, ctx7_synthetic):
    # every value derived from lat.CYCLOTOMIC, against the literal per-kind
    # tables it replaced
    x1 = [-1, 1]
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, ctx7_synthetic)):
        xp1, phip, phip2 = x_pow_minus_1(p), mat.phi_p(p), mat.phi_p2(p)
        old = {  # kind: (rank, char poly factors, fixed rank)
            "Z": (1, [x1], 1),
            "b": (p - 1, [phip], 0),
            "c": (p * (p - 1), [phip2], 0),
            "Eb": (p, [xp1], 1),
            "Ec": (p * (p - 1) + 1, [x1, phip2], 1),
            "B": (p * p, [xp1, phip2], 1),
            "C": (p * p + 1, [x1, xp1, phip2], 2),
            "D": (p * p + 1, [x1, xp1, phip2], 2),
            "E": (p * p - 1, [phip, phip2], 0),
            "F": (p * p, [x1, phip, phip2], 1),
        }
        assert tuple(old) == lat.KINDS
        for kind, (rank, factors, fixed) in old.items():
            D = lat.descriptor(p, ctx, [(lat.Summand(kind), 1)])
            assert lat.rank(D) == rank, (kind, p)
            assert lat.rational_type(D)[0] == fixed, (kind, p)
            want = [1]
            for f in factors:
                want = mat.polymul_z(want, f)
            assert mat.predicted_charpoly(D) == want, (kind, p)
            _, R_slot, S_slot = lat.rational_type(D)
            assert (R_slot > 0) == (kind in ("b", "Eb", "B", "C", "D", "E", "F"))
            assert (S_slot > 0) == (kind in ("c", "Ec", "B", "C", "D", "E", "F"))
            if kind in ("c", "Ec", "B", "C", "D", "E", "F"):
                assert lat.faithfulness(D) == Faithfulness.FAITHFUL
            elif kind in ("b", "Eb"):
                assert lat.faithfulness(D) == Faithfulness.ORDER_P
            else:
                assert lat.faithfulness(D) == Faithfulness.TRIVIAL
        blocks = {"Z": [[1]], "b(0)": mat.companion(phip),
                  "c(0)": mat.companion(phip2), "Eb(0)": mat.companion(xp1)}
        for text, block in blocks.items():
            rep = mat.rep_of(lat.parse(text, p, ctx))
            assert [list(r) for r in rep.matrix] == block, (text, p)


def test_rank_additive(ctx3):
    rng = random.Random(1)
    for _ in range(25):
        D1 = random_descriptor(rng, 3, ctx3)
        D2 = random_descriptor(rng, 3, ctx3)
        D12 = lat.descriptor(3, ctx3, D1.summands + D2.summands)
        assert D12 == from_list(3, ctx3, expand(D1) + expand(D2))
        assert lat.rank(D12) == lat.rank(D1) + lat.rank(D2)


def test_genus_vector(ctx5):
    gv = lat.genus_vector(lat.parse("4*Z", 5, ctx5))
    assert (gv.a, gv.b, gv.c, gv.d, gv.e) == (4, 0, 0, 0, 0)
    gv = lat.genus_vector(lat.parse("C(0,0;1)", 5, ctx5))
    assert gv.gamma == (1, 0, 0) and gv.delta == (0, 0, 0)
    gv = lat.genus_vector(lat.parse("2*B(0,0;0) + Eb(0) + b(0) + Ec(0)", 5, ctx5))
    assert gv.beta[0] == 2 and (gv.b, gv.d) == (1, 2) and (gv.c, gv.e) == (0, 1)


def test_genus_vector_order_invariant(ctx5):
    D1 = lat.parse("Z + C(0,0;1) + E(0,0;2)", 5, ctx5)
    D2 = lat.parse("E(0,0;2) + Z + C(0,0;1)", 5, ctx5)
    assert D1 == D2
    assert lat.genus_vector(D1) == lat.genus_vector(D2)


def test_u0(ctx5, ctx3):
    assert lat.u0(lat.parse("Z + c(0)", 3, ctx3)) == modring.one(3, 3)
    assert lat.u0(lat.parse("B(0,0;0)", 5, ctx5)) == modring.one(5, 5)
    # two type D summands contribute n0^2 = 4 at p=5
    D = lat.parse("D(0,0;1) + D(0,0;2)", 5, ctx5)
    assert lat.u0(D) == modring.poly(5, 5, (4,))
    assert lat.n0(5) == 2


def test_r1_r2_t(ctx5):
    D = lat.parse("Z + B(0,0;0)", 5, ctx5)
    assert (flat_r1(D), flat_r2(D), lat.t_of(D)) == (0, 0, 5)  # special shape
    D = lat.parse("E(0,0;0)", 5, ctx5)
    assert lat.t_of(D) == 4
    D = lat.parse("B(0,0;4)", 5, ctx5)
    assert lat.t_of(D) == 1
    D = lat.parse("B(0,0;0) + E(0,0;0)", 5, ctx5)
    assert lat.t_of(D) == 4  # not the special shape: an E summand is present
    D = lat.parse("B(0,0;1) + C(0,0;3)", 5, ctx5)
    assert (flat_r1(D), flat_r2(D), lat.t_of(D)) == (1, 3, 1)


def test_sigma(ctx3, ctx5):
    assert lat.sigma(lat.parse("C(0,0;1) + c(0)", 3, ctx3)) == 1  # p != 1 mod 4
    assert lat.sigma(lat.parse("C(0,0;1)", 5, ctx5)) == 2
    assert lat.sigma(lat.parse("D(0,0;1) + E(0,0;0) + b(0) + c(0)", 5, ctx5)) == 2
    assert lat.sigma(lat.parse("C(0,0;1) + F(0,0;0)", 5, ctx5)) == 1
    assert lat.sigma(lat.parse("Z + C(0,0;1)", 5, ctx5)) == 1
    assert lat.sigma(lat.parse("E(0,0;0)", 5, ctx5)) == 1  # no C/D part


def test_faithfulness(ctx5):
    assert lat.faithfulness(lat.parse("4*Z", 5, ctx5)) == Faithfulness.TRIVIAL
    assert lat.faithfulness(lat.parse("Z + b(0)", 5, ctx5)) == Faithfulness.ORDER_P
    assert lat.faithfulness(lat.parse("Z + Eb(0)", 5, ctx5)) == Faithfulness.ORDER_P
    assert lat.faithfulness(lat.parse("c(0)", 5, ctx5)) == Faithfulness.FAITHFUL
    assert lat.faithfulness(lat.parse("B(0,0;0)", 5, ctx5)) == Faithfulness.FAITHFUL


def test_ideal_classes():
    ctx = synthetic_c43()
    D = lat.parse("Z + c(1) + c(6)", 7, ctx)
    rc, sc = lat.ideal_classes(D)
    assert rc == () and sc == (7,)
    D = lat.parse("E(0,40;1) + Ec(5)", 7, ctx)
    _, sc = lat.ideal_classes(D)
    assert sc == ((40 + 5) % 43,)


def test_render_parse_roundtrip(ctx2, ctx3, ctx5):
    rng = random.Random(9)
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, synthetic_c43())):
        for _ in range(40):
            D = random_descriptor(rng, p, ctx)
            assert lat.parse(lat.render(D), p, ctx) == D


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_render_parse_roundtrip_property(p, seed):
    ctx = classdata.builtin(p)
    D = random_descriptor(random.Random(seed), p, ctx)
    E = lat.parse(lat.render(D), p, ctx)
    assert E == D
    assert iso.invariants_of(E) == iso.invariants_of(D)


BOTH_NONTRIVIAL = classdata_both_nontrivial()


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_multiset_facts_match_flat_oracles(ctx2, ctx3, ctx5, p, seed):
    # every fact read off the (summand, multiplicity) pairs is the one
    # walked over the flat list that repeats each summand per copy; at
    # p = 7 both class groups are nontrivial
    ctx = {2: ctx2, 3: ctx3, 5: ctx5, 7: BOTH_NONTRIVIAL}[p]
    rng = random.Random(seed)
    D = random_multiset(rng, p, ctx)
    assert from_list(p, ctx, expand(D)) == D
    assert lat.counts(D) == flat_counts(D)
    assert lat.rational_type(D) == flat_rational_type(D)
    assert lat.genus_vector(D) == flat_genus_vector(D)
    assert lat.t_of(D) == flat_t_of(D)
    assert lat.sigma(D) == flat_sigma(D)
    assert lat.u0(D) == flat_u0(D)
    assert lat.ideal_classes(D) == flat_ideal_classes(D)
    assert lat.render(D) == flat_render(D)
    assert lat.parse(lat.render(D), p, ctx) == D
    assert lat.to_json(D) == {"p": p, "summands": [lat.summand_to_json(s) for s in expand(D)]}
    assert iso.invariants_of(D) == flat_invariants(D)
    k = rng.choice(galois.galois_units(p))
    assert galois.twist(D, k) == flat_twist(D, k)
    if p < 7 and lat.rank(D) <= 150:  # trivial class groups: a matrix model exists
        assert [list(row) for row in mat.rep_of(D).matrix] == flat_rep_matrix(D)


def shape_facts(D) -> tuple:
    return (lat.counts(D), lat.rational_type(D), lat.rank(D), lat.t_of(D), lat.sigma(D),
            lat.u0_coset_applies(D), lat.quad_char_applies(D), D.moving_coordinates)


def flat_shape_facts(D) -> tuple:
    return (flat_counts(D), flat_rational_type(D), flat_rank(D), flat_t_of(D), flat_sigma(D),
            flat_u0_coset_applies(D), flat_quad_char_applies(D), flat_moving_coordinates(D))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_kept_shape_facts_match_flat_oracles(ctx2, ctx3, ctx5, p, seed):
    # the shape and the moving coordinates are derived once per
    # descriptor and kept: on a fresh, a twisted, a pickled and a copied
    # descriptor each fact equals its walk over the flat list, read
    # twice, and the kept counts refuse a write; equality, hash, repr
    # and pickling ignore what is kept
    ctx = {2: ctx2, 3: ctx3, 5: ctx5, 7: BOTH_NONTRIVIAL}[p]
    rng = random.Random(seed)
    D = random_multiset(rng, p, ctx)
    fields, text = (D.p, D.context, D.summands), repr(D)
    before = hash(D)
    T = galois.twist(D, rng.choice(galois.galois_units(p)))
    for X in (D, T, pickle.loads(pickle.dumps(D)), copy.copy(D), copy.deepcopy(D)):
        assert not {"shape", "moving_coordinates"} & set(vars(X))
        want = flat_shape_facts(X)
        assert shape_facts(X) == want
        with pytest.raises(TypeError):
            lat.counts(X)["Z"] += 1
        assert shape_facts(X) == want
    assert {"shape", "moving_coordinates"} <= set(vars(D))
    assert hash(D) == before and repr(D) == text and D.__reduce__()[1] == fields
    restored = pickle.loads(pickle.dumps(D))
    assert restored == D and not {"shape", "moving_coordinates"} & set(vars(restored))


def test_json_roundtrip(ctx5):
    rng = random.Random(11)
    for _ in range(25):
        D = random_descriptor(rng, 5, ctx5)
        assert lat.from_json(lat.to_json(D), ctx5) == D


def test_to_json_refuses_more_copies_than_the_limit(ctx2, monkeypatch):
    # the copies are counted before any is listed
    for text, copies in (("999999999999999*Z", 999999999999999),
                         ("100000*Z + c(0)", 100001)):
        with pytest.raises(Cp2Error, match=f"{copies} summand copies to list, at most 100000$"):
            lat.to_json(lat.parse(text, 2, ctx2))
    assert len(lat.to_json(lat.parse("99999*Z + c(0)", 2, ctx2))["summands"]) == 100000
    monkeypatch.setattr(lat, "MAX_LISTED_COPIES", 3)
    assert len(lat.to_json(lat.parse("2*Z + c(0)", 2, ctx2))["summands"]) == 3
    with pytest.raises(Cp2Error, match="4 summand copies to list, at most 3$"):
        lat.to_json(lat.parse("2*Z + 2*c(0)", 2, ctx2))


def test_descriptor_context_mismatch(ctx3, ctx5):
    with pytest.raises(Cp2Error):
        lat.descriptor(5, ctx3, [])


def test_zero_module(ctx3):
    D = lat.descriptor(3, ctx3, [])
    assert lat.rank(D) == 0
    assert lat.faithfulness(D) == Faithfulness.TRIVIAL
    assert lat.t_of(D) == 2
    with pytest.raises(Cp2Error):
        lat.render(D)
