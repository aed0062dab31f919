"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from contextlib import contextmanager

import pytest

from cp2genus import classdata, galois, genus, iso
from cp2genus import lattice as lat
from cp2genus import materialize as mat
from cp2genus import modring as mr

from conftest import indecomposable_templates, random_descriptor, synthetic_c43
from oracles import diagonal_orbits, lam, poly_add, poly_shift, poly_sub, unit_group

SD = genus.SemidirectDescriptor


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < seconds, f"{name} took {dt:.2f}s, budget {seconds}s"
    print(f"PASS {name} ({dt:.2f}s < {seconds}s)")


@pytest.fixture(scope="module")
def ctxs():
    return {p: classdata.builtin(p) for p in (2, 3, 5)}


def test_criterion_1_indecomposable_counts(ctxs):
    with budget("criterion 1: 4p+1 p-adic classes (9/13/21)", 1.0):
        for p, want in ((2, 9), (3, 13), (5, 21)):
            templates = indecomposable_templates(p, ctxs[p])
            classes = {iso.padic_completion(D) for D in templates}
            assert len(classes) == want == 4 * p + 1


def _genus_one_corpus(p):
    """Faithful shapes whose genus is pinned to 1 at p in {2, 3, 5}:
    the pure S-side shapes and the absorption shapes (for p = 1 mod 4
    the latter dispatch to the ComBC/Ultimao cases, with no C/D part so
    the Sigma factor stays 1)."""
    so_cs = []
    for a in (0, 1, 2):
        for nc, ne in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)):
            parts = ["Z"] * a + ["c(0)"] * nc + ["Ec(0)"] * ne
            so_cs.append(" + ".join(parts))
    absorption = [
        "b(0) + c(0)",
        "Eb(0) + c(0)",
        "b(0) + Ec(0)",
        "Eb(0) + Ec(0)",
        "Z + b(0) + c(0)",
        "2*b(0) + c(0)",
        "b(0) + B(0,0;0)",
        "Eb(0) + B(0,0;0)" if p != 5 else "b(0) + 2*B(0,0;0)",
        "c(0) + B(0,0;0)" if p != 5 else "c(0) + B(0,0;0) + b(0)",
        "Ec(0) + E(0,0;0)" if p != 5 else "Z + Eb(0) + Ec(0)",
        "c(0) + F(0,0;0)",
    ]
    return [t for t in so_cs + absorption]


def test_criterion_2_genus_one_small_primes(ctxs):
    with budget("criterion 2: genus 1 corpora at p in {2,3,5}", 5.0):
        allowed = {
            2: {genus.CASE_SO_CS, genus.CASE_CS_BS},
            3: {genus.CASE_SO_CS, genus.CASE_CS_BS},
            5: {genus.CASE_SO_CS, genus.CASE_COM_BC, genus.CASE_ULTIMAO},
        }
        for p in (2, 3, 5):
            corpus = [lat.parse(t, p, ctxs[p]) for t in _genus_one_corpus(p)]
            assert len(corpus) >= 20
            for D in corpus:
                assert lat.faithfulness(D) == lat.Faithfulness.FAITHFUL
                rep = genus.genus_report(SD(D))
                assert rep.closed_form is not None, lat.render(D)
                assert rep.closed_form[1] in allowed[p], (lat.render(D), rep.closed_form)
                assert rep.closed_form[0] == 1, lat.render(D)
                assert rep.enumeration == 1 and rep.agree is True, lat.render(D)


def test_criterion_3_genus_two_at_p5(ctxs):
    with budget("criterion 3: the genus-2 shapes at p=5", 5.0):
        ctx = ctxs[5]
        # C/D part present, nothing blocking the quadratic character, and
        # an exponent pattern keeping the computed U_t trivial
        shapes = [
            "C(0,0;1,1)",
            "D(0,0;2)",
            "C(0,0;3) + D(0,0;3)",
            "C(0,0;1) + E(0,0;2)",
            "2*C(0,0;2)",
        ]
        for text in shapes:
            D = lat.parse(text, 5, ctx)
            assert ctx.unit_quotient(lat.t_of(D)).order == 1, text
            rep = genus.genus_report(SD(D))
            assert rep.closed_form[0] == 2 and rep.enumeration == 2, text
            assert rep.agree is True

        # the concrete non-isomorphic twin pair
        E1 = SD(lat.parse("C(0,0;1,1)", 5, ctx))
        E2 = SD(lat.parse("D(0,0;1,1)", 5, ctx))
        assert genus.profinite_isomorphic(E1, E2)
        assert not genus.group_isomorphic(E1, E2)


def test_criterion_4_galois_unit_identity(ctxs):
    with budget("criterion 4: twisted-unit identity, exhaustive p in {2,3,5}", 10.0):
        for p in (2, 3, 5):
            m = p
            zero_vec = (0,) * m
            units = [u.coeffs for u in unit_group(p, m)]
            ks = [k for k in range(1, p * p) if k % p != 0]
            r_quotient = mr.compute_Um(p, p - 1)
            for k in ks:
                one_plus = poly_add(mr.one(p, m), lam(p, m))
                mu = poly_sub(mr.poly_pow(one_plus, k), mr.one(p, m)).coeffs
                # mu^j, padded with the zero vector once nilpotency kills it
                mu_pows = [(1,) + (0,) * (m - 1)]
                for _ in range(2 * m):
                    prev = mu_pows[-1]
                    nxt = [0] * m
                    for i, x in enumerate(prev):
                        if x:
                            for j in range(m - i):
                                if mu[j]:
                                    nxt[i + j] = (nxt[i + j] + x * mu[j]) % p
                    mu_pows.append(tuple(nxt))
                delta = mr.delta_poly(p, m, k)
                # Delta_k lies in the R image: its representative is 1
                assert r_quotient.rep_of(mr.truncate_poly(delta, p - 1)) == mr.one(p, p - 1)
                delta_pow = [mr.one(p, m)]
                for _ in range(p):
                    delta_pow.append(mr.poly_mul(delta_pow[-1], delta))
                for ucoef in units:
                    gu = [0] * m
                    for j, c in enumerate(ucoef):
                        if c:
                            mp = mu_pows[j]
                            for i in range(m):
                                if mp[i]:
                                    gu[i] = (gu[i] + c * mp[i]) % p
                    gu_poly = mr.PolyMod(p, m, tuple(gu))
                    for r in range(p):
                        # left side: the ring map applied to l^r * u directly
                        lhs = [0] * m
                        for j, c in enumerate(ucoef):
                            if c:
                                mp = mu_pows[j + r]
                                for i in range(m):
                                    if mp[i]:
                                        lhs[i] = (lhs[i] + c * mp[i]) % p
                        rhs = poly_shift(mr.poly_mul(delta_pow[r], gu_poly), r)
                        assert tuple(lhs) == rhs.coeffs, (p, k, r, ucoef)


def test_criterion_5_unit_quotient_facts():
    with budget("criterion 5: unit quotient cardinalities", 10.0):
        for p in (3, 5, 7):
            assert mr.compute_Um(p, 1).order == 1
        assert mr.compute_Um(2, 2).order == 1
        scope = {2: (1, 2), 3: (1, 2, 3), 5: (1, 2, 3, 4, 5), 7: (1, 2, 3)}
        for p, ms in scope.items():
            for m in ms:
                q = mr.compute_Um(p, m)
                assert q.order * q.subgroup_order == (p - 1) * p ** (m - 1)


def test_criterion_6_ext_sizes():
    with budget("criterion 6: |Ext(S, Z+R)| = p^p", 30.0):
        for p in (2, 3, 5):
            group = mat.ext_group("Z+R", p)
            assert group.order == p**p
            assert group.factors == (p,) * p  # elementary abelian


def test_criterion_7_materialization(ctxs):
    with budget("criterion 7: matrix models validate at p in {2,3}", 30.0):
        for p in (2, 3):
            for D in indecomposable_templates(p, ctxs[p]):
                rep = mat.rep_of(D)
                assert rep.n == lat.rank(D)
                report = mat.validate_rep(rep)
                assert report.passed, (
                    lat.render(D),
                    [c.detail for c in report.checks if not c.ok],
                )


def _corpus(p, ctx, size=200, seed=2024):
    rng = random.Random(seed + p)
    return [random_descriptor(rng, p, ctx) for _ in range(size)], rng


def test_criterion_8_and_9_action_laws_and_bounds(ctxs):
    with budget("criteria 8+9: action laws, twist invariance, bounds", 60.0):
        for p in (2, 3, 5):
            ctx = ctxs[p]
            corpus, rng = _corpus(p, ctx)
            assert len(corpus) >= 200
            units = galois.galois_units(p)
            for D in corpus:
                assert galois.twist(D, 1) == D
                k1, k2 = rng.choice(units), rng.choice(units)
                assert galois.twist(galois.twist(D, k2), k1) == \
                    galois.twist(D, (k1 * k2) % (p * p))
                base_padic = iso.padic_completion(D)
                base_rank = lat.rank(D)
                for k in units:
                    T = galois.twist(D, k)
                    assert iso.padic_completion(T) == base_padic
                    assert lat.rank(T) == base_rank
                base_orbits = genus.orbit_genus_count(D)
                for k in rng.sample(units, min(3, len(units))):
                    assert genus.orbit_genus_count(galois.twist(D, k)) == base_orbits
                # reflexivity
                assert iso.isomorphic(D, D)
                assert galois.twisted_isomorphic(D, D) == 1
            # exhaustive composition on a sub-sample
            for D in corpus[:10]:
                for k1 in units:
                    for k2 in units:
                        assert galois.twist(galois.twist(D, k2), k1) == \
                            galois.twist(D, (k1 * k2) % (p * p))
            # symmetry and transitivity
            for _ in range(60):
                D1, D2 = rng.choice(corpus), rng.choice(corpus)
                assert iso.isomorphic(D1, D2) == iso.isomorphic(D2, D1)
                fwd = galois.twisted_isomorphic(D1, D2)
                assert (fwd is None) == (galois.twisted_isomorphic(D2, D1) is None)
            for D in corpus[:40]:
                k1, k2 = rng.choice(units), rng.choice(units)
                T1 = galois.twist(D, k1)
                T2 = galois.twist(T1, k2)
                assert galois.twisted_isomorphic(D, T1) is not None
                assert galois.twisted_isomorphic(T1, T2) is not None
                assert galois.twisted_isomorphic(D, T2) is not None
            # criterion 9: the genus bounds on every faithful descriptor
            for D in corpus:
                if lat.faithfulness(D) != lat.Faithfulness.FAITHFUL:
                    continue
                rep = genus.genus_report(SD(D))
                lo, hi = rep.bounds
                assert rep.enumeration is not None
                assert lo <= rep.enumeration <= hi, lat.render(D)
                if rep.closed_form is not None:
                    assert rep.agree is True, lat.render(D)
        print("  (bounds checked on all faithful corpus descriptors)")


def test_synthetic_c43_cross_oracle():
    with budget("extra: synthetic C_43 data, enumeration vs Burnside oracle", 10.0):
        ctx = synthetic_c43()
        # the two orbit engines must agree on class-group-driven shapes
        for text in ("c(0)", "Z + c(1)", "Ec(5)"):
            D = lat.parse(text, 7, ctx)
            direct = genus.orbit_genus_count(D)
            oracle = diagonal_orbits(49, (ctx.H_p2,), ())
            assert direct == oracle == 2
        rep = genus.genus_report(SD(lat.parse("b(0) + c(0)", 7, ctx)))
        assert rep.agree is True and rep.value == 2
