"""Profinite genus of the groups Z^n x| C_{p^2}.

For a faithful semidirect product the genus size is computed two ways:

* a closed-form dispatch over module shapes, multiplying orbit counts
  of the Galois actions on the two class groups, on U_t, and the
  two-element split detected by Sigma;

* the orbit engine: count orbits of the diagonal G(p^2) action on the
  isomorphism-invariant tuples of the genus by Burnside's lemma, from
  the fixed-point counts of each coordinate set separately.  Each count
  depends on the power gen^d only through e = gcd(d, N), N = p(p-1), so
  the counts are kept per divisor e | N.  On the class groups they come
  from Smith invariants (abelian.CyclicAction.fixed_counts) and on U_t
  they are a closed form in its free degrees, so no count lists a
  class, a coset or a tuple, and no count has a size guard.  Only
  enumerate_genus lists the genus, under the guard.

The two engines agree on every tested shape with trivial class groups;
with nontrivial class data any disagreement is reported, never
suppressed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from . import galois, iso, lattice, modring
from .abelian import (DEFAULT_GUARD, burnside_count, divisor_weights, orbit_count,
                      primitive_root)
from .classdata import ClassData
from .errors import EnumerationGuard, InternalError, NotFaithful
from .iso import IsoInvariants
from .lattice import Faithfulness, LatticeDescriptor
from .value import Value

CASE_TRIVIAL = "TrivialModule"
CASE_NONFAITHFUL = "NonFaithfulNontrivial"
CASE_SO_CS = "SoCs"
CASE_CS_BS = "CsBsAbsorption"
CASE_SEM_ABSORCAO = "SemAbsorcaoSemD"
CASE_MAIS_SIMPLES = "MaisSimples"
CASE_COM_BC = "ComBC"
CASE_ULTIMAO = "Ultimao"


class SemidirectDescriptor(Value):
    """The group Z^rank(module) x| C_{p^2} acting through the
    LatticeDescriptor module."""

    __slots__ = ("module",)


class GenusReport(Value):
    """A genus count: closed_form is (count, case name) or None,
    enumeration the orbit-engine count, agree whether the two match (None
    without a closed form), bounds (lower, upper) or None, notes a tuple
    of strings."""

    __slots__ = ("closed_form", "enumeration", "agree", "bounds", "notes")

    @property
    def value(self) -> int:
        return self.enumeration


def _require_faithful(E: SemidirectDescriptor):
    if lattice.faithfulness(E.module) != Faithfulness.FAITHFUL:
        raise NotFaithful(
            "this decision procedure applies only to faithful actions; "
            f"module is {lattice.faithfulness(E.module)}"
        )


def group_isomorphic(E1: SemidirectDescriptor, E2: SemidirectDescriptor) -> bool:
    """Group isomorphism of the semidirect products: the modules must be
    isomorphic up to a Galois twist."""
    _require_faithful(E1)
    _require_faithful(E2)
    return galois.twisted_isomorphic(E1.module, E2.module) is not None


def profinite_isomorphic(E1: SemidirectDescriptor, E2: SemidirectDescriptor) -> bool:
    """Isomorphism of profinite completions: equality of the p-adic
    parameters (with the C/D columns merged)."""
    _require_faithful(E1)
    _require_faithful(E2)
    return iso.same_genus(E1.module, E2.module)


@lru_cache(maxsize=None)
def _ut_fixed_counts(context: ClassData, t: int) -> dict[int, int]:
    """{e: fixed points of gen^e on U_t} over the divisors e of phi(p^2),
    gen the primitive root mod p^2, in closed form.  For t <= p, l^p = 0
    makes the truncated log a filtered isomorphism 1 + lR -> (lR, +), and
    l -> (1+l)^k - 1 sends L = log(1+l) to k*L: the action is diagonal in
    the basis L^j with eigenvalue k^j mod p, distinct characters for
    j < p.  So a Galois-stable image (ClassData.validate checks extra
    generators) is spanned by the L^j at its pivot degrees, and gen^d
    fixes p^#{free j : (p-1) | d*j} cosets, which depends on d only
    through gcd(d, p - 1) and so through gcd(d, phi(p^2)).
    """
    p = context.p
    free = context.unit_quotient(t).free_degrees
    return {
        e: p ** sum(1 for j in free if e * j % (p - 1) == 0)
        for e, _ in divisor_weights(p * (p - 1))
    }


@lru_cache(maxsize=None)
def ut_orbit_count(context: ClassData, t: int) -> int:
    """Orbits of the Galois action on the coset representatives of U_t."""
    return burnside_count(_ut_fixed_counts(context, t), context.p * (context.p - 1))


class _GenusCoordinates(Value):
    """The coordinate sets of the invariant tuples in the genus of D.

    The R and S classes range over the whole class group and the u0
    coset over all of U_t when live, and keep their base values
    otherwise; chi_range lists the character's values.  base is the
    IsoInvariants of D and the *_live fields are bools.
    """

    __slots__ = ("base", "r_live", "s_live", "u_live", "chi_range")


def _genus_coordinates(D: LatticeDescriptor) -> _GenusCoordinates:
    """Class coordinates range over the full class group exactly when some
    summand carries the corresponding ideal slot; the U_t coordinate
    ranges over all cosets exactly when the coset invariant applies and
    an extension summand is present; the quadratic character takes both
    signs exactly when lattice.sigma(D) = 2.
    """
    base = iso.invariants_of(D)
    r_live = lattice.has_R_slot(D)
    s_live = lattice.has_S_slot(D)
    has_ext = any(s.kind in lattice.EXTENSION_KINDS for s in D.summands)
    u_live = base.u0_class is not None and has_ext
    chi_range = (1, -1) if lattice.sigma(D) == 2 else (base.quad_char,)
    return _GenusCoordinates(base, r_live, s_live, u_live, chi_range)


def enumerate_genus(D: LatticeDescriptor, guard: int = DEFAULT_GUARD) -> list[IsoInvariants]:
    """Every isomorphism-invariant tuple realized in the genus of D.

    Raises EnumerationGuard when the genus has more than guard tuples.
    """
    co = _genus_coordinates(D)
    base = co.base
    Hp, Hp2 = D.context.H_p.target, D.context.H_p2.target
    quotient = D.context.unit_quotient(base.t) if co.u_live else None
    total = ((Hp.order if co.r_live else 1) * (Hp2.order if co.s_live else 1)
             * (quotient.order if quotient is not None else 1) * len(co.chi_range))
    if total > guard:
        raise EnumerationGuard(f"genus of size {total} exceeds guard {guard}")
    r_range = Hp.elements() if co.r_live else [Hp.identity()]
    s_range = Hp2.elements() if co.s_live else [Hp2.identity()]
    u_range = quotient.reps if quotient is not None else [base.u0_class]
    return [
        IsoInvariants(base.padic, rc, sc, base.t, u, chi)
        for rc in r_range
        for sc in s_range
        for u in u_range
        for chi in co.chi_range
    ]


def orbit_genus_count(D: LatticeDescriptor) -> int:
    """Number of orbits of the diagonal Galois action on the genus of D.

    For a faithful module this is exactly the number of isomorphism
    classes of groups in the profinite genus of Z^n x| C_{p^2}.  The
    genus is the product of its coordinate sets and G(p^2) is cyclic of
    order N = p(p-1), so Burnside's lemma gives
    (1/N) sum_{e | N} phi(N/e) prod_i fix_i(gen^e) without listing the
    tuples.  Each class-group generator generates its unit group
    (CyclicAction.validate), so gen^d fixes as many classes as
    generator^gcd(d, N) on H_p2 and generator^gcd(d, p - 1) on H_p.
    """
    ctx = D.context
    co = _genus_coordinates(D)
    p = ctx.p
    order = p * (p - 1)
    weights = divisor_weights(order)
    ones = {e: 1 for e, _ in weights}
    # a singleton class coordinate is the identity class, fixed by every
    # automorphism; the character carries the trivial action
    fix_r = ctx.H_p.fixed_counts if co.r_live else ones
    fix_s = ctx.H_p2.fixed_counts if co.s_live else ones
    if co.u_live:
        fix_u = _ut_fixed_counts(ctx, co.base.t)
    else:
        u = co.base.u0_class
        if u is not None:
            quotient = ctx.unit_quotient(co.base.t)
            gen = primitive_root(p * p)
            if quotient.rep_of(modring.galois_on_unit(gen, u)) != u:
                raise InternalError(f"the fixed coset coordinate {u} is not Galois-stable")
        fix_u = ones
    n_chi = len(co.chi_range)
    fixed = {e: fix_r[math.gcd(e, p - 1)] * fix_s[e] * fix_u[e] * n_chi for e, _ in weights}
    return burnside_count(fixed, order)


def closed_form_count(E: SemidirectDescriptor) -> Optional[tuple[int, str]]:
    """The genus size by shape dispatch, or None when no case matches.

    Case tags name the matched shape; uncovered faithful shapes (for
    example an Ec summand next to a type C part when p = 1 mod 4) are
    deliberately left to the enumeration engine.
    """
    D = E.module
    ctx = D.context
    p = D.p
    n = lattice.counts(D)
    faith = lattice.faithfulness(D)
    if faith == Faithfulness.TRIVIAL:
        return (1, CASE_TRIVIAL)
    orb_hp = orbit_count(ctx.H_p)
    if faith == Faithfulness.ORDER_P:
        return (orb_hp, CASE_NONFAITHFUL)
    orb_hp2 = orbit_count(ctx.H_p2)
    n_q = n["B"] + n["C"] + n["D"] + n["E"] + n["F"]
    r_side = n["b"] + n["Eb"] >= 1
    s_side = n["c"] + n["Ec"] >= 1

    if not r_side and n_q == 0 and s_side:
        return (orb_hp2, CASE_SO_CS)

    if p % 4 != 1:
        if sum([r_side, s_side, n_q >= 1]) >= 2:
            return (orb_hp * orb_hp2, CASE_CS_BS)
        if not r_side and not s_side and n_q >= 1:
            orb_ut = ut_orbit_count(ctx, lattice.t_of(D))
            return (orb_hp * orb_hp2 * orb_ut, CASE_SEM_ABSORCAO)
        return None

    # p = 1 (mod 4)
    sig = lattice.sigma(D)
    if not r_side and not s_side and n_q >= 1:
        orb_ut = ut_orbit_count(ctx, lattice.t_of(D))
        return (orb_hp * orb_hp2 * orb_ut * sig, CASE_MAIS_SIMPLES)
    if n["Z"] + n["Eb"] + n["Ec"] + n["B"] + n["F"] == 0:
        cde = n["C"] + n["D"] + n["E"]
        if (n["b"] >= 1 and (n["c"] >= 1 or cde >= 1)) or (
            n["b"] + n["c"] >= 1 and cde >= 1
        ):
            return (orb_hp * orb_hp2 * sig, CASE_COM_BC)
    if (n["Ec"] >= 1 and n["Eb"] >= 1) or (
        n["b"] + n["c"] >= 1
        and (n["Z"] + n["Eb"] + n["Ec"] >= 1 or n["B"] + n["F"] >= 1)
    ):
        return (orb_hp * orb_hp2, CASE_ULTIMAO)
    return None


def genus_bounds(E: SemidirectDescriptor) -> tuple[int, int]:
    """Lower and upper bounds for the genus size of a faithful product."""
    _require_faithful(E)
    ctx = E.module.context
    orb_hp = orbit_count(ctx.H_p)
    orb_hp2 = orbit_count(ctx.H_p2)
    orb_ut = ut_orbit_count(ctx, lattice.t_of(E.module))
    return (orb_hp2, 2 * orb_hp * orb_hp2 * orb_ut)


def genus_report(E: SemidirectDescriptor) -> GenusReport:
    """Run both engines, record agreement, and check the genus bounds."""
    D = E.module
    notes = []
    closed = closed_form_count(E)
    if closed is None:
        notes.append("no closed-form case matches this shape; enumeration only")
    enumeration = orbit_genus_count(D)
    agree = None
    if closed is not None:
        agree = closed[0] == enumeration
        if not agree:
            notes.append(
                "closed form and enumeration disagree; closed-form products "
                "of orbit counts are only verified for trivial class groups"
            )
    bounds = None
    if lattice.faithfulness(D) == Faithfulness.FAITHFUL:
        bounds = genus_bounds(E)
        for label, value in (("closed form", closed[0] if closed else None),
                             ("enumeration", enumeration)):
            if value is not None and not bounds[0] <= value <= bounds[1]:
                notes.append(f"{label} value {value} violates bounds {bounds}")
    return GenusReport(closed, enumeration, agree, bounds, tuple(notes))


def report_to_json(rep: GenusReport) -> dict:
    return {
        "closed_form": (
            {"value": rep.closed_form[0], "case": rep.closed_form[1]}
            if rep.closed_form
            else None
        ),
        "enumeration": rep.enumeration,
        "agree": rep.agree,
        "bounds": list(rep.bounds) if rep.bounds else None,
        "notes": list(rep.notes),
    }
