"""Profinite genus of the groups Z^n x| C_{p^2}.

The genus of a faithful semidirect product is a product of finite sets
on which G(p^2) = (Z/p^2)^* acts diagonally: the R class, the S class,
the U_t coset of u0 and the quadratic character, each listed when the
action moves it (LatticeDescriptor.moving_coordinates).  Each set
carries its fixed-point counts per divisor e of N = p(p-1), since gen^d
fixes as many points as gen^gcd(d, N): Smith invariants on the class
groups (abelian.CyclicAction.fixed_counts) and a closed form in the free
degrees on U_t, so no count lists a class, a coset or a tuple.  A count
depends on D only through its class data, the names of its moving
coordinates and t, and every genus number reads one kept fold per
(class data, moving coordinates, t), _genus_fold, which gives the
Burnside orbit count of the product and the orbit count of each set:

* the orbit engine is the orbit count of the product;

* the closed form dispatches over module shapes to name a case, and
  its value is the product of the orbit counts of the sets;

* the bounds read the orbit counts of the R class, the S class and U_t
  from the fold of those three sets, and ut_orbit_count (`orbits --m`)
  reads U_t's from the fold of U_t alone.

The engine and the closed form agree when the stabilisers allow it,
which they always do with trivial class groups; any disagreement is
reported, never suppressed.  Only enumerate_genus lists the genus, under
the guard.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Optional

from . import galois, iso, lattice
from .abelian import DEFAULT_GUARD, burnside_count, divisor_weights
from .classdata import ClassData
from .errors import EnumerationGuard, NotFaithful
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


def _hp_fixed_counts(context: ClassData, t: int) -> dict[int, int]:
    """gen^e acts on H_p as generator^gcd(e, p - 1)."""
    p, fix = context.p, context.H_p.fixed_counts
    return {e: fix[math.gcd(e, p - 1)] for e, _ in divisor_weights(p * (p - 1))}


# Each coordinate set by field name, as functions of (context, t): its
# {e: fixed points of gen^e} over the divisors e of N = p(p-1), so
# fixed[N] is its size, and its lister.
_FIXED_COUNTS = {
    "R_class": _hp_fixed_counts,
    "S_class": lambda context, t: context.H_p2.fixed_counts,
    "u0_class": _ut_fixed_counts,
    "quad_char": lambda context, t: {
        e: 2 for e, _ in divisor_weights(context.p * (context.p - 1))},
}
_LISTERS = {
    "R_class": lambda context, t: context.H_p.target.elements(),
    "S_class": lambda context, t: context.H_p2.target.elements(),
    "u0_class": lambda context, t: context.unit_quotient(t).reps,
    "quad_char": lambda context, t: (1, -1),
}


@lru_cache(maxsize=None)
def _genus_fold(context: ClassData, names: tuple[str, ...],
                t: int) -> tuple[int, tuple[int, ...]]:
    """(orbit engine, orbit count of each set) for the genus whose moving
    coordinates are names, with the index t.

    G(p^2) is cyclic of order N = p(p-1) and acts diagonally, so
    Burnside's lemma counts the orbits of the product as
    (1/N) sum_{e | N} phi(N/e) prod_i fix_i(gen^e) without listing the
    tuples, and the orbits of each set by the same sum over its own
    counts.  The R class counts are re-indexed from the divisors of p - 1,
    and each residue mod p - 1 occurs p times among the powers gen^d,
    d < N, so its orbit count is that of the class group's own action.
    """
    order = context.p * (context.p - 1)
    fixed = [_FIXED_COUNTS[name](context, t) for name in names]
    orbits = burnside_count(
        {e: math.prod(f[e] for f in fixed) for e, _ in divisor_weights(order)}, order)
    return orbits, tuple(burnside_count(f, order) for f in fixed)


def ut_orbit_count(context: ClassData, t: int) -> int:
    """Orbits of the Galois action on the coset representatives of U_t,
    read from the kept fold of the U_t coordinate alone."""
    return _genus_fold(context, ("u0_class",), t)[1][0]


def enumerate_genus(D: LatticeDescriptor) -> list[IsoInvariants]:
    """Every isomorphism-invariant tuple realized in the genus of D: the
    product of the moving coordinate sets, substituted into
    invariants_of(D).

    Raises EnumerationGuard when the genus has more than DEFAULT_GUARD
    tuples.
    """
    ctx, t, names = D.context, lattice.t_of(D), D.moving_coordinates
    total = math.prod(_FIXED_COUNTS[name](ctx, t)[D.p * (D.p - 1)] for name in names)
    if total > DEFAULT_GUARD:
        raise EnumerationGuard(f"genus of size {total} exceeds guard {DEFAULT_GUARD}")
    base = iso.invariants_of(D)
    fields = {f: getattr(base, f) for f in IsoInvariants._fields}
    return [IsoInvariants(**{**fields, **dict(zip(names, point))})
            for point in product(*(_LISTERS[name](ctx, t) for name in names))]


def orbit_genus_count(D: LatticeDescriptor) -> int:
    """Number of orbits of the diagonal Galois action on the genus of D,
    read from the kept fold.

    For a faithful module this is exactly the number of isomorphism
    classes of groups in the profinite genus of Z^n x| C_{p^2}.
    """
    return _genus_fold(D.context, D.moving_coordinates, lattice.t_of(D))[0]


def _closed_form_case(D: LatticeDescriptor) -> Optional[str]:
    """The name of the closed-form case covering the shape of D, or None.

    Uncovered faithful shapes (for example an Ec summand next to a type
    C part when p = 1 mod 4) are deliberately left to the orbit engine.
    """
    faith = lattice.faithfulness(D)
    if faith == Faithfulness.TRIVIAL:
        return CASE_TRIVIAL
    if faith == Faithfulness.ORDER_P:
        return CASE_NONFAITHFUL
    n = lattice.counts(D)
    n_q = n["B"] + n["C"] + n["D"] + n["E"] + n["F"]
    r_side = n["b"] + n["Eb"] >= 1
    s_side = n["c"] + n["Ec"] >= 1
    if not r_side and n_q == 0 and s_side:
        return CASE_SO_CS
    if not r_side and not s_side and n_q >= 1:
        return CASE_MAIS_SIMPLES if D.p % 4 == 1 else CASE_SEM_ABSORCAO
    if D.p % 4 != 1:
        return CASE_CS_BS if sum([r_side, s_side, n_q >= 1]) >= 2 else None
    if n["Z"] + n["Eb"] + n["Ec"] + n["B"] + n["F"] == 0:
        cde = n["C"] + n["D"] + n["E"]
        if (n["b"] >= 1 and (n["c"] >= 1 or cde >= 1)) or (
            n["b"] + n["c"] >= 1 and cde >= 1
        ):
            return CASE_COM_BC
    if (n["Ec"] >= 1 and n["Eb"] >= 1) or (
        n["b"] + n["c"] >= 1
        and (n["Z"] + n["Eb"] + n["Ec"] >= 1 or n["B"] + n["F"] >= 1)
    ):
        return CASE_ULTIMAO
    return None


def closed_form_count(E: SemidirectDescriptor) -> Optional[tuple[int, str]]:
    """The genus size by shape dispatch, or None when no case matches:
    the product of the orbit counts of the moving coordinate sets, read
    from the kept fold and tagged with the name of the matched case.
    """
    D = E.module
    case = _closed_form_case(D)
    if case is None:
        return None
    return math.prod(_genus_fold(D.context, D.moving_coordinates, lattice.t_of(D))[1]), case


def genus_bounds(E: SemidirectDescriptor) -> tuple[int, int]:
    """Lower and upper bounds for the genus size of a faithful product:
    the S class orbits, and twice the orbits of the R class, the S class
    and U_t, read from one kept fold."""
    _require_faithful(E)
    D = E.module
    R, S, U = _genus_fold(D.context, ("R_class", "S_class", "u0_class"), lattice.t_of(D))[1]
    return S, 2 * R * S * U


def genus_report(E: SemidirectDescriptor) -> GenusReport:
    """Run both engines, record agreement, and check the engine against
    the genus bounds.

    Both counts read one kept fold per (class data, moving coordinates,
    t), and the bounds one more.  The closed form needs no check: on a
    faithful module the S class moves, so its product of orbit counts,
    each at least 1 and 2 for the quadratic character, lies in the bounds.
    """
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
        if not bounds[0] <= enumeration <= bounds[1]:
            notes.append(f"enumeration value {enumeration} violates bounds {bounds}")
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
