"""Isomorphism and genus decisions for lattice descriptors.

Two descriptors are in the same genus exactly when their p-adic
completions match: the completion forgets ideal classes and unit
parameters and merges types C and D.  Full isomorphism additionally
compares the R- and S-ideal classes and, when applicable, the coset of
the unit product u0 in U_t and its quadratic character mod p.
"""

from __future__ import annotations

from . import lattice, modring
from .errors import Cp2Error
from .lattice import LatticeDescriptor
from .value import Value


class PadicDescriptor(Value):
    """Multiplicities of the 4p+1 indecomposable p-adic lattice types.

    a counts Z_p, nR Z_p[zeta_p], nE Z_p C_p, nS Z_p[zeta_{p^2}] and nZS
    (Z_p, Z_p[zeta_{p^2}]; 1).  The int tuples count type B by r in
    [0, p-1] (beta), the merged types C and D by r in [1, p-2] (cd), and
    types E (eps) and F (eta) by r in [0, p-2].
    """

    __slots__ = ("p", "a", "nR", "nE", "nS", "nZS", "beta", "cd", "eps", "eta")


def padic_completion(D: LatticeDescriptor) -> PadicDescriptor:
    p = D.p
    n = lattice.counts(D)
    gv = lattice.genus_vector(D)
    cd = tuple(g + d for g, d in zip(gv.gamma, gv.delta))
    return PadicDescriptor(p, n["Z"], n["b"], n["Eb"], n["c"], n["Ec"], gv.beta, cd,
                           gv.eps, gv.eta)


def same_genus(D1: LatticeDescriptor, D2: LatticeDescriptor) -> bool:
    if D1.p != D2.p:
        return False
    return padic_completion(D1) == padic_completion(D2)


class IsoInvariants(Value):
    """The full isomorphism invariant of a descriptor.

    padic is its PadicDescriptor, R_class and S_class are class-group
    elements (int tuples) and t is the truncation index.  u0_class is
    the canonical U_t representative of the coset of u0, present exactly
    when the descriptor has no summand of kind b, Eb, c or Ec.
    quad_char is the Legendre symbol of u0's constant term, present
    exactly when p = 1 (mod 4) and there is no summand of kind Z, Eb,
    Ec, B or F.  Presence patterns depend only on the genus.
    """

    __slots__ = ("padic", "R_class", "S_class", "t", "u0_class", "quad_char")


def u0_coset_applies(D: LatticeDescriptor) -> bool:
    return not any(s.kind in ("b", "Eb", "c", "Ec") for s in D.summands)


def quad_char_applies(D: LatticeDescriptor) -> bool:
    if D.p % 4 != 1:
        return False
    return not any(s.kind in ("Z", "Eb", "Ec", "B", "F") for s in D.summands)


def invariants_of(D: LatticeDescriptor) -> IsoInvariants:
    return _invariants(D, padic_completion(D))


def _invariants(D: LatticeDescriptor, padic: PadicDescriptor) -> IsoInvariants:
    """invariants_of(D), given its p-adic completion padic."""
    p = D.p
    rc, sc = lattice.ideal_classes(D)
    t = lattice.t_of(D)
    coset, quad_applies = u0_coset_applies(D), quad_char_applies(D)
    u0 = lattice.u0(D) if coset or quad_applies else None
    u0_class = quad = None
    if coset:
        quotient = D.context.unit_quotient(t)
        u0_class = quotient.rep_of(modring.truncate_poly(u0, t))
    if quad_applies:
        quad = 1 if pow(u0.constant, (p - 1) // 2, p) == 1 else -1
    return IsoInvariants(padic, rc, sc, t, u0_class, quad)


def isomorphic(D1: LatticeDescriptor, D2: LatticeDescriptor) -> bool:
    """Isomorphism as Z[C_{p^2}]-lattices, decided by the invariants."""
    if D1.p != D2.p or D1.context != D2.context:
        raise Cp2Error("descriptors live over different primes or class data")
    padic = padic_completion(D1)
    if padic != padic_completion(D2):
        return False
    return _invariants(D1, padic) == _invariants(D2, padic)


def padic_to_json(pd: PadicDescriptor) -> dict:
    return {
        "p": pd.p,
        "Z": pd.a,
        "R": pd.nR,
        "E": pd.nE,
        "S": pd.nS,
        "ZS": pd.nZS,
        "B": list(pd.beta),
        "CD": list(pd.cd),
        "Etype": list(pd.eps),
        "F": list(pd.eta),
    }


def invariants_to_json(inv: IsoInvariants) -> dict:
    return {
        "padic": padic_to_json(inv.padic),
        "R_class": list(inv.R_class),
        "S_class": list(inv.S_class),
        "t": inv.t,
        "u0_class": list(inv.u0_class.coeffs) if inv.u0_class is not None else None,
        "quad_char": inv.quad_char,
    }
