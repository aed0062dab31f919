"""Isomorphism and genus decisions for lattice descriptors.

Two descriptors are in the same genus exactly when their p-adic
completions match: the completion forgets ideal classes and unit
parameters and merges types C and D.  Full isomorphism additionally
compares the R- and S-ideal classes and, when applicable, the coset of
the unit product u0 in U_t and its quadratic character mod p.
"""

from __future__ import annotations

from typing import Optional

from . import lattice, modring
from .errors import Cp2Error
from .lattice import LatticeDescriptor
from .modring import PolyMod
from .value import Value, set_field


class PadicDescriptor(Value):
    """Multiplicities of the 4p+1 indecomposable p-adic lattice types."""

    __slots__ = ("p", "a", "nR", "nE", "nS", "nZS", "beta", "cd", "eps", "eta")

    def __init__(
        self,
        p: int,
        a: int,        # Z_p
        nR: int,       # Z_p[zeta_p]
        nE: int,       # Z_p C_p
        nS: int,       # Z_p[zeta_{p^2}]
        nZS: int,      # (Z_p, Z_p[zeta_{p^2}]; 1)
        beta: tuple[int, ...],   # type B by r in [0, p-1]
        cd: tuple[int, ...],     # merged types C and D by r in [1, p-2]
        eps: tuple[int, ...],    # type E by r in [0, p-2]
        eta: tuple[int, ...],    # type F by r in [0, p-2]
    ):
        set_field(self, "p", p)
        set_field(self, "a", a)
        set_field(self, "nR", nR)
        set_field(self, "nE", nE)
        set_field(self, "nS", nS)
        set_field(self, "nZS", nZS)
        set_field(self, "beta", beta)
        set_field(self, "cd", cd)
        set_field(self, "eps", eps)
        set_field(self, "eta", eta)


def padic_completion(D: LatticeDescriptor) -> PadicDescriptor:
    p = D.p
    n = lattice.counts(D)
    gv = lattice.genus_vector(D)
    cd = tuple(g + d for g, d in zip(gv.gamma, gv.delta))
    return PadicDescriptor(
        p=p,
        a=n["Z"],
        nR=n["b"],
        nE=n["Eb"],
        nS=n["c"],
        nZS=n["Ec"],
        beta=gv.beta,
        cd=cd,
        eps=gv.eps,
        eta=gv.eta,
    )


def same_genus(D1: LatticeDescriptor, D2: LatticeDescriptor) -> bool:
    if D1.p != D2.p:
        return False
    return padic_completion(D1) == padic_completion(D2)


class IsoInvariants(Value):
    """The full isomorphism invariant of a descriptor.

    u0_class is the canonical U_t representative of the coset of u0,
    present exactly when the descriptor has no summand of kind b, Eb,
    c or Ec.  quad_char is the Legendre symbol of u0's constant term,
    present exactly when p = 1 (mod 4) and there is no summand of kind
    Z, Eb, Ec, B or F.  Presence patterns depend only on the genus.
    """

    __slots__ = ("padic", "R_class", "S_class", "t", "u0_class", "quad_char")

    def __init__(
        self,
        padic: PadicDescriptor,
        R_class: tuple[int, ...],
        S_class: tuple[int, ...],
        t: int,
        u0_class: Optional[PolyMod],
        quad_char: Optional[int],
    ):
        set_field(self, "padic", padic)
        set_field(self, "R_class", R_class)
        set_field(self, "S_class", S_class)
        set_field(self, "t", t)
        set_field(self, "u0_class", u0_class)
        set_field(self, "quad_char", quad_char)


def u0_coset_applies(D: LatticeDescriptor) -> bool:
    return not any(s.kind in ("b", "Eb", "c", "Ec") for s in D.summands)


def quad_char_applies(D: LatticeDescriptor) -> bool:
    if D.p % 4 != 1:
        return False
    return not any(s.kind in ("Z", "Eb", "Ec", "B", "F") for s in D.summands)


def invariants_of(D: LatticeDescriptor) -> IsoInvariants:
    p = D.p
    rc, sc = lattice.ideal_classes(D)
    t = lattice.t_of(D)
    u0_class = None
    if u0_coset_applies(D):
        quotient = D.context.unit_quotient(t)
        u0_class = quotient.rep_of(modring.truncate_poly(lattice.u0(D), t))
    quad = None
    if quad_char_applies(D):
        c0 = lattice.u0(D).constant
        quad = 1 if pow(c0, (p - 1) // 2, p) == 1 else -1
    return IsoInvariants(
        padic=padic_completion(D),
        R_class=rc,
        S_class=sc,
        t=t,
        u0_class=u0_class,
        quad_char=quad,
    )


def isomorphic(D1: LatticeDescriptor, D2: LatticeDescriptor) -> bool:
    """Isomorphism as Z[C_{p^2}]-lattices, decided by the invariants."""
    if D1.p != D2.p or D1.context != D2.context:
        raise Cp2Error("descriptors live over different primes or class data")
    if not same_genus(D1, D2):
        return False
    return invariants_of(D1) == invariants_of(D2)


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
