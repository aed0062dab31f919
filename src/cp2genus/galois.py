"""The twisting action of the Galois group G(p^2) = (Z/p^2)^* on descriptors.

A unit k twists a lattice by precomposing the group action with
g -> g^k.  On descriptors this moves every ideal class by the
configured class-group action (k mod p on the R side, k on the S side)
and replaces each unit parameter u by the canonical representative of
its image under the ring map l -> (1+l)^k - 1; exponents r and type
tags are untouched.  Two faithful semidirect products are isomorphic
as groups exactly when one module is isomorphic to some twist of the
other, which is what twisted_isomorphic searches for, by acting on
isomorphism invariants directly (act_on_invariants).
"""

from __future__ import annotations

import math

from . import iso, lattice
from .abelian import apply_action
from .errors import Cp2Error
from .iso import IsoInvariants
from .lattice import LatticeDescriptor, Summand
from .modring import galois_on_unit


def _normalize_k(k: int, p: int) -> int:
    k %= p * p
    if k == 0 or math.gcd(k, p) != 1:
        raise Cp2Error(f"twist parameter k={k} is not a unit mod {p * p}")
    return k


def twist_summand(s: Summand, k: int, p: int, context) -> Summand:
    if s.kind == "Z":
        return s
    b = apply_action(context.H_p, k % p, s.b) if s.b is not None else None
    c = apply_action(context.H_p2, k, s.c) if s.c is not None else None
    if s.kind in ("b", "Eb"):
        return Summand(s.kind, b=b)
    if s.kind in ("c", "Ec"):
        return Summand(s.kind, c=c)
    m = lattice.unit_index(s.kind, s.r, p)
    quotient = context.unit_quotient(m)
    u = quotient.rep_of(galois_on_unit(k, s.u))
    return Summand(s.kind, b=b, c=c, r=s.r, u=u)


def twist(D: LatticeDescriptor, k: int) -> LatticeDescriptor:
    """The descriptor of the twisted lattice M^(g -> g^k)."""
    k = _normalize_k(k, D.p)
    return lattice.descriptor(
        D.p, D.context, [twist_summand(s, k, D.p, D.context) for s in D.summands]
    )


def galois_units(p: int) -> list[int]:
    return [k for k in range(1, p * p) if k % p != 0]


def act_on_invariants(context, k: int, inv: IsoInvariants) -> IsoInvariants:
    """The invariants of twist(D, k), computed from inv = invariants_of(D).

    Twisting moves the ideal classes by the class-group actions and the
    u0 coset by the ring map l -> (1+l)^k - 1; the genus, t and the
    quadratic character (the constant term of u0) do not change.
    """
    u = inv.u0_class
    if u is not None:
        u = context.unit_quotient(inv.t).rep_of(galois_on_unit(k, u))
    return IsoInvariants(
        inv.padic,
        apply_action(context.H_p, k % context.p, inv.R_class),
        apply_action(context.H_p2, k, inv.S_class),
        inv.t,
        u,
        inv.quad_char,
    )


def twisted_isomorphic(D1: LatticeDescriptor, D2: LatticeDescriptor):
    """Smallest k with D1 isomorphic to twist(D2, k), or None.

    The search runs over all phi(p^2) Galois elements, acting on the
    invariants of D2 rather than re-deriving them from each twist;
    twisting preserves the genus, so descriptors in different genera are
    rejected immediately.
    """
    if D1.p != D2.p or D1.context != D2.context:
        raise Cp2Error("descriptors live over different primes or class data")
    if not iso.same_genus(D1, D2):
        return None
    target = iso.invariants_of(D1)
    inv = iso.invariants_of(D2)
    for k in galois_units(D1.p):
        if act_on_invariants(D2.context, k, inv) == target:
            return k
    return None
