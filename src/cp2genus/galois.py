"""The twisting action of the Galois group G(p^2) = (Z/p^2)^* on descriptors.

A unit k twists a lattice by precomposing the group action with
g -> g^k.  On descriptors this moves every ideal class by the
configured class-group action (k mod p on the R side, k on the S side)
and replaces each unit parameter u by the canonical representative of
its image under the ring map l -> (1+l)^k - 1; exponents r and type
tags are untouched.  Two faithful semidirect products are isomorphic
as groups exactly when one module is isomorphic to some twist of the
other, which is what twisted_isomorphic searches for, by acting on the
isomorphism invariants of one module directly.

The search is over residues first.  The u0 coset lives in U_t with
t <= p, where l^p = 0 and so (1+l)^p = 1: the ring map, like the
action on the R class, sees k only mod p.  Only the S class sees all
of k mod p^2, and moving it is one table lookup per unit.
"""

from __future__ import annotations

import math

from . import iso, lattice
from .abelian import _act, _check_member, apply_action
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
    if s.kind in ("b", "Eb", "c", "Ec"):
        return Summand(s.kind, b, c, None, None)
    m = lattice.unit_index(s.kind, s.r, p)
    quotient = context.unit_quotient(m)
    u = quotient.rep_of(galois_on_unit(k, s.u))
    return Summand(s.kind, b, c, s.r, u)


def twist(D: LatticeDescriptor, k: int) -> LatticeDescriptor:
    """The descriptor of the twisted lattice M^(g -> g^k)."""
    k = _normalize_k(k, D.p)
    return lattice.descriptor(
        D.p, D.context, [(twist_summand(s, k, D.p, D.context), n) for s, n in D.summands]
    )


def galois_units(p: int) -> list[int]:
    return [k for k in range(1, p * p) if k % p != 0]


def _move_coset(context, k: int, inv: IsoInvariants):
    """The u0 coset of twist(D, k), given inv = invariants_of(D)."""
    u = inv.u0_class
    return u if u is None else context.unit_quotient(inv.t).rep_of(galois_on_unit(k, u))


def twisted_isomorphic(D1: LatticeDescriptor, D2: LatticeDescriptor):
    """Smallest k with D1 isomorphic to twist(D2, k), or None.

    Twisting preserves the genus, so descriptors with different p-adic
    completions are rejected at once; each completion is taken once.
    The R class, the u0 coset and the quadratic character of twist(D2, k)
    depend on k only through r = k mod p (see the module docstring), so
    they are matched for the p - 1 residues r, acting on the invariants
    of D2 rather than re-deriving them from each twist (t and the
    character do not move at all).  Then the units k are walked in
    increasing order, and the first one whose residue matched and which
    moves the S class of D2 onto that of D1 is the answer: at most p - 1
    coset computations instead of p(p - 1).  The classes of D2 are
    checked for membership once, not per unit.
    """
    if D1.p != D2.p or D1.context != D2.context:
        raise Cp2Error("descriptors live over different primes or class data")
    padic = iso.padic_completion(D1)
    if padic != iso.padic_completion(D2):
        return None
    p, context = D1.p, D1.context
    target = iso._invariants(D1, padic)
    inv = iso._invariants(D2, padic)
    if (inv.t, inv.quad_char) != (target.t, target.quad_char):
        return None
    H_p, H_p2 = context.H_p, context.H_p2
    _check_member(H_p.target, inv.R_class)
    _check_member(H_p2.target, inv.S_class)
    residues = {r for r in range(1, p) if _act(H_p, r, inv.R_class) == target.R_class
                and _move_coset(context, r, inv) == target.u0_class}
    for k in galois_units(p):
        if k % p in residues and _act(H_p2, k, inv.S_class) == target.S_class:
            return k
    return None
