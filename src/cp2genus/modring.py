"""Exact arithmetic in the truncated polynomial rings F_p[l]/(l^m).

Elements are coefficient vectors: PolyMod(p, m, coeffs) is
coeffs[0] + coeffs[1]*l + ... + coeffs[m-1]*l^(m-1) with l^m = 0.
The variable l stands for g - 1, where g generates a cyclic group of
order p^2; the image of g is therefore 1 + l.

The module also builds the unit groups of these rings, the subgroups
generated by images of the classical unit families of the cyclotomic
rings Z[zeta_p], Z[zeta_{p^2}] and of the group ring Z C_p, and the
quotients U_m of the full unit group by those subgroups, with a
canonical set of coset representatives (the "U~_m" sets: every
representative has constant coefficient 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import AmbientMismatch, Cp2Error, InternalError, NonUnit


@dataclass(frozen=True)
class PolyMod:
    """An element of F_p[l]/(l^m) as a zero-padded coefficient tuple."""

    p: int
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise Cp2Error(f"modulus p={self.p} must be a prime >= 2")
        if self.m < 0:
            raise Cp2Error(f"truncation degree m={self.m} must be >= 0")
        if len(self.coeffs) != self.m:
            raise Cp2Error(
                f"coefficient vector has length {len(self.coeffs)}, expected {self.m}"
            )
        if any(not (0 <= c < self.p) for c in self.coeffs):
            raise Cp2Error(f"coefficients {self.coeffs} not reduced mod {self.p}")

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.m > 0 else 0

    def is_unit(self) -> bool:
        return self.m > 0 and self.coeffs[0] % self.p != 0

    def __str__(self):
        if self.m == 0:
            return "()"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append("l" if c == 1 else f"{c}l")
            else:
                terms.append(f"l^{j}" if c == 1 else f"{c}l^{j}")
        return "+".join(terms) if terms else "0"


def poly(p: int, m: int, coeffs, truncate: bool = False) -> PolyMod:
    """Build a PolyMod from any integer sequence, reducing mod p.

    Pads with zeros up to length m.  Coefficients at degree >= m are an
    error unless truncate=True (they are then discarded, i.e. reduced
    through the ring surjection onto the smaller truncation).
    """
    cs = [c % p for c in coeffs]
    if len(cs) > m:
        if not truncate and any(cs[m:]):
            raise Cp2Error(f"coefficients exceed truncation degree {m}")
        cs = cs[:m]
    cs.extend([0] * (m - len(cs)))
    return PolyMod(p, m, tuple(cs))


def zero(p: int, m: int) -> PolyMod:
    return PolyMod(p, m, (0,) * m)


def one(p: int, m: int) -> PolyMod:
    if m == 0:
        return PolyMod(p, 0, ())
    return PolyMod(p, m, (1,) + (0,) * (m - 1))


def lam(p: int, m: int) -> PolyMod:
    """The nilpotent generator l."""
    if m < 2:
        return zero(p, m)
    return PolyMod(p, m, (0, 1) + (0,) * (m - 2))


def _same_ambient(a: PolyMod, b: PolyMod):
    if a.p != b.p or a.m != b.m:
        raise AmbientMismatch(
            f"operands live in F_{a.p}[l]/(l^{a.m}) and F_{b.p}[l]/(l^{b.m})"
        )


def poly_add(a: PolyMod, b: PolyMod) -> PolyMod:
    _same_ambient(a, b)
    p = a.p
    return PolyMod(p, a.m, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))


def poly_sub(a: PolyMod, b: PolyMod) -> PolyMod:
    _same_ambient(a, b)
    p = a.p
    return PolyMod(p, a.m, tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))


def poly_mul(a: PolyMod, b: PolyMod) -> PolyMod:
    """Product truncated at l^m."""
    _same_ambient(a, b)
    p, m = a.p, a.m
    out = [0] * m
    ac, bc = a.coeffs, b.coeffs
    for i, x in enumerate(ac):
        if x == 0:
            continue
        for j in range(m - i):
            y = bc[j]
            if y:
                out[i + j] = (out[i + j] + x * y) % p
    return PolyMod(p, m, tuple(out))


def poly_pow(a: PolyMod, e: int) -> PolyMod:
    if e < 0:
        return poly_pow(poly_inv(a), -e)
    result = one(a.p, a.m)
    base = a
    while e:
        if e & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        e >>= 1
    return result


def poly_inv(a: PolyMod) -> PolyMod:
    """Multiplicative inverse; raises NonUnit when the constant term is 0 mod p."""
    if a.m == 0 or a.coeffs[0] % a.p == 0:
        raise NonUnit(f"{a} is not a unit of F_{a.p}[l]/(l^{a.m})")
    p, m = a.p, a.m
    c0inv = pow(a.coeffs[0], -1, p)
    out = [0] * m
    out[0] = c0inv
    # back-substitution: sum_{i<=j} a_i r_{j-i} = 0 for j >= 1
    for j in range(1, m):
        s = sum(a.coeffs[i] * out[j - i] for i in range(1, j + 1)) % p
        out[j] = (-c0inv * s) % p
    return PolyMod(p, m, tuple(out))


def poly_shift(a: PolyMod, r: int) -> PolyMod:
    """Multiply by l^r (truncating)."""
    if r < 0:
        raise Cp2Error("shift exponent must be >= 0")
    if r == 0:
        return a
    m = a.m
    if r >= m:
        return zero(a.p, m)
    return PolyMod(a.p, m, (0,) * r + a.coeffs[: m - r])


def truncate_poly(a: PolyMod, m2: int) -> PolyMod:
    """Image under the ring surjection onto F_p[l]/(l^m2), m2 <= m."""
    if m2 > a.m:
        raise Cp2Error(f"cannot truncate from degree {a.m} to larger degree {m2}")
    return PolyMod(a.p, m2, a.coeffs[:m2])


def lift_poly(a: PolyMod, m2: int) -> PolyMod:
    """Zero-padded coefficient lift into F_p[l]/(l^m2), m2 >= m."""
    if m2 < a.m:
        raise Cp2Error(f"cannot lift from degree {a.m} to smaller degree {m2}")
    return PolyMod(a.p, m2, a.coeffs + (0,) * (m2 - a.m))


def delta_poly(p: int, m: int, l: int) -> PolyMod:
    """Delta_l = 1 + (1+l) + (1+l)^2 + ... + (1+l)^(l-1), the image of
    the cyclotomic unit (zeta^l - 1)/(zeta - 1) under zeta -> 1 + l."""
    if l < 1:
        raise Cp2Error("delta index must be >= 1")
    g = poly_add(one(p, m), lam(p, m))
    total = zero(p, m)
    cur = one(p, m)
    for _ in range(l):
        total = poly_add(total, cur)
        cur = poly_mul(cur, g)
    return total


def galois_on_unit(k: int, x: PolyMod) -> PolyMod:
    """Apply the ring map l -> (1+l)^k - 1 (the image of g -> g^k).

    Defined on every element, not only units; k must be coprime to p.
    """
    p, m = x.p, x.m
    if math.gcd(k, p) != 1:
        raise Cp2Error(f"k={k} is not coprime to p={p}")
    if m == 0:
        return x
    kk = k % (p * p)
    mu = poly_sub(poly_pow(poly_add(one(p, m), lam(p, m)), kk), one(p, m))
    # Horner evaluation of x at mu
    acc = zero(p, m)
    for c in reversed(x.coeffs):
        acc = poly_mul(acc, mu)
        if c:
            acc = poly_add(acc, poly(p, m, (c,)))
    return acc


@lru_cache(maxsize=None)
def unit_group(p: int, m: int) -> tuple[PolyMod, ...]:
    """All units of F_p[l]/(l^m); there are (p-1)*p^(m-1) of them."""
    if m < 1:
        raise Cp2Error("unit_group requires m >= 1")
    units = []
    for c0 in range(1, p):
        for rest in product(range(p), repeat=m - 1):
            units.append(PolyMod(p, m, (c0,) + rest))
    return tuple(units)


@dataclass(frozen=True)
class UnitSubgroup:
    """A subgroup of u(F_p[l]/(l^m)), kept as an explicit element set."""

    p: int
    m: int
    elements: frozenset[PolyMod]
    generators: tuple[PolyMod, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: PolyMod) -> bool:
        return x in self.elements


def subgroup_closure(gens) -> UnitSubgroup:
    """Smallest multiplicatively closed subset containing the generators and 1.

    In a finite group this is automatically closed under inverses.
    """
    gens = tuple(gens)
    if not gens:
        raise Cp2Error("subgroup_closure needs at least one generator")
    p, m = gens[0].p, gens[0].m
    for g in gens:
        _same_ambient(gens[0], g)
        if not g.is_unit():
            raise NonUnit(f"generator {g} is not a unit")
    seen = {one(p, m)}
    frontier = [one(p, m)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = poly_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return UnitSubgroup(p, m, frozenset(seen), gens)


def _as_polys(p: int, m: int, raw_gens) -> list[PolyMod]:
    out = []
    for g in raw_gens:
        if isinstance(g, PolyMod):
            if g.p != p:
                raise AmbientMismatch(f"extra generator {g} has wrong characteristic")
            out.append(truncate_poly(g, m) if g.m >= m else lift_poly(g, m))
        else:
            out.append(poly(p, m, g, truncate=True))
    return out


@lru_cache(maxsize=None)
def image_of_R_units(p: int, m: int, extra_gens: tuple = ()) -> UnitSubgroup:
    """Subgroup of u(F_p[l]/(l^m)) generated by images of units of Z[zeta_p].

    Default generators: -1, the image 1+l of zeta_p, and the cyclotomic
    units Delta_l for 2 <= l <= p-1.  These generate the full unit group
    of Z[zeta_p] for p <= 7; extra generators may be configured for
    larger primes.  Requires 1 <= m <= p-1.
    """
    if not 1 <= m <= p - 1:
        raise Cp2Error(f"image_of_R_units needs 1 <= m <= p-1, got m={m}")
    gens = [poly(p, m, (p - 1,)), poly_add(one(p, m), lam(p, m))]
    gens.extend(delta_poly(p, m, l) for l in range(2, p))
    gens.extend(_as_polys(p, m, extra_gens))
    return subgroup_closure(gens)


@lru_cache(maxsize=None)
def image_of_ES_units(p: int, extra_gens: tuple = ()) -> UnitSubgroup:
    """Subgroup of u(F_p[l]/(l^p)) generated by images of units of
    Z C_p and of Z[zeta_{p^2}].

    Default generators: -1 and 1+l (covering the trivial units of both
    rings) and the cyclotomic units Delta_l(zeta_{p^2}) for l coprime
    to p, 2 <= l < p^2.  Nontrivial units of Z C_p (p >= 5) are not
    covered by a known finite family, so without extra generators the
    computed subgroup is a lower bound for the true image.
    """
    m = p
    gens = [poly(p, m, (p - 1,)), poly_add(one(p, m), lam(p, m))]
    gens.extend(delta_poly(p, m, l) for l in range(2, p * p) if l % p != 0)
    gens.extend(_as_polys(p, m, extra_gens))
    return subgroup_closure(gens)


@dataclass(frozen=True, eq=False)
class UnitQuotient:
    """The quotient U_m with canonical coset representatives.

    reps holds one representative per coset, each with constant
    coefficient 1, chosen as the lexicographically smallest such
    coefficient vector in the coset.
    """

    p: int
    m: int
    subgroup: UnitSubgroup
    reps: tuple[PolyMod, ...]
    _index: dict

    @property
    def order(self) -> int:
        return len(self.reps)

    def is_trivial(self) -> bool:
        return len(self.reps) == 1

    def rep_of(self, u: PolyMod) -> PolyMod:
        """Canonical representative of the coset of u."""
        if self.m == 0:
            return self.reps[0]
        if u.p != self.p or u.m != self.m:
            raise AmbientMismatch(f"{u} does not live in F_{self.p}[l]/(l^{self.m})")
        try:
            return self._index[u]
        except KeyError:
            raise NonUnit(f"{u} is not a unit") from None


def _quotient(p: int, m: int, subgroup: UnitSubgroup) -> UnitQuotient:
    units = unit_group(p, m)
    index: dict[PolyMod, PolyMod] = {}
    reps = []
    for u in units:
        if u in index:
            continue
        coset = [poly_mul(u, h) for h in subgroup.elements]
        rep = min((v for v in coset if v.coeffs[0] == 1), key=lambda v: v.coeffs)
        for v in coset:
            index[v] = rep
        reps.append(rep)
    if len(reps) * subgroup.order != len(units):
        raise InternalError(
            f"{len(reps)} cosets of a subgroup of order {subgroup.order} "
            f"do not cover the {len(units)} units"
        )
    reps.sort(key=lambda v: v.coeffs)
    return UnitQuotient(p, m, subgroup, tuple(reps), index)


@lru_cache(maxsize=None)
def compute_Um(
    p: int, m: int, extra_R_gens: tuple = (), extra_ES_gens: tuple = ()
) -> UnitQuotient:
    """The factor group U_m.

    U_0 is trivial; for 1 <= m <= p-1 the quotient is by the image of
    u(Z[zeta_p]); for m = p it is by the image of u(Z C_p) * u(Z[zeta_{p^2}]).
    """
    if m < 0 or m > p:
        raise Cp2Error(f"U_m is defined for 0 <= m <= p, got m={m}")
    if m == 0:
        e = PolyMod(p, 0, ())
        sub = UnitSubgroup(p, 0, frozenset({e}), ())
        return UnitQuotient(p, 0, sub, (e,), {e: e})
    if m == p:
        sub = image_of_ES_units(p, extra_ES_gens)
    else:
        sub = image_of_R_units(p, m, extra_R_gens)
    return _quotient(p, m, sub)
