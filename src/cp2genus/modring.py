"""Exact arithmetic in the truncated polynomial rings F_p[l]/(l^m).

Elements are coefficient vectors: PolyMod(p, m, coeffs) is
coeffs[0] + coeffs[1]*l + ... + coeffs[m-1]*l^(m-1) with l^m = 0.
The variable l stands for g - 1, where g generates a cyclic group of
order p^2; the image of g is therefore 1 + l.

The module also builds the quotients U_m, 0 <= m <= p, of the full unit
group by the images of the unit groups of Z[zeta_p] (m < p) and of
Z C_p and Z[zeta_{p^2}] (m = p), with a canonical set of coset
representatives (the "U~_m" sets: every representative has constant
coefficient 1).  One generator list serves every m: -1, 1 + l, the
cyclotomic units Delta_2 .. Delta_{p-1}, and at m = p also
1 + l^(p-1); by Lucas's theorem these p + 1 units generate the same
image as the p^2 - p + 1 classical ones (see compute_Um).  Nothing
lists the unit group, whose order is (p-1)*p^(m-1): it is F_p^* times
the p-group 1 + lR, which for m <= p has exponent p and is an F_p-space
filtered by degree with graded pieces F_p.  So a subgroup is kept as
its constant terms and one pivot unit per occupied degree, found in one
echelon pass over the generators, and the canonical representative of
a coset comes from clearing the pivot degrees with the same routine.
The cyclotomic units Delta_l are binomial coefficient vectors, so U_7
at p = 7 builds in under a millisecond, U_53 at p = 53 in about 0.1 s
and U_100 at p = 101 in about 1.3 s.
"""

from __future__ import annotations

import math
from bisect import insort
from functools import cached_property, lru_cache
from itertools import product

from .errors import AmbientMismatch, Cp2Error, InternalError, NonUnit
from .value import Value, set_field


class PolyMod(Value):
    """An element of F_p[l]/(l^m) as a zero-padded coefficient tuple."""

    __slots__ = ("p", "m", "coeffs")

    def __init__(self, p: int, m: int, coeffs: tuple[int, ...]):
        if p < 2:
            raise Cp2Error(f"modulus p={p} must be a prime >= 2")
        if m < 0:
            raise Cp2Error(f"truncation degree m={m} must be >= 0")
        if len(coeffs) != m:
            raise Cp2Error(f"coefficient vector has length {len(coeffs)}, expected {m}")
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < p):
            raise Cp2Error(f"coefficients {coeffs} not reduced mod {p}")
        set_field(self, "p", p)
        set_field(self, "m", m)
        set_field(self, "coeffs", coeffs)

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
    the cyclotomic unit (zeta^l - 1)/(zeta - 1) under zeta -> 1 + l.

    Writing x for the variable, the geometric sum is ((1+x)^l - 1)/x, so
    the coefficient of x^i is the binomial C(l, i+1)."""
    if l < 1:
        raise Cp2Error("delta index must be >= 1")
    return poly(p, m, [math.comb(l, i + 1) for i in range(m)])


@lru_cache(maxsize=None)
def _galois_columns(p: int, m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient vectors of mu^j for j < m, mu = (1+l)^k - 1: the
    columns of the F_p-linear ring map l -> mu."""
    mu = poly_sub(poly_pow(poly_add(one(p, m), lam(p, m)), k), one(p, m))
    cols = [one(p, m)]
    for _ in range(1, m):
        cols.append(poly_mul(cols[-1], mu))
    return tuple(c.coeffs for c in cols)


def galois_on_unit(k: int, x: PolyMod) -> PolyMod:
    """Apply the ring map l -> (1+l)^k - 1 (the image of g -> g^k).

    Defined on every element, not only units; k must be coprime to p,
    and m <= p, as for every U_m.  The map is F_p-linear, so it is
    applied as a matrix-vector product.  l^p = 0 gives
    (1+l)^p = 1 + l^p = 1, so the map sees k only mod p.
    """
    p, m = x.p, x.m
    if math.gcd(k, p) != 1:
        raise Cp2Error(f"k={k} is not coprime to p={p}")
    if m > p:
        raise Cp2Error(f"the Galois action is defined on F_{p}[l]/(l^m) for m <= {p}, not m={m}")
    if m == 0:
        return x
    out = [0] * m
    # mu has no constant term, so mu^j vanishes below degree j
    k %= p
    for j, (c, col) in enumerate(zip(x.coeffs, _galois_columns(p, m, k))):
        if c:
            for i in range(j, m):
                out[i] += c * col[i]
    return PolyMod(p, m, tuple(v % p for v in out))


def _leading_degree(coeffs) -> int | None:
    """The least d >= 1 with a nonzero coefficient at l^d; None if there is none."""
    for d in range(1, len(coeffs)):
        if coeffs[d]:
            return d
    return None


class UnitSubgroup(Value):
    """A subgroup H of u(F_p[l]/(l^m)), m <= p, kept by its structure, not
    its elements.

    The unit group is F_p^* x (1 + lR): the scalars times a p-group.  So
    H = C x H_1, where C (constants) is the set of constant terms of
    elements of H, which H holds as scalars, and H_1 = H ∩ (1 + lR).  For
    m <= p, (1 + x)^p = 1 + x^p = 1 on 1 + lR, so H_1 is an F_p-space, and
    the filtration by the 1 + l^d R, whose graded pieces are F_p, gives it
    an echelon basis: at most one pivot 1 + l^d + (higher terms) per
    degree d, listed by increasing degree.  Every element of H_1 is then a
    unique product of pivot powers e_d^a, 0 <= a < p.
    generators and pivots are PolyMod tuples, constants a frozenset of ints.
    """

    __slots__ = ("p", "m", "generators", "constants", "pivots", "__dict__")

    @property
    def order(self) -> int:
        return len(self.constants) * self.p ** len(self.pivots)

    @cached_property
    def _clearing(self) -> tuple[tuple[int, tuple], ...]:
        """_pivot_clearing(e) per pivot e, by increasing degree."""
        return tuple(map(_pivot_clearing, self.pivots))

    def __contains__(self, x) -> bool:
        if not isinstance(x, PolyMod) or x.p != self.p or x.m != self.m:
            return False
        if self.m == 0:
            return True
        if x.coeffs[0] not in self.constants:
            return False
        return not any(_clear(x.coeffs, self._clearing, self.p)[1:])


def _pivot_clearing(e: PolyMod) -> tuple[int, tuple]:
    """(d, table) for the pivot e = 1 + l^d + ..., where table[a],
    1 <= a < p, lists the nonzero terms (j, coefficient), j >= d, of
    e^(p-a) - 1: the factor e^(p-a) turns a coefficient a at l^d of a
    constant-1 element into 0.  The powers e, e^2, ..., e^(p-1) take
    p - 2 products."""
    p, m, d = e.p, e.m, _leading_degree(e.coeffs)
    powers = [e]  # powers[k - 1] = e^k
    for _ in range(p - 2):
        powers.append(poly_mul(powers[-1], e))
    table = [()]
    for a in range(1, p):
        q = powers[p - a - 1].coeffs
        table.append(tuple((j, q[j]) for j in range(d, m) if q[j]))
    return d, tuple(table)


def _clear(coeffs, clearing, p: int) -> list[int]:
    """The unit with coefficients coeffs scaled to constant 1, then
    multiplied by the pivot powers that clear each pivot degree of
    clearing, (d, table) pairs by increasing d; a lower degree never
    changes again."""
    c = pow(coeffs[0], -1, p)
    v = [c * a % p for a in coeffs]
    m = len(v)
    for d, table in clearing:
        a = v[d]
        if a:
            terms = table[a]
            # v *= 1 + sum of the terms, in place, top degree first
            for i in range(m - 1, d - 1, -1):
                s = v[i]
                for j, q in terms:
                    if j > i:
                        break
                    s += q * v[i - j]
                v[i] = s % p
    return v


def subgroup_closure(gens) -> UnitSubgroup:
    """The subgroup generated by the given units of F_p[l]/(l^m), m <= p.

    C is the subgroup of F_p^* generated by the constant terms.  Each
    generator, divided by its constant term, lies in H_1; the pivots found
    so far clear its pivot degrees, and a remainder 1 + a l^d + ... other
    than 1 becomes the pivot at d after raising it to the power 1/a mod p.
    H_1 has exponent p, so one pass over the generators closes it.
    """
    gens = tuple(gens)
    if not gens:
        raise Cp2Error("subgroup_closure needs at least one generator")
    p, m = gens[0].p, gens[0].m
    if m > p:
        raise Cp2Error(f"subgroup_closure needs m <= p, got m={m} at p={p}")
    for g in gens:
        _same_ambient(gens[0], g)
        if not g.is_unit():
            raise NonUnit(f"generator {g} is not a unit")
    constants = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g.coeffs[0] % p
            if y not in constants:
                constants.add(y)
                frontier.append(y)
    pivots: dict[int, PolyMod] = {}
    clearing: list[tuple[int, tuple]] = []
    for g in gens:
        v = _clear(g.coeffs, clearing, p)
        d = _leading_degree(v)
        if d is not None:
            pivots[d] = e = poly_pow(PolyMod(p, m, tuple(v)), pow(v[d], -1, p))
            insort(clearing, _pivot_clearing(e))
    sub = UnitSubgroup(
        p, m, gens, frozenset(constants), tuple(pivots[d] for d in sorted(pivots))
    )
    vars(sub)["_clearing"] = tuple(clearing)  # primes the cached property
    return sub


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


class UnitQuotient(Value):
    """The quotient U_m with canonical coset representatives.

    Each coset holds exactly one element with constant coefficient 1 and
    a zero coefficient at every pivot degree of the subgroup; it is the
    lexicographically smallest constant-1 coefficient vector of the
    coset, and it is the coset's representative.  free_degrees lists the
    degrees 1 <= d < m that carry no pivot of the UnitSubgroup subgroup.
    Quotients compare by identity.
    """

    __slots__ = ("p", "m", "subgroup", "free_degrees", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def order(self) -> int:
        return self.p ** len(self.free_degrees)

    @cached_property
    def reps(self) -> tuple[PolyMod, ...]:
        """Every representative, in lexicographic order; for m = 0 the
        single empty vector."""
        out = []
        for values in product(range(self.p), repeat=len(self.free_degrees)):
            v = [1] + [0] * (self.m - 1)
            for d, c in zip(self.free_degrees, values):
                v[d] = c
            out.append(PolyMod(self.p, self.m, tuple(v[: self.m])))
        return tuple(out)

    def rep_of(self, u: PolyMod) -> PolyMod:
        """Canonical representative of the coset of u."""
        if self.m == 0:
            return self.reps[0]
        if u.p != self.p or u.m != self.m:
            raise AmbientMismatch(f"{u} does not live in F_{self.p}[l]/(l^{self.m})")
        if not u.coeffs[0]:
            raise NonUnit(f"{u} is not a unit")
        if not self.free_degrees:
            return self.reps[0]
        v = _clear(u.coeffs, self.subgroup._clearing, self.p)
        return PolyMod(self.p, self.m, tuple(v))


def _quotient(p: int, m: int, subgroup: UnitSubgroup) -> UnitQuotient:
    missing = sorted(set(range(1, p)) - subgroup.constants)
    if missing:
        raise Cp2Error(
            f"the subgroup has no element with constant term in {missing}, "
            f"so some cosets in F_{p}[l]/(l^{m}) hold no element with constant 1"
        )
    degrees = {_leading_degree(e.coeffs) for e in subgroup.pivots}
    free = tuple(d for d in range(1, m) if d not in degrees)
    units = (p - 1) * p ** (m - 1)
    if subgroup.order * p ** len(free) != units:
        raise InternalError(
            f"{p ** len(free)} cosets of a subgroup of order {subgroup.order} "
            f"do not cover the {units} units"
        )
    return UnitQuotient(p, m, subgroup, free)


@lru_cache(maxsize=None)
def compute_Um(p: int, m: int, extra_gens: tuple = ()) -> UnitQuotient:
    """The factor group U_m, 0 <= m <= p.

    U_0 is trivial.  For 1 <= m <= p - 1 the quotient is by the image of
    u(Z[zeta_p]), for m = p by the image of u(Z C_p) * u(Z[zeta_{p^2}]);
    extra_gens (coefficient vectors or PolyMods) join either image.

    The default generators are -1, the image 1+l of zeta_p (at m = p
    also of zeta_{p^2} and of the generator of C_p), the cyclotomic units
    Delta_l for 2 <= l <= p-1 and, at m = p, 1 + l^(p-1) = Delta_{p+1}.
    At m = p these generate the whole image of the cyclotomic units
    Delta_l(zeta_{p^2}), p not dividing l < p^2.  By Lucas's theorem
    (1+x)^(l0 + p*l1) = (1+x)^l0 (1 + l1 x^p) mod (p, x^(p+1)), so
    Delta_(l0 + p*l1) = Delta_l0 * (1 + (l1/l0) l^(p-1)) mod (p, l^p),
    and 1 + c l^(p-1) is (1 + l^(p-1))^c (Washington, Introduction to
    Cyclotomic Fields, ch. 8).  That is p + 1 generators instead of
    p^2 - p + 1.  At every prime p <= 37 the others already generate
    1 + l^(p-1) (a test checks this); it is listed so that the equality
    rests on the argument above for every p.

    Two caveats.  The default generators give all units of Z[zeta_p]
    only for p <= 7.  Nontrivial units of Z C_p (p >= 5) are not covered
    by a known finite family, so without extra generators the image at
    m = p is a lower bound for the true image.
    """
    if m < 0 or m > p:
        raise Cp2Error(f"U_m is defined for 0 <= m <= p, got m={m}")
    if m == 0:
        return UnitQuotient(p, 0, UnitSubgroup(p, 0, (), frozenset({1}), ()), ())
    gens = [poly(p, m, (p - 1,)), poly_add(one(p, m), lam(p, m))]
    gens.extend(delta_poly(p, m, l) for l in range(2, p))
    if m == p:
        gens.append(delta_poly(p, m, p + 1))
    gens.extend(_as_polys(p, m, extra_gens))
    return _quotient(p, m, subgroup_closure(gens))
