"""Brute-force oracles the tests compare the library's fast paths against.

Each one does the job the slow, direct way: walking orbits point by
point, walking the powers of a unit for its order, applying the
generator matrix power by power, twisting a descriptor and re-deriving
its invariants, moving invariants by the class-group actions and the
ring map, folding a genus count per coordinate on every call,
realizing a genus as descriptors and grouping them by twist,
scanning every Galois unit for a twist, substituting
(1+l)^k - 1 for l with the unreduced k, listing a unit group and its
cosets element by element, closing a unit subgroup by the general
sift with a p-th-power requeue, listing the p^2 - p + 1 classical ES
generators, summing a cyclotomic unit power by power, validating a
matrix model on the whole matrix with dense powers and a Smith normal
form instead of per diagonal block, counting the root 1 of a
char poly by synthetic division instead of reading it off traces,
building a pushout block from a Smith normal form of its relations,
computing an Ext group as a Smith normal form cokernel, taking a
Smith normal form with its row and column transforms, or reading a
descriptor's facts off the flat list of its summands, one entry per
copy.
"""

import math
from collections import Counter
from functools import lru_cache
from itertools import product

from cp2genus import galois, genus, iso, lattice, materialize, modring
from cp2genus.abelian import (
    DEFAULT_GUARD,
    AbGroup,
    CyclicAction,
    _add,
    apply_action,
    burnside_count,
    divisor_weights,
    orbit_count,
    primitive_root,
)
from cp2genus.errors import Cp2Error, EnumerationGuard, InternalError, NonUnit
from cp2genus.modring import PolyMod, poly_mul


def element_neg(G: AbGroup, x) -> tuple[int, ...]:
    return tuple((-a) % f for a, f in zip(x, G.factors))


def walk_unit_order(g: int, modulus: int) -> int:
    """The multiplicative order of the unit g mod modulus, by walking its powers."""
    x, d = g % modulus, 1
    while x != 1 % modulus:
        x = x * g % modulus
        d += 1
    return d


def walk_primitive_root(modulus: int) -> int:
    """Smallest generator of (Z/modulus)^*: the first unit whose order,
    walked power by power, is the number of units."""
    if modulus in (1, 2):
        return 1
    units = [k for k in range(1, modulus) if math.gcd(k, modulus) == 1]
    for g in units[1:]:
        if walk_unit_order(g, modulus) == len(units):
            return g
    raise Cp2Error(f"(Z/{modulus})^* is not cyclic")


def trivial_action(modulus: int, acting_order: int) -> CyclicAction:
    return CyclicAction(AbGroup(()), modulus, acting_order, primitive_root(modulus), ())


def apply_matrix(A: CyclicAction, x) -> tuple[int, ...]:
    """The generator matrix of A applied once to the element x."""
    M, fs = A.generator_matrix, A.target.factors
    return tuple(sum(M[i][j] * x[j] for j in range(len(x))) % fs[i] for i in range(len(x)))


def per_power(fixed: dict, order: int) -> tuple[int, ...]:
    """Per-divisor fixed counts spread over every power d < order of the
    acting generator, which fixes as many points as its power gcd(d, order):
    the shape the walks below produce."""
    return tuple(fixed[math.gcd(d, order)] for d in range(order))


def brute_fixed_counts(A: CyclicAction) -> tuple[int, ...]:
    """Fixed points of generator^d for each d < acting_order, by applying
    the generator matrix to every element acting_order - 1 times and
    checking after the d-th application whether it is back."""
    counts = [0] * A.acting_order
    for e in A.target.elements():
        x = e
        for d in range(A.acting_order):
            counts[d] += x == e
            x = apply_matrix(A, x)
    return tuple(counts)


def cycles(points, step) -> list[list]:
    """The cycles of the permutation step of the finite set points.

    Raises InternalError when step turns out not to be a permutation.
    """
    seen: set = set()
    parts = []
    for e in points:
        if e in seen:
            continue
        cycle = [e]
        seen.add(e)
        x = step(e)
        while x not in seen:
            cycle.append(x)
            seen.add(x)
            x = step(x)
        if x != e:
            raise InternalError(f"not a permutation: the walk from {e} runs into {x}")
        parts.append(cycle)
    return parts


def orbits(A: CyclicAction) -> list[list[tuple[int, ...]]]:
    """Partition of the listed group into orbits of the action: the
    cycles of the generator."""
    return cycles(A.target.elements(), lambda x: apply_matrix(A, x))


def fixed_point_counts(cycle_type, order: int) -> tuple[int, ...]:
    """Fixed points of s^d for d in range(order), where s is a permutation
    with the given cycle lengths: a cycle of length L is fixed pointwise
    by s^d exactly when L divides d."""
    by_length = Counter(cycle_type)
    return tuple(
        sum(L * n for L, n in by_length.items() if d % L == 0) for d in range(order)
    )


def walk_orbit_count(points, step) -> int:
    """Orbits of the group generated by step, walking each orbit once."""
    seen: set = set()
    count = 0
    for start in points:
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = step(x)
    return count


def brute_ut_orbit_count(context, t: int) -> int:
    quotient = context.unit_quotient(t)
    gen = primitive_root(context.p ** 2)
    return walk_orbit_count(
        quotient.reps, lambda u: quotient.rep_of(modring.galois_on_unit(gen, u))
    )


def walk_ut_fixed_counts(context, t: int) -> tuple[int, ...]:
    """Fixed points of gen^d on the listed U_t representatives for
    d < phi(p^2), from the cycle type of the permutation
    rep_of(galois_on_unit(gen, .)) of the representatives."""
    quotient = context.unit_quotient(t)
    gen = primitive_root(context.p ** 2)
    perm = cycles(
        quotient.reps, lambda u: quotient.rep_of(modring.galois_on_unit(gen, u))
    )
    return fixed_point_counts([len(c) for c in perm], context.p * (context.p - 1))


def act_on_invariants(context, k: int, inv):
    """The invariants of twist(D, k), computed from inv = invariants_of(D).

    Twisting moves the ideal classes by the class-group actions and the
    u0 coset by the ring map l -> (1+l)^k - 1; the genus, t and the
    quadratic character (the constant term of u0) do not change.
    """
    return iso.IsoInvariants(
        inv.padic,
        apply_action(context.H_p, k % context.p, inv.R_class),
        apply_action(context.H_p2, k, inv.S_class),
        inv.t,
        galois._move_coset(context, k, inv),
        inv.quad_char,
    )


def brute_orbit_genus_count(D) -> int:
    """Orbits of the diagonal Galois action, walked over the listed genus."""
    ctx = D.context
    gen = primitive_root(ctx.p ** 2)
    return walk_orbit_count(
        genus.enumerate_genus(D),
        lambda inv: act_on_invariants(ctx, gen, inv),
    )


def per_coordinate_fold(context, names, t: int) -> tuple[int, tuple[int, ...]]:
    """(orbit engine, orbit count of each set) for the genus whose moving
    coordinates are names, folded afresh from each set's fixed-point
    counts {e: fixed points of gen^e}, as every genus count did before
    the fold was kept per (class data, names, t); the class groups' orbit
    counts come from their own actions and U_t's from walking its cosets."""
    p = context.p
    order = p * (p - 1)
    weights = divisor_weights(order)
    fixed = {
        "R_class": {e: context.H_p.fixed_counts[math.gcd(e, p - 1)] for e, _ in weights},
        "S_class": context.H_p2.fixed_counts,
        "u0_class": genus._ut_fixed_counts(context, t),
        "quad_char": {e: 2 for e, _ in weights},
    }
    orbit_counts = {
        "R_class": orbit_count(context.H_p),
        "S_class": orbit_count(context.H_p2),
        "u0_class": brute_ut_orbit_count(context, t),
        "quad_char": 2,
    }
    engine = burnside_count(
        {e: math.prod(fixed[name][e] for name in names) for e, _ in weights}, order)
    return engine, tuple(orbit_counts[name] for name in names)


def census_genus_count(D) -> int:
    """The genus of D realized as descriptors and counted up to Galois twist.

    The classes of the first summand with a b slot run over H_p, those of
    the first summand with a c slot over H_{p^2}, and the unit of the
    first extension summand over the reps of its U_m; at p = 1 (mod 4)
    that summand also swaps between types C and D.  One member is kept
    per distinct iso.invariants_of.  Each member that no twist of an
    earlier class reached starts a new class, whose members are marked
    by twisting it with every unit.  Raises InternalError when a twist
    leaves the realized members.
    """
    p, ctx = D.p, D.context
    summands = [dict(kind=s.kind, b=s.b, c=s.c, r=s.r, u=s.u) for s in expand(D)]
    ib = next((i for i, s in enumerate(summands) if s["b"] is not None), None)
    ic = next((i for i, s in enumerate(summands) if s["c"] is not None), None)
    iu = next((i for i, s in enumerate(summands) if s["kind"] in lattice.EXTENSION_KINDS), None)
    b_values = ctx.H_p.target.elements() if ib is not None else [None]
    c_values = ctx.H_p2.target.elements() if ic is not None else [None]
    units = [(None, None)]
    if iu is not None:
        s = summands[iu]
        kinds = ("C", "D") if p % 4 == 1 and s["kind"] in ("C", "D") else (s["kind"],)
        reps = ctx.unit_quotient(lattice.unit_index(s["kind"], s["r"], p)).reps
        units = [(kind, u) for kind in kinds for u in reps]
    members = {}
    for b, c, (kind, u) in product(b_values, c_values, units):
        parts = [dict(s) for s in summands]
        if ib is not None:
            parts[ib]["b"] = b
        if ic is not None:
            parts[ic]["c"] = c
        if iu is not None:
            parts[iu].update(kind=kind, u=u)
        M = from_list(p, ctx, [lattice.make_summand(p, ctx, **s) for s in parts])
        members.setdefault(iso.invariants_of(M), M)
    reached: set = set()
    classes = 0
    for inv, M in members.items():
        if inv not in reached:
            classes += 1
            reached.update(iso.invariants_of(galois.twist(M, k)) for k in galois.galois_units(p))
    if not reached <= members.keys():
        raise InternalError("a twist of a realized member is not realized")
    return classes


def twist_search(D1, D2):
    """Smallest k with D1 isomorphic to twist(D2, k), twisting the
    descriptor and re-deriving its invariants for every k."""
    if not iso.same_genus(D1, D2):
        return None
    for k in galois.galois_units(D1.p):
        if iso.isomorphic(D1, galois.twist(D2, k)):
            return k
    return None


def scan_twisted_isomorphic(D1, D2):
    """Smallest k with D1 isomorphic to twist(D2, k), acting on the
    invariants of D2 with each of the phi(p^2) units in turn."""
    if not iso.same_genus(D1, D2):
        return None
    target = iso.invariants_of(D1)
    inv = iso.invariants_of(D2)
    for k in galois.galois_units(D1.p):
        if act_on_invariants(D2.context, k, inv) == target:
            return k
    return None


def galois_by_substitution(k: int, x: PolyMod) -> PolyMod:
    """x(mu) with mu = (1+l)^k - 1 for the unreduced k: the sum of
    c_j mu^j over the coefficients c_j of x, by Horner's rule."""
    p, m = x.p, x.m
    mu = modring.poly_sub(modring.poly_pow(modring.poly_add(modring.one(p, m),
                                                            modring.lam(p, m)), k),
                          modring.one(p, m))
    out = modring.zero(p, m)
    for c in reversed(x.coeffs):
        out = modring.poly_add(poly_mul(out, mu), modring.poly(p, m, [c]))
    return out


def diagonal_orbits(
    acting_modulus: int,
    actions: tuple[CyclicAction, ...],
    extras: tuple = (),
    guard: int = DEFAULT_GUARD,
) -> int:
    """Orbit count of the simultaneous action on the Cartesian product.

    A unit k mod acting_modulus acts on every component at once, acting on
    the i-th group through k mod actions[i].modulus; the extras are
    plain finite sets carrying the trivial action.
    """
    if acting_modulus < 2:
        raise Cp2Error("acting modulus must be >= 2")
    for A in actions:
        if acting_modulus % A.modulus != 0:
            raise Cp2Error(
                f"action modulus {A.modulus} does not divide {acting_modulus}"
            )
    sizes = [A.target.order for A in actions] + [len(s) for s in extras]
    if math.prod(sizes) > guard:
        raise EnumerationGuard(f"product of size {math.prod(sizes)} exceeds guard {guard}")
    component_elems = [A.target.elements() for A in actions]
    points = list(product(*component_elems, *[list(s) for s in extras]))
    units = [k for k in range(1, acting_modulus) if math.gcd(k, acting_modulus) == 1]
    na = len(actions)

    def act(k, pt):
        moved = tuple(
            apply_action(actions[i], k % actions[i].modulus, pt[i]) for i in range(na)
        )
        return moved + pt[na:]

    seen: set = set()
    count = 0
    for pt in points:
        if pt in seen:
            continue
        count += 1
        for k in units:
            seen.add(act(k, pt))
    # Burnside cross-check over the full acting group
    total = sum(sum(1 for pt in points if act(k, pt) == pt) for k in units)
    assert total % len(units) == 0 and total // len(units) == count
    return count


def _row_op(S, U, Uinv, i, j, T):
    """Rows i, j of S and U get T; columns i, j of Uinv get T^{-1} (det T = +-1)."""
    a, b, c, d = T
    det = a * d - b * c
    for X in (S, U):
        for col in range(len(X[0])):
            x, y = X[i][col], X[j][col]
            X[i][col] = a * x + b * y
            X[j][col] = c * x + d * y
    # T^{-1} = (1/det) [[d, -b], [-c, a]] with det = +-1
    ia, ib, ic, id_ = d * det, -b * det, -c * det, a * det
    for row in Uinv:
        x, y = row[i], row[j]
        row[i] = x * ia + y * ic
        row[j] = x * ib + y * id_


def _col_op(S, V, i, j, T):
    """Columns i, j of S and V get T."""
    a, b, c, d = T
    for X in (S, V):
        for row in X:
            x, y = row[i], row[j]
            row[i] = a * x + c * y
            row[j] = b * x + d * y


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _elim_transform(a: int, b: int):
    """Unimodular (x, y, z, w) sending (a, b) to (g, 0) with g = gcd.

    When a divides b the transform is a plain subtraction that leaves
    the pivot row/column untouched (important for termination).
    """
    if b % a == 0:
        return (1, 0, -(b // a), 1)
    g, x, y = _xgcd(a, b)
    if g < 0:
        g, x, y = -g, -x, -y
    return (x, y, -(b // g), a // g)


def snf_full(M: list):
    """(S, U, V, Uinv) with U M V = S in Smith normal form.

    S is diagonal with d_1 | d_2 | ..., all entries >= 0; U and V are
    unimodular, and Uinv is the exact inverse of U.  Every row and column
    operation is carried through U, Uinv and V, and the chain is enforced
    on the matrix, not on its diagonal: the reference for the invariants
    of abelian.snf.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    S = [row[:] for row in M]
    U, Uinv = materialize.identity(r), materialize.identity(r)
    V = materialize.identity(c)

    def clear_at(k):
        while True:
            # move a pivot to (k, k)
            if S[k][k] == 0:
                found = False
                for i in range(k, r):
                    for j in range(k, c):
                        if S[i][j] != 0:
                            if i != k:
                                _row_op(S, U, Uinv, k, i, (0, 1, 1, 0))
                            if j != k:
                                _col_op(S, V, k, j, (0, 1, 1, 0))
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return
            for i in range(k + 1, r):
                if S[i][k]:
                    x, y, z, w = _elim_transform(S[k][k], S[i][k])
                    _row_op(S, U, Uinv, k, i, (x, y, z, w))
            if all(S[k][j] == 0 for j in range(k + 1, c)):
                return
            for j in range(k + 1, c):
                if S[k][j]:
                    x, y, z, w = _elim_transform(S[k][k], S[k][j])
                    _col_op(S, V, k, j, (x, z, y, w))
            if all(S[i][k] == 0 for i in range(k + 1, r)):
                return

    for k in range(min(r, c)):
        clear_at(k)

    # enforce the divisibility chain; each fix dirties only the trailing
    # block, which is re-diagonalized before the next scan
    while True:
        viol = None
        for k in range(min(r, c) - 1):
            a, b = S[k][k], S[k + 1][k + 1]
            if b != 0 and (a == 0 or b % a != 0):
                viol = k
                break
        if viol is None:
            break
        _col_op(S, V, viol, viol + 1, (1, 0, 1, 1))  # col k += col k+1
        for k in range(viol, min(r, c)):
            clear_at(k)
    # normalize signs
    for k in range(min(r, c)):
        if S[k][k] < 0:
            for X in (S, U):
                X[k] = [-v for v in X[k]]
            for row in Uinv:
                row[k] = -row[k]
    return S, U, V, Uinv


def diagonal(S: list) -> list:
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def block_diag(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = materialize.zeros(n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row[:]
        at += len(b)
    return out


def x_pow_minus_1(n: int) -> list:
    return [-1] + [0] * (n - 1) + [1]


def mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def bareiss_det(M) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def kernel_basis(M) -> list:
    """Columns spanning the integer kernel lattice of M (saturated)."""
    r = len(M)
    c = len(M[0]) if r else 0
    S, U, V, Uinv = snf_full(M)
    cols = []
    for j in range(c):
        d = S[j][j] if j < min(r, c) else 0
        if d == 0:
            cols.append([V[i][j] for i in range(c)])
    return cols


def solve_exact(A_cols: list, b: list) -> list:
    """Solve sum_i y_i * A_cols[i] = b exactly over Z; error when impossible."""
    n = len(b)
    k = len(A_cols)
    M = [[A_cols[j][i] for j in range(k)] for i in range(n)]
    S, U, V, _ = snf_full(M)
    rhs = materialize.mat_vec(U, b)
    y = [0] * k
    for i in range(n):
        d = S[i][i] if i < min(n, k) else 0
        if d == 0:
            if rhs[i] != 0:
                raise Cp2Error("no integral solution")
        else:
            if rhs[i] % d != 0:
                raise Cp2Error("no integral solution")
            y[i] = rhs[i] // d
    return materialize.mat_vec(V, y)


def mat_mul(A, B):
    """The dense product of two integer matrices."""
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    if A and len(A[0]) != k:
        raise Cp2Error("matrix dimensions do not match")
    out = materialize.zeros(n, m)
    for i in range(n):
        Ai, Oi = A[i], out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def mat_pow(A, e: int):
    """A^e by dense repeated squaring from the least significant bit."""
    result = materialize.identity(len(A))
    base = [row[:] for row in A]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def multiplicative_order(A, p: int) -> int:
    """The order of A (1, p or p^2) from its dense p-th and p^2-th powers."""
    I = materialize.identity(len(A))
    Ap = mat_pow(A, p)
    for order, M in ((1, A), (p, Ap), (p * p, mat_pow(Ap, p))):
        if M == I:
            return order
    raise Cp2Error(f"matrix order does not divide {p * p}")


def snf_ext_group(x_name: str, p: int) -> AbGroup:
    """Ext(S, X) as the Smith normal form cokernel of the restriction
    Hom(Lambda, X) -> Hom(E, X): Hom(E, X) is the (g^p - 1)-torsion of X,
    and the map sends x to phi_{p^2}(g) * x."""
    mat = materialize
    action = {
        "Z": [[1]],
        "R": mat.companion(mat.phi_p(p)),
        "E": mat.companion(x_pow_minus_1(p)),
    }
    G = block_diag([action[c] for c in x_name.split("+")])
    n = len(G)
    torsion = mat.mat_sub(mat_pow(G, p), mat.identity(n))
    K = kernel_basis(torsion)  # columns spanning Hom(E, X)
    phi_of_G = mat.zeros(n, n)
    Gp = mat.identity(n)
    step = mat_pow(G, p)
    for _ in range(p):
        phi_of_G = mat_add(phi_of_G, Gp)
        Gp = mat_mul(Gp, step)
    # express each image phi(G) e_i in the kernel basis
    cols = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        cols.append(solve_exact(K, mat.mat_vec(phi_of_G, e)))
    k = len(K)
    M_map = [[cols[j][i] for j in range(n)] for i in range(k)]
    diag = diagonal(snf_full(M_map)[0])
    if len([d for d in diag if d != 0]) != k:
        raise Cp2Error("Ext group is not finite; inconsistent input")
    return AbGroup(tuple(d for d in diag if d > 1))


def poly_shift(a: PolyMod, r: int) -> PolyMod:
    """Multiply by l^r (truncating)."""
    if r < 0:
        raise Cp2Error("shift exponent must be >= 0")
    m = a.m
    if r >= m:
        return modring.zero(a.p, m)
    return PolyMod(a.p, m, (0,) * r + a.coeffs[: m - r])


def delta_by_products(p: int, m: int, l: int) -> PolyMod:
    """Delta_l = 1 + (1+l) + ... + (1+l)^(l-1), summed power by power."""
    g = modring.poly_add(modring.one(p, m), modring.lam(p, m))
    total = modring.zero(p, m)
    cur = modring.one(p, m)
    for _ in range(l):
        total = modring.poly_add(total, cur)
        cur = poly_mul(cur, g)
    return total


@lru_cache(maxsize=None)
def unit_group(p: int, m: int) -> tuple[PolyMod, ...]:
    """All units of F_p[l]/(l^m); there are (p-1)*p^(m-1) of them."""
    if m < 1:
        raise Cp2Error("unit_group requires m >= 1")
    return tuple(
        PolyMod(p, m, (c0,) + rest)
        for c0 in range(1, p)
        for rest in product(range(p), repeat=m - 1)
    )


@lru_cache(maxsize=None)
def closure_elements(gens: tuple[PolyMod, ...]) -> frozenset[PolyMod]:
    """Every element of the subgroup the units gens generate.  The group
    is abelian, so adding g to a subgroup S gives the union of the cosets
    S g^i for i below the least k > 0 with g^k in S."""
    for g in gens:
        if not g.is_unit():
            raise NonUnit(f"generator {g} is not a unit")
    elements = {modring.one(gens[0].p, gens[0].m)}
    for g in gens:
        new = set()
        x = g
        while x not in elements:
            new.update(poly_mul(s, x) for s in elements)
            x = poly_mul(x, g)
        elements |= new
    return frozenset(elements)


def es_family(p: int) -> list[PolyMod]:
    """The classical generators of the ES image in F_p[l]/(l^p): -1, 1+l
    and every cyclotomic unit Delta_l(zeta_{p^2}), 2 <= l < p^2, p not
    dividing l: p^2 - p + 1 units."""
    gens = [modring.poly(p, p, (p - 1,)), modring.poly(p, p, (1, 1))]
    gens.extend(modring.delta_poly(p, p, l) for l in range(2, p * p) if l % p)
    return gens


def sift_closure(gens) -> tuple[frozenset, dict]:
    """(constants, pivots by degree) of the subgroup the units gens
    generate, by the general sift: each generator, divided by its constant
    term, is multiplied by pivot powers while its leading degree has a
    pivot; a remainder 1 + a l^d + ... becomes the pivot at d after
    raising it to the power 1/a, and that pivot's p-th power is requeued,
    so the pivots are closed under p-th powers for any m."""
    p, m = gens[0].p, gens[0].m
    constants, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g.coeffs[0] % p
            if y not in constants:
                constants.add(y)
                frontier.append(y)
    pivots: dict[int, PolyMod] = {}
    queue = [poly_mul(g, modring.poly(p, m, (pow(g.coeffs[0], -1, p),))) for g in gens]
    while queue:
        x = sift(pivots, queue.pop())
        d = modring._leading_degree(x.coeffs)
        if d is not None:
            pivots[d] = modring.poly_pow(x, pow(x.coeffs[d], -1, p))
            queue.append(modring.poly_pow(pivots[d], p))
    return frozenset(constants), pivots


def sift(pivots: dict, x: PolyMod) -> PolyMod:
    """x, of constant term 1, times pivot powers while its leading degree
    has a pivot."""
    d = modring._leading_degree(x.coeffs)
    while d in pivots:
        x = poly_mul(x, modring.poly_pow(pivots[d], x.p - x.coeffs[d]))
        d = modring._leading_degree(x.coeffs)
    return x


def sift_member(constants: frozenset, pivots: dict, x: PolyMod) -> bool:
    """Whether the unit x lies in the subgroup that sift_closure gave."""
    c = x.coeffs[0]
    if c not in constants:
        return False
    x = poly_mul(x, modring.poly(x.p, x.m, (pow(c, -1, x.p),)))
    return sift(pivots, x) == modring.one(x.p, x.m)


def brute_quotient(p: int, m: int, elements: frozenset[PolyMod]):
    """(reps, index) for the quotient of the unit group by the subgroup
    with these elements: reps in lexicographic order, index mapping each
    unit to the lexicographically smallest constant-1 element of its coset."""
    index: dict[PolyMod, PolyMod] = {}
    reps = []
    for u in unit_group(p, m):
        if u in index:
            continue
        coset = [poly_mul(u, h) for h in elements]
        rep = min((v for v in coset if v.coeffs[0] == 1), key=lambda v: v.coeffs)
        for v in coset:
            index[v] = rep
        reps.append(rep)
    reps.sort(key=lambda v: v.coeffs)
    return tuple(reps), index


def dense_charpoly(A) -> list:
    """det(xI - A), ascending, by Berkowitz over every entry of A."""
    n = len(A)
    coeffs = [1]  # descending while building
    for i in range(n):
        Bsub = [row[:i] for row in A[:i]]
        R = A[i][:i]
        Ccol = [A[j][i] for j in range(i)]
        a = A[i][i]
        t = [1, -a]
        v = Ccol[:]
        for _ in range(i):
            t.append(-sum(R[j] * v[j] for j in range(i)))
            v = materialize.mat_vec(Bsub, v) if i else []
        new = [0] * (len(coeffs) + 1)
        for d in range(len(new)):
            s = 0
            for j in range(len(t)):
                if 0 <= d - j < len(coeffs):
                    s += t[j] * coeffs[d - j]
            new[d] = s
        coeffs = new
    return list(reversed(coeffs))


def root_one_multiplicity(f: list) -> int:
    """The multiplicity of 1 as a root of the nonzero polynomial f
    (ascending coefficients), by synthetic division by x - 1."""
    k = 0
    while len(f) > 1 and sum(f) == 0:  # f(1) = 0
        # f = (x - 1) q with q_(i-1) = f_i + q_i, from the top down
        q, acc = [0] * (len(f) - 1), 0
        for i in range(len(f) - 1, 0, -1):
            acc += f[i]
            q[i - 1] = acc
        f, k = q, k + 1
    return k


def snf_pushout_block(p: int, s) -> list:
    """materialize._pushout_block with the quotient basis taken from a
    Smith normal form of the dense relation matrix."""
    mat = materialize
    G_X = block_diag([mat._component(p, c) for c in mat._X_OF_KIND[s.kind]])
    N = p * p + len(G_X)
    G_L = block_diag([mat.companion(x_pow_minus_1(p * p)), G_X])

    # columns (i0(g^j * e), -g^j * f0), j = 0..p-1
    cols = []
    fj = mat._f0_vector(p, s)
    for j in range(p):
        col = [0] * N
        for i in range(p):
            col[i * p + j] = 1
        for i, v in enumerate(fj):
            col[p * p + i] = -v
        cols.append(col)
        fj = mat.mat_vec(G_X, fj)
    B = [[cols[j][i] for j in range(p)] for i in range(N)]

    S, U, _, Uinv = snf_full(B)
    for i in range(p):
        if S[i][i] != 1:
            raise InternalError(
                "relation lattice is not a direct summand; "
                f"diagonal entry {S[i][i]} at {i}"
            )
    # in the basis U^-1 the first p vectors span the relations
    Gy = mat_mul(mat_mul(U, G_L), Uinv)
    if any(Gy[i][j] for i in range(p, N) for j in range(p)):
        raise InternalError("relation lattice is not invariant under g")
    return [row[p:] for row in Gy[p:]]


def product_pushout_block(p: int, s) -> list:
    """materialize._pushout_block as rows p..N-1 of the sparse product
    U G U^-1, with G = G_L + G_X in full, densified."""
    mat = materialize
    G_X = block_diag([mat._component(p, c) for c in mat._X_OF_KIND[s.kind]])
    N = p * p + len(G_X)
    G_L = mat.sparse_rows(block_diag([mat.companion(x_pow_minus_1(p * p)), G_X]))

    # C as sparse rows: row i p + j of the relations (i >= 1) is e_j, and
    # row p^2 + t holds -(g^j f0)_t in column j
    fs = [mat._f0_vector(p, s)]
    for _ in range(1, p):
        fs.append(mat.mat_vec(G_X, fs[-1]))
    C = [{q % p: 1} for q in range(p, p * p)]
    C += [{j: -f[t] for j, f in enumerate(fs) if f[t]} for t in range(len(G_X))]
    U_low = [{**{j: -x for j, x in row.items()}, p + r: 1} for r, row in enumerate(C)]
    Uinv = [{j: 1} for j in range(p)] + [{**row, p + r: 1} for r, row in enumerate(C)]

    Gy = mat.sparse_mul(mat.sparse_mul(U_low, G_L), Uinv)
    if any(j < p for row in Gy for j in row):
        raise InternalError("relation lattice is not invariant under g")
    return [[row.get(j, 0) for j in range(p, N)] for row in Gy]


def enumerate_sparse_rows(A) -> list:
    """materialize.sparse_rows by a Python-level enumerate of every entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def dense_connected_components(A) -> list:
    """The connected components of A as ascending index lists, ordered by
    their smallest index (i and j are joined when A[i][j] or A[j][i] is
    nonzero), from a scan of all n^2 entries."""
    n = len(A)
    adjacent = [[] for _ in range(n)]
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if x and i != j:
                adjacent[i].append(j)
                adjacent[j].append(i)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for j in adjacent[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        out.append(sorted(comp))
    return out


def dense_validate_rep(rep) -> materialize.RepReport:
    """validate_rep on the whole n x n matrix, without splitting it into
    diagonal blocks."""
    mat = materialize
    RepCheck = mat.RepCheck
    D = rep.source
    p = D.p
    A = [list(row) for row in rep.matrix]
    n = rep.n
    checks = []

    ok = mat_pow(A, p * p) == mat.identity(n)
    checks.append(RepCheck("power_identity", ok, f"A^{p*p} == I: {ok}"))

    det = bareiss_det(A)
    checks.append(RepCheck("unimodular", abs(det) == 1, f"det(A) = {det}"))

    expected_order = {
        lattice.Faithfulness.TRIVIAL: 1,
        lattice.Faithfulness.ORDER_P: p,
        lattice.Faithfulness.FAITHFUL: p * p,
    }[lattice.faithfulness(D)]
    try:
        order = multiplicative_order(A, p)
    except Cp2Error:
        order = 0
    checks.append(RepCheck("order", order == expected_order,
                           f"order(A) = {order}, expected {expected_order}"))

    got = dense_charpoly(A)
    want = mat.predicted_charpoly(D)
    checks.append(RepCheck("char_poly", got == want,
                           f"char poly matches prediction: {got == want}"))

    c = lattice.counts(D)
    expected_fixed = (c["Z"] + c["Eb"] + c["Ec"] + c["B"]
                      + 2 * (c["C"] + c["D"]) + c["F"])
    fixed = n - mat.mat_rank(mat.mat_sub(A, mat.identity(n)))
    checks.append(RepCheck("fixed_rank", fixed == expected_fixed,
                           f"rank ker(A - I) = {fixed}, expected {expected_fixed}"))
    return mat.RepReport(tuple(checks))


# ---------------------------------------------------------------------------
# descriptors as flat lists: every copy of a summand is one entry, and
# each fact is read off by walking the list


def expand(D) -> list:
    """The summands of D with every copy listed, in D.summands order."""
    return [s for s, n in D.summands for _ in range(n)]


def from_list(p, ctx, summands):
    """The descriptor of a flat list of summands, repeats allowed."""
    return lattice.descriptor(p, ctx, [(s, 1) for s in summands])


def flat_counts(D) -> dict:
    out = {k: 0 for k in lattice.KINDS}
    for s in expand(D):
        out[s.kind] += 1
    return out


def flat_rational_type(D) -> tuple:
    a = b = c = 0
    for s in expand(D):
        da, db, dc = lattice.CYCLOTOMIC[s.kind]
        a, b, c = a + da, b + db, c + dc
    return a, b, c


def flat_genus_vector(D) -> lattice.GenusVector:
    p, n = D.p, flat_counts(D)
    beta, gamma, delta = [0] * p, [0] * max(p - 2, 0), [0] * max(p - 2, 0)
    eps, eta = [0] * (p - 1), [0] * (p - 1)
    slots = {"B": (beta, 0), "C": (gamma, 1), "D": (delta, 1), "E": (eps, 0), "F": (eta, 0)}
    for s in expand(D):
        if s.kind in slots:
            vec, shift = slots[s.kind]
            vec[s.r - shift] += 1
    return lattice.GenusVector(n["Z"], n["b"], n["c"], n["b"] + n["Eb"], n["c"] + n["Ec"],
                               tuple(beta), tuple(gamma), tuple(delta), tuple(eps),
                               tuple(eta))


def flat_r1(D) -> int:
    return max((s.r for s in expand(D) if s.kind == "B"), default=0)


def flat_r2(D) -> int:
    return max((s.r for s in expand(D) if s.kind in ("C", "D", "E", "F")), default=0)


def flat_t_of(D) -> int:
    summands = expand(D)
    if (any(s.kind == "B" for s in summands) and all(s.kind in ("Z", "B") for s in summands)
            and flat_r1(D) == 0):
        return D.p
    return D.p - 1 - max(flat_r2(D), flat_r1(D) - 1)


def flat_rank(D) -> int:
    return sum(lattice.type_rank(*lattice.CYCLOTOMIC[s.kind], D.p) for s in expand(D))


def flat_u0_coset_applies(D) -> bool:
    return not {s.kind for s in expand(D)} & {"b", "Eb", "c", "Ec"}


def flat_quad_char_applies(D) -> bool:
    return D.p % 4 == 1 and not {s.kind for s in expand(D)} & {"Z", "Eb", "Ec", "B", "F"}


def flat_sigma(D) -> int:
    kinds = [s.kind for s in expand(D)]
    if D.p % 4 != 1 or not {"C", "D"} & set(kinds):
        return 1
    return 1 if {"Z", "Eb", "Ec", "B", "F"} & set(kinds) else 2


def flat_moving_coordinates(D) -> tuple:
    """The IsoInvariants fields the Galois action moves in the genus of D:
    a class slot for each class group some summand carries, the u0 coset
    when it applies and an extension summand is present, and the
    quadratic character when sigma = 2."""
    _, R_slot, S_slot = flat_rational_type(D)
    u0_live = flat_u0_coset_applies(D) and any(
        s.kind in lattice.EXTENSION_KINDS for s in expand(D))
    live = {"R_class": R_slot, "S_class": S_slot, "u0_class": u0_live,
            "quad_char": flat_sigma(D) == 2}
    return tuple(name for name in iso.IsoInvariants._fields if live.get(name))


def flat_u0(D) -> PolyMod:
    """The product of the lifted units, one factor per copy, times n0 per
    copy of a type D summand."""
    p = D.p
    acc = modring.one(p, p)
    for s in expand(D):
        if s.kind in lattice.EXTENSION_KINDS:
            acc = poly_mul(acc, modring.lift_poly(s.u, p))
            if s.kind == "D":
                acc = poly_mul(acc, modring.poly(p, p, (lattice.n0(p),)))
    return acc


def flat_ideal_classes(D) -> tuple:
    Hp, Hp2 = D.context.H_p.target, D.context.H_p2.target
    rc, sc = Hp.identity(), Hp2.identity()
    for s in expand(D):
        if s.b is not None:
            rc = _add(Hp, rc, s.b)
        if s.c is not None:
            sc = _add(Hp2, sc, s.c)
    return rc, sc


def flat_render(D) -> str:
    """Runs of equal summands in the flat list written as n*X."""
    ss, parts, i = expand(D), [], 0
    while i < len(ss):
        j = i
        while j < len(ss) and ss[j] == ss[i]:
            j += 1
        text = lattice.render_summand(ss[i])
        parts.append(text if j - i == 1 else f"{j - i}*{text}")
        i = j
    return " + ".join(parts)


def flat_invariants(D) -> iso.IsoInvariants:
    """invariants_of(D) from the flat facts above and the kinds in the list."""
    p, n = D.p, flat_counts(D)
    gv = flat_genus_vector(D)
    padic = iso.PadicDescriptor(p, n["Z"], n["b"], n["Eb"], n["c"], n["Ec"], gv.beta,
                                tuple(g + d for g, d in zip(gv.gamma, gv.delta)),
                                gv.eps, gv.eta)
    t, u0 = flat_t_of(D), flat_u0(D)
    coset = quad = None
    if flat_u0_coset_applies(D):
        coset = D.context.unit_quotient(t).rep_of(modring.truncate_poly(u0, t))
    if flat_quad_char_applies(D):
        quad = 1 if pow(u0.constant, (p - 1) // 2, p) == 1 else -1
    return iso.IsoInvariants(padic, *flat_ideal_classes(D), t, coset, quad)


def flat_twist(D, k: int):
    """twist(D, k) with every copy twisted on its own."""
    k %= D.p * D.p
    return from_list(D.p, D.context,
                     [galois.twist_summand(s, k, D.p, D.context) for s in expand(D)])


def flat_rep_matrix(D) -> list:
    """The block-diagonal model of D, one block per copy, as lists."""
    return block_diag([[list(row) for row in materialize._summand_block(D.p, s)]
                       for s in expand(D)])
