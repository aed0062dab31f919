"""Finite abelian groups with cyclic automorphism actions, orbit counting,
and Smith normal form.

Groups are given by invariant factors (Smith form convention: each factor
divides the next); elements are exponent tuples, one residue per factor.
A CyclicAction records how the unit group (Z/p^i)^* acts through a chosen
generator, which is how the ideal class groups H(Z[zeta_{p^i}]) carry
their Galois action here.

Orbit counts come from one engine without listing the group: the fixed
points of a generator power M^d on G = (+) Z/f_i are ker(M^d - I), whose
order equals that of coker(M^d - I), the product of the Smith invariants
of [M^d - I | diag(f)].  They depend on d only through e = gcd(d, N), N
the acting order, so they are kept per divisor e | N, and Burnside's
lemma weights each by phi(N/e).  Only AbGroup.elements lists a group,
and it keeps the size guard.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product

from .errors import Cp2Error, EnumerationGuard, InternalError
from .value import Value, set_field

DEFAULT_GUARD = 10**6


class AbGroup(Value):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        for f in factors:
            if f < 2:
                raise Cp2Error(f"invariant factor {f} must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise Cp2Error(f"invariant factors {factors} violate divisibility")
        set_field(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def contains(self, x) -> bool:
        return len(x) == len(self.factors) and all(
            0 <= xi < f for xi, f in zip(x, self.factors)
        )

    def elements(self, guard: int = DEFAULT_GUARD):
        if self.order > guard:
            raise EnumerationGuard(f"group of order {self.order} exceeds guard {guard}")
        return list(product(*(range(f) for f in self.factors)))


def _check_member(G: AbGroup, x):
    if len(x) != len(G.factors):
        raise Cp2Error(f"element {x} has wrong length for factors {G.factors}")
    if not G.contains(x):
        raise Cp2Error(f"element {x} out of range for factors {G.factors}")


def element_add(G: AbGroup, x, y) -> tuple[int, ...]:
    _check_member(G, x)
    _check_member(G, y)
    return _add(G, x, y)


def _add(G: AbGroup, x, y) -> tuple[int, ...]:
    """element_add for x and y already known to lie in G."""
    return tuple((a + b) % f for a, b, f in zip(x, y, G.factors))


def reduce_element(G: AbGroup, raw) -> tuple[int, ...]:
    """Coerce an exponent vector into G, padding missing entries with zeros.

    Out-of-range entries are an error, as are nonzero entries beyond the
    number of invariant factors (there is nothing for them to index).
    """
    raw = tuple(raw)
    n = len(G.factors)
    if len(raw) > n and any(c != 0 for c in raw[n:]):
        raise Cp2Error(f"exponent vector {raw} too long for factors {G.factors}")
    for i in range(min(n, len(raw))):
        if not 0 <= raw[i] < G.factors[i]:
            raise Cp2Error(
                f"class exponent {raw[i]} out of range [0, {G.factors[i]}) "
                f"at position {i}"
            )
    return tuple(raw[i] if i < len(raw) else 0 for i in range(n))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    phi = n
    for q in _prime_factors(n):
        phi -= phi // q
    return phi


def unit_order(g: int, modulus: int) -> int:
    """The multiplicative order of the unit g mod modulus: phi(modulus)
    with each prime factor q stripped while g^(order/q) stays 1."""
    order = _totient(modulus)
    for q in _prime_factors(order):
        while order % q == 0 and pow(g, order // q, modulus) == 1:
            order //= q
    return order


@lru_cache(maxsize=None)
def primitive_root(modulus: int) -> int:
    """Smallest generator of (Z/modulus)^* for modulus in {1, 2, 4, p^i, 2p^i}.

    A unit g generates exactly when g^(phi/q) != 1 for every prime q
    dividing phi = phi(modulus)."""
    if modulus in (1, 2):
        return 1
    phi = _totient(modulus)
    qs = _prime_factors(phi)
    for g in range(2, modulus):
        if math.gcd(g, modulus) == 1 and all(pow(g, phi // q, modulus) != 1 for q in qs):
            return g
    raise Cp2Error(f"(Z/{modulus})^* is not cyclic")


@lru_cache(maxsize=None)
def divisor_weights(n: int) -> tuple[tuple[int, int], ...]:
    """((e, phi(n/e)), ...) over the divisors e of n >= 1, ascending: exactly
    phi(n/e) residues d mod n have gcd(d, n) = e."""
    small = [q for q in range(1, math.isqrt(n) + 1) if n % q == 0]
    divisors = sorted(set(small + [n // q for q in small]))
    return tuple((e, _totient(n // e)) for e in divisors)


class CyclicAction(Value):
    """An action of (Z/modulus)^* on the AbGroup target.

    generator_matrix (a tuple of int rows) gives the automorphism induced
    by the unit generator_residue of order acting_order; every unit k acts
    as the d-th matrix power where generator_residue^d = k (mod modulus).
    """

    __slots__ = ("target", "modulus", "acting_order", "generator_residue",
                 "generator_matrix", "__dict__")

    def validate(self, where: str = "action"):
        n, m = self.target.rank, self.modulus
        if len(self.generator_matrix) != n or any(
            len(row) != n for row in self.generator_matrix
        ):
            raise Cp2Error(f"{where}: generator_matrix is not {n}x{n}")
        if self.acting_order < 1:
            raise Cp2Error(f"{where}: acting_order must be >= 1")
        if math.gcd(self.generator_residue, m) != 1:
            raise Cp2Error(f"{where}.generator_residue: not a unit mod {m}")
        # exact order: every acting unit is a power of the residue, which
        # the orbit engine relies on
        d = unit_order(self.generator_residue, m)
        if d != self.acting_order:
            raise Cp2Error(
                f"{where}.generator_residue: order {d} mod {m}, "
                f"expected {self.acting_order}"
            )
        # well-definedness on the quotient: factor_i | M[i][j]*factor_j
        fs = self.target.factors
        for i in range(n):
            for j in range(n):
                if (self.generator_matrix[i][j] * fs[j]) % fs[i] != 0:
                    raise Cp2Error(
                        f"{where}: matrix entry [{i}][{j}] does not define "
                        f"a map on the group"
                    )
        # M^acting_order = M * M^(acting_order - 1) must be the identity on
        # the group; this also forces the matrix to act as an automorphism
        table = self._unit_matrices
        inverse = table[pow(self.generator_residue, -1, m)]
        if _mat_mul(self.generator_matrix, inverse, fs) != table[1 % m]:
            raise Cp2Error(
                f"{where}: matrix^acting_order is not the identity on the group"
            )

    @cached_property
    def _unit_matrices(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """{generator_residue^d: generator_matrix^d} for d below the acting
        order, row i of each power reduced mod factor i (valid because the
        matrix is well defined on the group)."""
        n, fs, M = self.target.rank, self.target.factors, self.generator_matrix
        g, m = self.generator_residue, self.modulus
        x, power = 1 % m, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        table: dict[int, tuple[tuple[int, ...], ...]] = {}
        for _ in range(self.acting_order):
            table.setdefault(x, power)
            x = x * g % m
            power = _mat_mul(M, power, fs)
        return table

    @cached_property
    def fixed_counts(self) -> dict[int, int]:
        """{e: fixed points of generator^e on the group} over the divisors
        e of the acting order N.

        M^e fixes |ker(M^e - I)| = |coker(M^e - I)| points of the finite
        group, the product of the Smith invariants of [M^e - I | diag(f)].
        M^d generates the same cyclic group as M^gcd(d, N), so generator^d
        fixes fixed_counts[gcd(d, N)] points.
        """
        g, m, fs = self.generator_residue, self.modulus, self.target.factors
        n = len(fs)
        fixed = {}
        for e, _ in divisor_weights(self.acting_order):
            P = self._unit_matrices[pow(g, e, m)]
            rows = [[P[i][j] - (i == j) for j in range(n)]
                    + [fs[i] * (i == j) for j in range(n)] for i in range(n)]
            fixed[e] = math.prod(diagonal(snf_full(rows)[0]))
        return fixed

    @cached_property
    def n_orbits(self) -> int:
        """The number of orbits, a Burnside average of fixed_counts."""
        return burnside_count(self.fixed_counts, self.acting_order)


def _mat_mul(A, B, factors) -> tuple[tuple[int, ...], ...]:
    """A @ B with row i reduced mod factors[i]."""
    n = len(factors)
    return tuple(
        tuple(sum(A[i][l] * B[l][j] for l in range(n)) % factors[i] for j in range(n))
        for i in range(n)
    )


def _mat_vec(M, factors, x) -> tuple[int, ...]:
    return tuple(
        sum(M[i][j] * x[j] for j in range(len(x))) % factors[i] for i in range(len(x))
    )


def apply_action(A: CyclicAction, k: int, x) -> tuple[int, ...]:
    _check_member(A.target, x)
    return _act(A, k, x)


def _act(A: CyclicAction, k: int, x) -> tuple[int, ...]:
    """apply_action for an x already known to lie in A.target."""
    k %= A.modulus
    power = A._unit_matrices.get(k)
    if power is None:
        if math.gcd(k, A.modulus) != 1:
            raise Cp2Error(f"{k} is not a unit mod {A.modulus}")
        raise Cp2Error(
            f"{k} is not a power of generator {A.generator_residue} mod {A.modulus}"
        )
    return _mat_vec(power, A.target.factors, x)


def burnside_count(fixed: dict[int, int], order: int) -> int:
    """Burnside's lemma for a cyclic group <g> of the given order, where
    g^d fixes fixed[gcd(d, order)] points: the number of orbits is
    sum over e | order of phi(order/e) * fixed[e], divided by the order."""
    total = sum(w * fixed[e] for e, w in divisor_weights(order))
    if total % order != 0:
        raise InternalError(
            f"fixed-point total {total} is not divisible by the group order {order}"
        )
    return total // order


def orbit_count(A: CyclicAction) -> int:
    """Number of orbits of the action, as a Burnside average (cached on A)."""
    return A.n_orbits


# ---------------------------------------------------------------------------
# Smith normal form of integer matrices (plain nested lists)


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    unimodular, and Uinv is the exact inverse of U.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    S = [row[:] for row in M]
    U, Uinv = identity(r), identity(r)
    V = identity(c)

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
