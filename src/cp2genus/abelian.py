"""Finite abelian groups with cyclic automorphism actions, orbit counting,
and the Smith invariants of integer matrices.

Groups are given by invariant factors (Smith form convention: each factor
divides the next); elements are exponent tuples, one residue per factor.
A CyclicAction records how the unit group (Z/p^i)^* acts through a chosen
generator, which is how the ideal class groups H(Z[zeta_{p^i}]) carry
their Galois action here.

Orbit counts come from one engine without listing the group: the fixed
points of a generator power M^d on G = (+) Z/f_i are ker(M^d - I), whose
order equals that of coker(M^d - I), the product of the Smith invariants
of [M^d - I | diag(f)], which snf computes without keeping any row or
column transform.  They depend on d only through e = gcd(d, N), N the
acting order, so they are kept per divisor e | N, and Burnside's lemma
weights each by phi(N/e).  Only AbGroup.elements lists a group, and it
keeps the size guard.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations, compress, count, product

from .errors import ConfigError, Cp2Error, EnumerationGuard, InternalError
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

    def elements(self):
        if self.order > DEFAULT_GUARD:
            raise EnumerationGuard(
                f"group of order {self.order} exceeds guard {DEFAULT_GUARD}")
        return list(product(*(range(f) for f in self.factors)))


def _check_member(G: AbGroup, x):
    if len(x) != len(G.factors):
        raise Cp2Error(f"element {x} has wrong length for factors {G.factors}")
    if not G.contains(x):
        raise Cp2Error(f"element {x} out of range for factors {G.factors}")


def _add(G: AbGroup, x, y, n: int = 1) -> tuple[int, ...]:
    """x + n*y for x and y already known to lie in G."""
    return tuple((a + n * b) % f for a, b, f in zip(x, y, G.factors))


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
                f"in entry {i}"
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
    by the unit generator_residue, which generates (Z/modulus)^*; every
    unit k acts as the d-th matrix power where generator_residue^d = k
    (mod modulus).
    """

    __slots__ = ("target", "modulus", "generator_residue", "generator_matrix", "__dict__")

    @cached_property
    def acting_order(self) -> int:
        """The order phi(modulus) of the acting group (Z/modulus)^*."""
        return _totient(self.modulus)

    def validate(self, where: str = "action"):
        n, m, g = self.target.rank, self.modulus, self.generator_residue
        M, fs = self.generator_matrix, self.target.factors
        if len(M) != n or any(len(row) != n for row in M):
            raise ConfigError(f"{where}: generator_matrix is not {n}x{n}")
        if m < 2:
            raise ConfigError(f"{where}: modulus {m} must be >= 2")
        if math.gcd(g, m) != 1:
            raise ConfigError(f"{where}.generator_residue: not a unit mod {m}")
        # exact order: every acting unit is a power of the residue, which
        # the orbit engine relies on.  The order of a unit divides
        # N = phi(m), and the table keeps the distinct powers g^d, d < N,
        # so it has N entries exactly when g generates
        table, N = self._unit_matrices, self.acting_order
        if len(table) != N:
            raise ConfigError(
                f"{where}.generator_residue: order {len(table)} mod {m}, expected {N}")
        # well-definedness on the quotient: factor_i | M[i][j]*factor_j
        for i, j in product(range(n), repeat=2):
            if M[i][j] * fs[j] % fs[i] != 0:
                raise ConfigError(
                    f"{where}: matrix entry [{i}][{j}] does not define a map on the group")
        # M^N = M * M^(N - 1) must be the identity on the group; this also
        # forces the matrix to act as an automorphism
        if _mat_mul(M, table[pow(g, -1, m)], fs) != table[1 % m]:
            raise ConfigError(f"{where}: matrix^acting_order is not the identity on the group")

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
            fixed[e] = math.prod(snf(rows))
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
# Smith invariants of integer matrices (sequences of int rows)


def snf(M) -> list[int]:
    """The Smith invariants d_1 | d_2 | ... of the integer matrix M:
    min(rows, columns) nonnegative integers, zeros last.

    A working copy of the rows is reduced, and no transform is kept.  The
    pivot is the entry of least absolute value in the pivot row.  Row
    subtractions leave every other row its remainder in the pivot column,
    and the least nonzero remainder makes its row the pivot row.  Once the
    column is clear, column subtractions reduce the pivot row modulo the
    pivot, and the least nonzero remainder is the next pivot.  |pivot|
    falls at every restart, so it ends alone in its row and column, and
    the row is dropped.  The gcd and lcm of each pair of pivots then give
    the chain.
    """
    size = min(len(M), len(M[0])) if M else 0
    rows = [list(row) for row in M]
    d = []
    while rows:
        top = rows.pop(0)
        while any(top):
            support = list(compress(count(), top))
            j = min(support, key=lambda col: abs(top[col]))
            a, low, least = top[j], -1, abs(top[j])
            for i, row in enumerate(rows):
                if row[j]:
                    q = row[j] // a
                    for col in support:
                        row[col] -= q * top[col]
                    if 0 < abs(row[j]) < least:
                        low, least = i, abs(row[j])
            if low >= 0:
                rows[low], top = top, rows[low]
                continue
            for col in support:
                top[col] %= a  # top[j] becomes 0
            if any(top):
                top[j] = a
            else:
                d.append(abs(a))
    d.sort()
    for i, k in combinations(range(d.count(1), len(d)), 2):
        g = math.gcd(d[i], d[k])
        d[i], d[k] = g, d[i] // g * d[k]
    return d + [0] * (size - len(d))
