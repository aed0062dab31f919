"""Finite abelian groups with cyclic automorphism actions and orbit counting.

Groups are given by invariant factors (Smith form convention: each factor
divides the next); elements are exponent tuples, one residue per factor.
A CyclicAction records how the unit group (Z/p^i)^* acts through a chosen
generator, which is how the ideal class groups H(Z[zeta_{p^i}]) carry
their Galois action here.

Orbit counts come from one engine: the cycle type of the generator's
permutation gives the fixed-point count of every power of it, and
Burnside's lemma averages those counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .errors import Cp2Error, EnumerationGuard, InternalError

DEFAULT_GUARD = 10**6


@dataclass(frozen=True)
class AbGroup:
    factors: tuple[int, ...]

    def __post_init__(self):
        for f in self.factors:
            if f < 2:
                raise Cp2Error(f"invariant factor {f} must be >= 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise Cp2Error(f"invariant factors {self.factors} violate divisibility")

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

    def check_guard(self, guard: int):
        if self.order > guard:
            raise EnumerationGuard(f"group of order {self.order} exceeds guard {guard}")

    def elements(self, guard: int = DEFAULT_GUARD):
        self.check_guard(guard)
        return list(product(*(range(f) for f in self.factors)))


def _check_member(G: AbGroup, x):
    if len(x) != len(G.factors):
        raise Cp2Error(f"element {x} has wrong length for factors {G.factors}")
    if not G.contains(x):
        raise Cp2Error(f"element {x} out of range for factors {G.factors}")


def element_add(G: AbGroup, x, y) -> tuple[int, ...]:
    _check_member(G, x)
    _check_member(G, y)
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


@lru_cache(maxsize=None)
def primitive_root(modulus: int) -> int:
    """Smallest generator of (Z/modulus)^* for modulus in {1, 2, 4, p^i, 2p^i}."""
    if modulus in (1, 2):
        return 1
    if modulus == 4:
        return 3
    units = [k for k in range(1, modulus) if math.gcd(k, modulus) == 1]
    target = len(units)
    for g in units[1:]:
        x, order = g, 1
        while x != 1:
            x = x * g % modulus
            order += 1
        if order == target:
            return g
    raise Cp2Error(f"(Z/{modulus})^* is not cyclic")


@dataclass(frozen=True)
class CyclicAction:
    """An action of (Z/modulus)^* on a finite abelian group.

    generator_matrix gives the automorphism induced by generator_residue;
    every unit k acts as the d-th matrix power where
    generator_residue^d = k (mod modulus).
    """

    target: AbGroup
    modulus: int
    acting_order: int
    generator_residue: int
    generator_matrix: tuple[tuple[int, ...], ...]

    def validate(self, where: str = "action"):
        n = self.target.rank
        if len(self.generator_matrix) != n or any(
            len(row) != n for row in self.generator_matrix
        ):
            raise Cp2Error(f"{where}: generator_matrix is not {n}x{n}")
        if self.acting_order < 1:
            raise Cp2Error(f"{where}: acting_order must be >= 1")
        if math.gcd(self.generator_residue, self.modulus) != 1:
            raise Cp2Error(
                f"{where}: generator_residue {self.generator_residue} "
                f"is not a unit mod {self.modulus}"
            )
        if pow(self.generator_residue, self.acting_order, self.modulus) != 1:
            raise Cp2Error(
                f"{where}: generator_residue^acting_order != 1 mod {self.modulus}"
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
        # applying acting_order times must give the identity; this also
        # forces the matrix to act as an automorphism
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            x = e
            for _ in range(self.acting_order):
                x = self._apply_matrix(x)
            if x != e:
                raise Cp2Error(
                    f"{where}: matrix^acting_order is not the identity on the group"
                )

    def _apply_matrix(self, x) -> tuple[int, ...]:
        return _mat_vec(self.generator_matrix, self.target.factors, x)

    @cached_property
    def _dlog_table(self) -> dict[int, int]:
        table: dict[int, int] = {}
        x = 1
        for d in range(self.acting_order):
            table.setdefault(x, d)
            x = x * self.generator_residue % self.modulus
        return table

    @cached_property
    def _matrix_powers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """generator_matrix^d for d in range(acting_order), row i reduced
        mod factor i (valid because the matrix is well defined on the group)."""
        n, fs, M = self.target.rank, self.target.factors, self.generator_matrix
        power = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        powers = []
        for _ in range(self.acting_order):
            powers.append(power)
            power = tuple(
                tuple(sum(M[i][l] * power[l][j] for l in range(n)) % fs[i] for j in range(n))
                for i in range(n)
            )
        return tuple(powers)

    @cached_property
    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths of the generator on the group; the acting group is
        cyclic, so these cycles are its orbits."""
        return tuple(len(c) for c in orbits(self, guard=self.target.order))

    @cached_property
    def fixed_counts(self) -> tuple[int, ...]:
        """Fixed points of generator^d on the group, for d in range(acting_order)."""
        return fixed_point_counts(self.cycle_type, self.acting_order)

    def dlog(self, k: int) -> int:
        """Exponent d with generator_residue^d = k (mod modulus)."""
        k %= self.modulus
        if self.modulus == 1:
            return 0
        if math.gcd(k, self.modulus) != 1:
            raise Cp2Error(f"{k} is not a unit mod {self.modulus}")
        try:
            return self._dlog_table[k]
        except KeyError:
            raise Cp2Error(
                f"{k} is not a power of generator {self.generator_residue} "
                f"mod {self.modulus}"
            ) from None


def _mat_vec(M, factors, x) -> tuple[int, ...]:
    return tuple(
        sum(M[i][j] * x[j] for j in range(len(x))) % factors[i] for i in range(len(x))
    )


def apply_action(A: CyclicAction, k: int, x) -> tuple[int, ...]:
    _check_member(A.target, x)
    return _mat_vec(A._matrix_powers[A.dlog(k)], A.target.factors, x)


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


def orbits(A: CyclicAction, guard: int = DEFAULT_GUARD) -> list[list[tuple[int, ...]]]:
    """Partition of the group into orbits of the action: the cycles of the generator."""
    return cycles(A.target.elements(guard), A._apply_matrix)


def fixed_point_counts(cycle_type, order: int) -> tuple[int, ...]:
    """Fixed points of s^d for d in range(order), where s is a permutation
    with the given cycle lengths: a cycle of length L is fixed pointwise
    by s^d exactly when L divides d."""
    by_length = Counter(cycle_type)
    return tuple(
        sum(L * n for L, n in by_length.items() if d % L == 0) for d in range(order)
    )


def burnside_count(fixed, order: int) -> int:
    """Burnside's lemma for a cyclic group <g> of the given order: the
    number of orbits is the average of the fixed-point counts of g^d."""
    total = sum(fixed)
    if total % order != 0:
        raise InternalError(
            f"fixed-point total {total} is not divisible by the group order {order}"
        )
    return total // order


def orbit_count(A: CyclicAction, guard: int = DEFAULT_GUARD) -> int:
    """Number of orbits of the action, as a Burnside average."""
    A.target.check_guard(guard)
    return burnside_count(A.fixed_counts, A.acting_order)
