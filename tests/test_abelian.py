import math
import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import abelian as ab
from cp2genus.errors import ConfigError, Cp2Error, EnumerationGuard, InternalError

from oracles import (
    apply_matrix,
    brute_fixed_counts,
    cycles,
    diagonal,
    diagonal_orbits,
    element_neg,
    orbits,
    per_power,
    snf_full,
    trivial_action,
    walk_primitive_root,
    walk_unit_order,
)


def c43_action(mult: int) -> ab.CyclicAction:
    return ab.CyclicAction(ab.AbGroup((43,)), 49, 42, 3, ((mult,),))


def c2x4_action() -> ab.CyclicAction:
    """A rank-2 action of (Z/7)^* on C_2 x C_4 with cycles of length 1 and 2."""
    A = ab.CyclicAction(ab.AbGroup((2, 4)), 7, 6, 3, ((1, 2), (0, 3)))
    A.validate()
    return A


def test_abgroup_invariants():
    ab.AbGroup((2, 4, 8))
    with pytest.raises(Cp2Error):
        ab.AbGroup((4, 2))
    with pytest.raises(Cp2Error):
        ab.AbGroup((1,))
    assert ab.AbGroup(()).order == 1


def test_element_add():
    G0 = ab.AbGroup(())
    assert ab._add(G0, (), ()) == ()
    G6 = ab.AbGroup((6,))
    assert ab._add(G6, (4,), (5,)) == (3,)
    x = (5,)
    assert ab._add(G6, x, element_neg(G6, x)) == (0,)
    # membership is checked where an element enters from outside
    A = ab.CyclicAction(G6, 7, 6, 3, ((5,),))
    A.validate()
    with pytest.raises(Cp2Error):
        ab.apply_action(A, 3, (1, 2))
    with pytest.raises(Cp2Error):
        ab.apply_action(A, 3, (6,))


def test_reduce_element():
    G = ab.AbGroup((43,))
    assert ab.reduce_element(G, (7,)) == (7,)
    assert ab.reduce_element(G, ()) == (0,)
    assert ab.reduce_element(ab.AbGroup(()), (0, 0)) == ()
    with pytest.raises(Cp2Error):
        ab.reduce_element(G, (43,))
    with pytest.raises(Cp2Error):
        ab.reduce_element(ab.AbGroup(()), (1,))


def test_primitive_roots():
    assert ab.primitive_root(2) == 1
    assert ab.primitive_root(4) == 3
    assert ab.primitive_root(9) == 2
    assert ab.primitive_root(25) == 2
    assert ab.primitive_root(49) == 3


def cyclic_moduli(bound: int) -> list[int]:
    """Every modulus in {1, 2, 4, q^i, 2q^i} (q an odd prime) up to bound."""
    out = {1, 2, 4}
    for q in range(3, bound + 1, 2):
        if all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
            qi = q
            while qi <= bound:
                out.update(n for n in (qi, 2 * qi) if n <= bound)
                qi *= q
    return sorted(out)


def test_primitive_root_matches_walk():
    """The phi(n)/q power tests give the walked smallest root, for every
    cyclic unit group up to 2*53^2."""
    moduli = cyclic_moduli(2 * 53**2)
    assert {1, 2, 4, 9, 25, 49, 53**2, 2 * 53**2} <= set(moduli)
    for n in moduli:
        assert ab.primitive_root(n) == walk_primitive_root(n)
    for n in (8, 12, 15):  # unit groups that are not cyclic
        with pytest.raises(Cp2Error, match=f"\\(Z/{n}\\)\\^\\* is not cyclic"):
            ab.primitive_root(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_validate_accepts_exactly_the_generating_residues(p):
    """An action of (Z/p^i)^* passes validation exactly when its residue
    has the walked order phi(p^i), and a refusal names that order."""
    for m in (p, p * p):
        N = m - m // p
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                continue
            action = ab.CyclicAction(ab.AbGroup(()), m, N, k, ())
            order = walk_unit_order(k, m)
            if order == N:
                action.validate("H")
            else:
                with pytest.raises(ConfigError,
                                   match=rf"^H\.generator_residue: order {order} mod {m}, "
                                         rf"expected {N}$"):
                    action.validate("H")
    # an order above the declared acting order is refused too
    with pytest.raises(ConfigError, match=r"order above 7 mod 49, expected 7$"):
        ab.CyclicAction(ab.AbGroup(()), 49, 7, 3, ()).validate()


def test_divisor_weights_match_gcd_tally():
    """phi(n/e) residues d mod n have gcd(d, n) = e, for every n <= 300
    and every acting order p(p-1) with p <= 199."""
    primes = [q for q in range(2, 200) if all(q % f for f in range(2, math.isqrt(q) + 1))]
    for n in list(range(1, 301)) + [q * (q - 1) for q in primes]:
        tally = Counter(math.gcd(d, n) for d in range(n))
        assert ab.divisor_weights(n) == tuple(sorted(tally.items())), n


def test_apply_action_examples():
    A = c43_action(6)
    assert ab.apply_action(A, 1, (1,)) == (1,)
    assert ab.apply_action(A, 3, (1,)) == (6,)  # generator residue acts as x6
    T = trivial_action(49, 42)
    assert ab.apply_action(T, 5, ()) == ()
    with pytest.raises(Cp2Error):
        ab.apply_action(A, 7, (1,))  # not a unit mod 49


def test_apply_action_homomorphism():
    A = c43_action(3)
    units = [k for k in range(1, 49) if k % 7 != 0]
    for k1 in units[:12]:
        for k2 in units[:12]:
            for x in ((0,), (1,), (17,)):
                left = ab.apply_action(A, (k1 * k2) % 49, x)
                right = ab.apply_action(A, k1, ab.apply_action(A, k2, x))
                assert left == right


def test_orbits_examples():
    assert len(orbits(trivial_action(49, 42))) == 1
    # multiplication by a primitive root mod 43: {0} plus one fat orbit
    assert len(orbits(c43_action(3))) == 2
    # identity action on C_3
    ident = ab.CyclicAction(ab.AbGroup((3,)), 7, 6, 3, ((1,),))
    assert len(orbits(ident)) == 3
    # multiplication by 6 has order 3 mod 43: orbits of size 1 and 3
    parts = orbits(c43_action(6))
    sizes = sorted(len(x) for x in parts)
    assert sizes[0] == 1 and set(sizes[1:]) == {3}
    assert sum(sizes) == 43
    for part in parts:
        assert 42 % len(part) == 0


def test_burnside_matches_direct():
    """The Smith-invariant fixed counts and their Burnside average match
    the brute fixed counts and the walked orbits on every action of
    (Z/49)^* on C_43, on C_2 x C_4 and on the trivial group."""
    actions = [c43_action(mult) for mult in range(1, 43)]
    actions += [c2x4_action(), trivial_action(49, 42)]
    for A in actions:
        A.validate()
        assert per_power(A.fixed_counts, A.acting_order) == brute_fixed_counts(A)
        assert ab.orbit_count(A) == len(orbits(A))


@st.composite
def diagonal_actions(draw):
    """A diagonal action of (Z/49)^* (order 42) or (Z/7)^* (order 6),
    generated by 3, on a group (+) Z/f_i of order at most 2000: entry u_i
    is a random unit mod f_i raised to phi(f_i)/gcd(phi(f_i), N), so the
    matrix has order dividing N."""
    modulus, N = draw(st.sampled_from([(49, 42), (7, 6)]))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        prev = factors[-1] if factors else 1
        most = 2000 // (math.prod(factors) * prev)
        least = 1 if factors else 2
        if most < least:
            break
        factors.append(prev * draw(st.integers(least, most)))
    diag = []
    for f in factors:
        u = draw(st.integers(1, f - 1))
        while math.gcd(u, f) != 1:
            u += 1
        phi = sum(1 for k in range(f) if math.gcd(k, f) == 1)
        diag.append(pow(u, phi // math.gcd(phi, N), f))
    n = len(factors)
    matrix = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    return ab.CyclicAction(ab.AbGroup(tuple(factors)), modulus, N, 3, matrix)


@settings(max_examples=40, deadline=None)
@given(diagonal_actions())
def test_smith_fixed_counts_match_walks(A):
    A.validate()
    assert per_power(A.fixed_counts, A.acting_order) == brute_fixed_counts(A)
    assert ab.orbit_count(A) == len(orbits(A))


def _leibniz_det(M) -> int:
    """The determinant of a square matrix as a sum over permutations."""
    total = 0
    for perm in permutations(range(len(M))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(M[i][j] for i, j in enumerate(perm))
    return total


def _minor_gcds(M) -> list[int]:
    """[gcd of the k x k minors of M for k = 1 .. min(rows, columns)]."""
    r, c = len(M), len(M[0]) if M else 0
    return [math.gcd(*(_leibniz_det([[M[i][j] for j in cols] for i in rows])
                       for rows in combinations(range(r), k)
                       for cols in combinations(range(c), k)))
            for k in range(1, min(r, c) + 1)]


def _fixed_count_rows(P, factors) -> list:
    """[P - I | diag(f)], the matrix CyclicAction.fixed_counts reduces."""
    n = len(factors)
    return [[P[i][j] - (i == j) for j in range(n)]
            + [factors[i] * (i == j) for j in range(n)] for i in range(n)]


def _smith_inputs(rng) -> list:
    out = [[], [[], []], [[0, 0, 0]], [[0], [0], [0]]]
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((1.0, 0.5, 0.2))
        big = rng.choice((9, 9, 10**6))
        M = [[rng.randint(-big, big) if rng.random() < density else 0 for _ in range(c)]
             for _ in range(r)]
        if rng.random() < 0.3:
            M[rng.randrange(r)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in M:
                row[j] = 0
        out.append(M)
    # the shapes fixed_counts builds: every unit power of real actions,
    # and random matrices beside random invariant factor chains
    for A in [c43_action(m) for m in (1, 3, 6, 42)] + [c2x4_action()]:
        out += [_fixed_count_rows(P, A.target.factors) for P in A._unit_matrices.values()]
    for _ in range(60):
        factors = [rng.randint(2, 6)]
        for _ in range(rng.randint(0, 2)):
            factors.append(factors[-1] * rng.randint(1, 4))
        P = [[rng.randrange(f) for _ in factors] for f in factors]
        out.append(_fixed_count_rows(P, factors))
    return out


def test_snf_matches_transform_oracle_and_minors():
    inputs = _smith_inputs(random.Random(20))
    assert len(inputs) >= 300
    for M in inputs:
        before = [row[:] for row in M]
        d = ab.snf(M)
        assert M == before
        assert d == diagonal(snf_full(M)[0]), M
        assert len(d) == min(len(M), len(M[0]) if M else 0)
        if len(M) <= 3 and M and len(M[0]) <= 3:
            products = [math.prod(d[:k]) for k in range(1, len(d) + 1)]
            assert products == _minor_gcds(M), M


def test_apply_action_matches_repeated_generator():
    A = c2x4_action()
    for d in range(6):
        k = pow(3, d, 7)
        for x in A.target.elements():
            y = x
            for _ in range(d):
                y = apply_matrix(A, y)
            assert ab.apply_action(A, k, x) == y


def test_cycles_rejects_non_permutation():
    with pytest.raises(InternalError):
        cycles([0, 1, 2], lambda x: 0)


def test_action_validation():
    good = c43_action(6)
    good.validate()
    # a singular matrix cannot give an action of the right order
    bad = ab.CyclicAction(ab.AbGroup((43,)), 49, 42, 3, ((0,),))
    with pytest.raises(Cp2Error):
        bad.validate()
    # acting order 7 (residue 43 = 3^6 mod 49) but x3 has order 42 on C_43
    with pytest.raises(Cp2Error):
        ab.CyclicAction(ab.AbGroup((43,)), 49, 7, 43, ((3,),)).validate()


def test_enumeration_guard():
    # 1001^2 elements, just above the guard: refused before any is listed
    with pytest.raises(EnumerationGuard, match="exceeds guard 1000000"):
        ab.AbGroup((1001, 1001)).elements()


def test_diagonal_orbits():
    assert diagonal_orbits(49, (trivial_action(49, 42),), ()) == 1
    # one nontrivial factor alone
    assert diagonal_orbits(49, (c43_action(3),), ()) == 2
    # an extra with trivial action multiplies the count
    assert diagonal_orbits(49, (c43_action(3),), ({1, -1},)) == 4
    # two coupled copies of C_43: Burnside gives (43^2 + 41)/42 = 45
    assert diagonal_orbits(49, (c43_action(3), c43_action(3)), ()) == 45


def test_diagonal_orbits_mixed_moduli():
    # driver (Z/49)^* acting through k mod 7: 37 has order 6 mod 43
    A7 = ab.CyclicAction(ab.AbGroup((43,)), 7, 6, 3, ((37,),))
    A7.validate()
    # orbits: {0} plus 42/6 = 7 orbits of size 6
    assert diagonal_orbits(49, (A7,), ()) == 8
