import math

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import abelian as ab
from cp2genus.errors import Cp2Error, EnumerationGuard, InternalError

from oracles import (
    brute_fixed_counts,
    cycles,
    diagonal_orbits,
    element_neg,
    orbits,
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
    assert ab.element_add(G0, (), ()) == ()
    G6 = ab.AbGroup((6,))
    assert ab.element_add(G6, (4,), (5,)) == (3,)
    x = (5,)
    assert ab.element_add(G6, x, element_neg(G6, x)) == (0,)
    with pytest.raises(Cp2Error):
        ab.element_add(G6, (1, 2), (0,))


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


def test_primitive_root_and_order_match_walks():
    """The phi(n)/q power tests give the walked smallest root and unit
    orders, for every cyclic unit group up to 2*53^2."""
    moduli = cyclic_moduli(2 * 53**2)
    assert {1, 2, 4, 9, 25, 49, 53**2, 2 * 53**2} <= set(moduli)
    for n in moduli:
        g = ab.primitive_root(n)
        assert g == walk_primitive_root(n)
        for k in {g, n - 1, 2}:
            if math.gcd(k, n) == 1:
                assert ab.unit_order(k, n) == walk_unit_order(k, n)
    for n in (8, 12, 15):  # unit groups that are not cyclic
        with pytest.raises(Cp2Error, match=f"\\(Z/{n}\\)\\^\\* is not cyclic"):
            ab.primitive_root(n)


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
        assert A.fixed_counts == brute_fixed_counts(A)
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
    assert A.fixed_counts == brute_fixed_counts(A)
    assert ab.orbit_count(A) == len(orbits(A))


def test_apply_action_matches_repeated_generator():
    A = c2x4_action()
    for d in range(6):
        k = pow(3, d, 7)
        for x in A.target.elements():
            y = x
            for _ in range(d):
                y = A._apply_matrix(y)
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
    big = ab.AbGroup((1009, 2018))
    with pytest.raises(EnumerationGuard):
        big.elements(guard=1000)


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
