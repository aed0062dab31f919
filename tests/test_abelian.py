import pytest

from cp2genus import abelian as ab
from cp2genus.errors import Cp2Error, EnumerationGuard, InternalError

from oracles import brute_fixed_counts, diagonal_orbits, element_neg, trivial_action


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
    assert len(ab.orbits(trivial_action(49, 42))) == 1
    # multiplication by a primitive root mod 43: {0} plus one fat orbit
    assert len(ab.orbits(c43_action(3))) == 2
    # identity action on C_3
    ident = ab.CyclicAction(ab.AbGroup((3,)), 7, 6, 3, ((1,),))
    assert len(ab.orbits(ident)) == 3
    # multiplication by 6 has order 3 mod 43: orbits of size 1 and 3
    parts = ab.orbits(c43_action(6))
    sizes = sorted(len(x) for x in parts)
    assert sizes[0] == 1 and set(sizes[1:]) == {3}
    assert sum(sizes) == 43
    for part in parts:
        assert 42 % len(part) == 0


def test_burnside_matches_direct():
    for mult in range(1, 43):
        A = c43_action(mult)
        assert ab.orbit_count(A) == len(ab.orbits(A))
    for mult in (1, 3, 6, 42):
        A = c43_action(mult)
        assert A.fixed_counts == brute_fixed_counts(A)
    A = c2x4_action()
    assert A.fixed_counts == brute_fixed_counts(A)
    assert ab.orbit_count(A) == len(ab.orbits(A))


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
        ab.cycles([0, 1, 2], lambda x: 0)


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
    with pytest.raises(EnumerationGuard):
        ab.orbits(ab.CyclicAction(big, 49, 42, 3, ((1, 0), (0, 1))), guard=1000)
    with pytest.raises(EnumerationGuard):
        ab.orbit_count(ab.CyclicAction(big, 49, 42, 3, ((1, 0), (0, 1))), guard=1000)


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
