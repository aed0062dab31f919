import random

import pytest
from hypothesis import given, settings, strategies as st

from cp2genus import classdata, lattice as lat, materialize as mat
from cp2genus.errors import Cp2Error, InternalError, NontrivialClass

from conftest import indecomposable_templates, random_descriptor, synthetic_c43
from oracles import (
    bareiss_det,
    dense_charpoly,
    dense_connected_components,
    dense_validate_rep,
    enumerate_sparse_rows,
    expand,
    from_list,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_pow,
    multiplicative_order,
    product_pushout_block,
    block_diag,
    diagonal,
    root_one_multiplicity,
    snf_ext_group,
    snf_full,
    snf_pushout_block,
    solve_exact,
    x_pow_minus_1,
)


def test_snf_examples():
    for M, want in (([[2, 0], [0, 3]], [1, 6]), ([[1, 0], [0, 1]], [1, 1]),
                    ([[0, 0], [0, 0]], [0, 0]), ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
                    ([[0, 2], [3, 0], [0, 0]], [1, 6]), ([], []), ([[], []], [])):
        assert mat.snf(M) == want, M
        if M and M[0]:
            assert diagonal(snf_full(M)[0]) == want, M


def test_snf_roundtrip_random():
    rng = random.Random(42)
    for _ in range(150):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        S, U, V, Uinv = snf_full(M)
        assert mat_mul(mat_mul(U, M), V) == S
        assert mat_mul(U, Uinv) == mat.identity(r)
        assert abs(bareiss_det(U)) == 1
        assert abs(bareiss_det(V)) == 1
        d = diagonal(S)
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
        for i in range(r):
            for j in range(c):
                assert i == j or S[i][j] == 0


def test_kernel_and_solve():
    M = [[2, 4, 6], [1, 2, 3]]
    K = kernel_basis(M)
    assert len(K) == 2
    for col in K:
        assert mat.mat_vec(M, col) == [0, 0]
    y = solve_exact(K, K[0])
    assert y == [1, 0] or mat.mat_vec([[K[j][i] for j in range(2)] for i in range(3)], y) == K[0]
    with pytest.raises(Cp2Error):
        solve_exact(K, [1, 0, 0])  # not in the kernel span


def test_companion():
    assert mat.companion([-1, 1]) == [[1]]
    assert mat.companion([1, 0, 1]) == [[0, -1], [1, 0]]
    with pytest.raises(Cp2Error):
        mat.companion([2, 2])


def test_charpoly_small():
    assert mat.charpoly([[5]]) == [-5, 1]
    assert mat.charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]
    A = mat.companion(mat.phi_p2(3))
    assert mat.charpoly(A) == mat.phi_p2(3)


def test_charpoly_matches_dense_oracle():
    rng = random.Random(7)
    for n in range(13):
        for density in (1.0, 0.5, 0.15):
            for _ in range(5):
                A = [[rng.randint(-3, 3) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
                assert mat.charpoly(A) == dense_charpoly(A), A


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**80, 2**80)),
             min_size=n, max_size=n),
    max_size=n)))
def test_sparse_rows_matches_enumerate_oracle(A):
    # same entries in the same (ascending) column order, for lists and tuples
    want = [list(row.items()) for row in enumerate_sparse_rows(A)]
    for M in (A, tuple(map(tuple, A))):
        assert [list(row.items()) for row in mat.sparse_rows(M)] == want


def test_sparse_pow_matches_dense_oracle():
    rng = random.Random(13)
    for n in range(1, 9):
        for density in (1.0, 0.3, 0.1):
            A = [[rng.randint(-2, 2) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
            rows = mat.sparse_rows(A)
            for e in (0, 1, 2, 3, 5, 9, 25):
                got, want = mat.sparse_pow(rows, e), mat_pow(A, e)
                assert all(0 not in row.values() for row in got)
                assert [[row.get(j, 0) for j in range(n)] for row in got] == want, (A, e)
                assert mat.is_identity(got) == (want == mat.identity(n))
            assert rows == mat.sparse_rows(A)


def test_fixed_rank_from_charpoly_matches_snf(ctx2, ctx3, ctx5):
    # every block has A^(p^2) = I, so it is diagonalizable: the rational
    # type read off tr A and tr A^p gives its char poly, and the root 1 of
    # that char poly counts the fixed rank
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, classdata.trivial(7))):
        for D in indecomposable_templates(p, ctx):
            whole = mat.rep_of(D).matrix
            A = [list(r) for r in whole]
            I = mat.identity(len(A))
            _, abc, chi, fixed = mat._component_type(p, whole)
            assert abc == lat.rational_type(D), lat.render(D)
            assert (chi, fixed) == ([1], abc[0])
            berkowitz = mat.charpoly(A)
            assert berkowitz == mat.cyclotomic_product(p, *abc)
            multiplicity = root_one_multiplicity(berkowitz)
            assert multiplicity == len(A) - mat.mat_rank(mat.mat_sub(A, I)), lat.render(D)
            assert multiplicity == abc[0]


def _dense(rows):
    n = len(rows)
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _assert_pushout_matches_oracles(p, s):
    rows = mat._pushout_block(p, s)
    # ascending columns and no stored zeros, as sparse_rows gives them
    assert all(list(row) == sorted(row) and 0 not in row.values() for row in rows)
    block = _dense(rows)
    assert block == product_pushout_block(p, s) == snf_pushout_block(p, s), (p, s)


def test_pushout_block_matches_snf_oracle(ctx2, ctx3, ctx5):
    # the closed form Q = G22 - C G12 is the quotient action of the full
    # product U G U^-1, and the unit pivots give the same quotient basis
    # as a Smith normal form of the relations, so every block is
    # bit-identical
    rng = random.Random(3)
    kinds = set()
    for p, ctx in ((2, ctx2), (3, ctx3), (5, ctx5), (7, classdata.trivial(7))):
        summands = [lat.make_summand(p, ctx, "Ec")]
        for kind in lat.EXTENSION_KINDS:
            if kind == "D" and p % 4 != 1:
                continue
            for r in lat.r_range(kind, p):
                reps = ctx.unit_quotient(lat.unit_index(kind, r, p)).reps
                units = [reps[0], *rng.sample(reps[1:], min(3, len(reps) - 1))]
                summands += [lat.make_summand(p, ctx, kind, r=r, u=u) for u in units]
        for s in summands:
            _assert_pushout_matches_oracles(p, s)
            kinds.add(s.kind)
    assert kinds == set(mat._X_OF_KIND)


def test_pushout_block_checks_invariance(ctx3, monkeypatch):
    # g^p f0 = f0 holds for every f0, since g^p acts trivially on each
    # coefficient module; letting g act on Z as 2 breaks it for Ec and C
    component = mat._component
    monkeypatch.setattr(mat, "_component",
                        lambda p, name: [[2]] if name == "Z" else component(p, name))
    for s in (lat.make_summand(3, ctx3, "Ec"), lat.parse("C(0,0;1,1)", 3, ctx3).summands[0][0]):
        for build in (mat._pushout_block, product_pushout_block):
            with pytest.raises(InternalError, match="^relation lattice is not invariant under g$"):
                build(3, s)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_pushout_block_property(p, seed):
    ctx = classdata.trivial(7) if p == 7 else classdata.builtin(p)
    rng = random.Random(seed)
    kind = rng.choice([k for k in lat.EXTENSION_KINDS
                       if lat.r_range(k, p) and (k != "D" or p % 4 == 1)])
    r = rng.choice(list(lat.r_range(kind, p)))
    u = rng.choice(ctx.unit_quotient(lat.unit_index(kind, r, p)).reps)
    _assert_pushout_matches_oracles(p, lat.make_summand(p, ctx, kind, r=r, u=u))


def test_validate_rep_trace_path_on_a_wrong_model(ctx2):
    # the swap has order 2, so its type comes from traces: tr B = 0 and
    # tr B^2 = 2 give (a, b, c) = (1, 1, 0), where Z + Z predicts (2, 0, 0)
    rep = mat.IntegerRep(2, ((0, 1), (1, 0)), lat.parse("Z + Z", 2, ctx2))
    assert mat._component_type(2, rep.matrix) == (2, (1, 1, 0), [1], 1)
    report = _assert_matches_oracle(rep)
    failed = {c.name: c.detail for c in report.checks if not c.ok}
    assert failed == {"order": "order(A) = 2, expected 1",
                      "char_poly": "char poly matches prediction: False",
                      "fixed_rank": "rank ker(A - I) = 1, expected 2"}


def test_validate_rep_rejects_a_short_row(ctx2):
    rep = mat.IntegerRep(2, ((1,), (0, 1)), lat.parse("Z + Z", 2, ctx2))
    with pytest.raises(Cp2Error, match="not 2 x 2"):
        mat.validate_rep(rep)


def test_validate_rep_rejects_a_long_row(ctx2):
    rep = mat.IntegerRep(2, ((1, 0, 1), (0, 1)), lat.parse("Z + Z", 2, ctx2))
    with pytest.raises(Cp2Error, match="not 2 x 2"):
        mat.validate_rep(rep)


def test_validate_rep_rejects_n_unequal_to_the_matrix_size(ctx2):
    D = lat.parse("Z + Z", 2, ctx2)
    rep = mat.IntegerRep(3, mat.rep_of(D).matrix, D)
    with pytest.raises(Cp2Error, match="not 3 x 3"):
        mat.validate_rep(rep)


def _count_powers(monkeypatch):
    """The exponents of every sparse_pow call from now on, in order."""
    calls = []
    power = mat.sparse_pow

    def counting(A, e):
        calls.append(e)
        return power(A, e)

    monkeypatch.setattr(mat, "sparse_pow", counting)
    return calls


def test_validate_rep_checks_each_distinct_component_once(ctx3, monkeypatch):
    D = lat.parse("3*B(0,0;1) + 2*E(0,0;0) + Z + 2*Z + B(0,0;2)", 3, ctx3)
    rep = mat.rep_of(D)
    blocks = [B for _, _, B in mat._diagonal_blocks(rep.matrix, rep.n, D)]
    assert len(blocks) == 9 and len(set(blocks)) == 4
    calls = _count_powers(monkeypatch)
    mat._component_type.cache_clear()
    report = mat.validate_rep(rep)
    # B^p and B^(p^2) once per distinct block, however often it occurs
    assert calls == [3, 3] * 4
    assert report.passed
    assert report == dense_validate_rep(rep)


def test_rep_of_and_validate_rep_power_each_distinct_block_once(ctx3, fresh_block_memo,
                                                               monkeypatch):
    D = lat.parse("3*B(0,0;1) + 2*E(0,0;0) + Z + 2*Z + B(0,0;2)", 3, ctx3)
    calls = _count_powers(monkeypatch)
    rep = mat.rep_of(D)
    assert len(calls) == 2 * len(D.summands) == 8
    report = mat.validate_rep(rep)
    assert len(calls) == 8
    assert report.passed
    assert report == dense_validate_rep(rep)


def test_validate_rep_type_comparison_matches_oracle(ctx3):
    # a model that passes the power check, labelled with descriptors of
    # the same rank: the char poly check compares rational types, and it
    # and det(A) must agree with Berkowitz and Bareiss on the whole matrix
    D = lat.parse("Z + B(0,0;1) + E(0,0;0)", 3, ctx3)
    rep = mat.rep_of(D)
    U, Uinv = _unimodular(rep.n, random.Random(5))
    conj = mat_mul(mat_mul(U, [list(r) for r in rep.matrix]), Uinv)
    labels = ("Z + B(0,0;1) + E(0,0;0)", "Ec(0) + B(0,0;1) + b(0)", "18*Z",
              "6*Eb(0)", "3*c(0)", "C(0,0;1,1) + 8*Z")
    verdicts = set()
    for A in (rep.matrix, tuple(map(tuple, conj))):
        for text in labels:
            label = lat.parse(text, 3, ctx3)
            assert lat.rank(label) == rep.n == 18
            report = _assert_matches_oracle(mat.IntegerRep(rep.n, A, label))
            checks = {c.name: c for c in report.checks}
            assert checks["power_identity"].ok
            same = lat.rational_type(label) == lat.rational_type(D)
            assert checks["char_poly"].ok == same, text
            verdicts.add(same)
    assert verdicts == {True, False}


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_validate_rep_property(p, seed):
    ctx = classdata.builtin(p)  # trivial class groups
    rng = random.Random(seed)
    while True:
        D = random_descriptor(rng, p, ctx, max_summands=4)
        if lat.rank(D) <= 30:
            break
    rep = mat.rep_of(D)
    report = mat.validate_rep(rep)
    assert report.passed, (lat.render(D), [c.detail for c in report.checks if not c.ok])
    assert report == dense_validate_rep(rep), lat.render(D)


def test_validate_rep_rank_fallback_on_a_unipotent_block(ctx2):
    # (1 1; 0 1) has the predicted char poly (x - 1)^2 but is not
    # diagonalizable: its fixed rank is 1, not the multiplicity 2
    rep = mat.IntegerRep(2, ((1, 1), (0, 1)), lat.parse("Z + Z", 2, ctx2))
    report = _assert_matches_oracle(rep)
    failed = {c.name: c.detail for c in report.checks if not c.ok}
    assert failed == {"power_identity": "A^4 == I: False",
                      "order": "order(A) = 0, expected 1",
                      "fixed_rank": "rank ker(A - I) = 1, expected 2"}


def test_rep_of_examples(ctx2, ctx3):
    rep = mat.rep_of(lat.parse("Z", 2, ctx2))
    assert rep.matrix == ((1,),)
    rep = mat.rep_of(lat.parse("c(0)", 2, ctx2))
    assert rep.matrix == ((0, -1), (1, 0))
    rep = mat.rep_of(lat.parse("Ec(0)", 2, ctx2))
    A = [list(r) for r in rep.matrix]
    assert rep.n == 3
    assert multiplicative_order(A, 2) == 4
    assert mat.charpoly(A) == mat.polymul_z([-1, 1], mat.phi_p2(2))
    assert mat.validate_rep(rep).passed
    # nonsplit: A = 1 (+) companion would make (A - I) have even entries
    # in the fixed row; here the extension row mixes them
    assert any(A[i][j] % 2 for i in range(3) for j in range(3) if i != j)


def test_rep_rank_matches(ctx3):
    for text in ("Z + c(0)", "B(0,0;0) + E(0,0;1)", "2*Eb(0) + F(0,0;0)"):
        D = lat.parse(text, 3, ctx3)
        assert mat.rep_of(D).n == lat.rank(D)


def test_rep_of_refuses_a_rank_above_the_limit(ctx2, ctx3, ctx5, monkeypatch):
    # the rank is checked before any row is built: 10^15 copies of Z
    # would not fit in memory, and 401 copies of B(0,0;0) at p = 5 are
    # rank 401 * 25
    for text, p, ctx in (("999999999999999*Z", 2, ctx2), ("2001*Z", 2, ctx2),
                         ("401*B(0,0;0)", 5, ctx5)):
        D = lat.parse(text, p, ctx)
        with pytest.raises(Cp2Error, match=f"lattice rank {lat.rank(D)}, at most 2000$"):
            mat.rep_of(D)
    # the limit itself is allowed, checked on a smaller limit
    monkeypatch.setattr(mat, "MAX_MODEL_RANK", 7)
    assert mat.rep_of(lat.parse("Ec(0)", 3, ctx3)).n == 7
    with pytest.raises(Cp2Error, match="lattice rank 8, at most 7$"):
        mat.rep_of(lat.parse("Z + Ec(0)", 3, ctx3))


def test_rep_of_all_indecomposables(ctx2, ctx3):
    for p, ctx in ((2, ctx2), (3, ctx3)):
        for D in indecomposable_templates(p, ctx):
            rep = mat.rep_of(D)
            report = mat.validate_rep(rep)
            assert report.passed, (lat.render(D), [c.detail for c in report.checks if not c.ok])


def test_rep_of_sums_validate(ctx3):
    D = lat.parse("Z + b(0) + B(0,0;1) + E(0,0;0)", 3, ctx3)
    report = mat.validate_rep(mat.rep_of(D))
    assert report.passed


def test_rep_of_rejects_nontrivial_classes():
    ctx = synthetic_c43()
    with pytest.raises(NontrivialClass):
        mat.rep_of(lat.parse("c(5)", 7, ctx))
    # trivial classes over nontrivial class data are fine
    rep = mat.rep_of(lat.parse("c(0)", 7, ctx))
    assert rep.n == 42


def test_ext_group_sizes():
    assert mat.ext_group("Z+R", 2).order == 4
    assert mat.ext_group("Z+R", 3).order == 27
    assert mat.ext_group("Z+R", 3).factors == (3, 3, 3)
    assert mat.ext_group("Z", 2).order == 2
    assert mat.ext_group("Z", 3).order == 3
    assert mat.ext_group("R", 3).order == 9      # F_p[l]/(l^(p-1))
    assert mat.ext_group("E", 3).order == 27     # F_p[l]/(l^p)
    assert mat.ext_group("Z+E", 2).order == 8
    with pytest.raises(Cp2Error):
        mat.ext_group("S", 3)


def test_ext_group_matches_snf_oracle():
    for p in (2, 3, 5, 7, 11, 13):
        for x in ("Z", "R", "E", "Z+R", "Z+E"):
            assert mat.ext_group(x, p) == snf_ext_group(x, p), (x, p)


def _eval_poly_at_matrix(f, A):
    n = len(A)
    val = mat.zeros(n, n)
    acc = mat.identity(n)
    for c in f:
        if c:
            val = mat_add(val, [[c * x for x in row] for row in acc])
        acc = mat_mul(acc, A)
    return val


def _snf_profile(A, p):
    """Z-conjugacy invariants: SNF diagonals of f(A) for the structural
    polynomials f."""
    out = []
    for f in ([-1, 1], mat.phi_p(p), mat.phi_p2(p), x_pow_minus_1(p)):
        out.append(tuple(mat.snf(_eval_poly_at_matrix(f, A))))
    return tuple(out)


def test_snf_invariants_detect_nonsplit(ctx2, ctx3):
    # Ec(0) and Z + c(0) share order and char poly; the SNF of A - I
    # separates them, certifying the built extension really is nonsplit
    for p, ctx in ((2, ctx2), (3, ctx3)):
        A_ns = [list(r) for r in mat.rep_of(lat.parse("Ec(0)", p, ctx)).matrix]
        A_sp = [list(r) for r in mat.rep_of(lat.parse("Z + c(0)", p, ctx)).matrix]
        d_ns = mat.snf(mat.mat_sub(A_ns, mat.identity(len(A_ns))))
        d_sp = mat.snf(mat.mat_sub(A_sp, mat.identity(len(A_sp))))
        assert d_ns != d_sp
        assert [d for d in d_sp if d not in (0, 1)] == [p]
        assert [d for d in d_ns if d not in (0, 1)] == []


def test_b_zero_block_matches_regular_representation(ctx2, ctx3):
    # the class-1 type B extension of S by the group ring of C_p is the
    # full group ring of C_{p^2}; its matrix must carry the same
    # conjugacy profile as the plain regular representation
    for p, ctx in ((2, ctx2), (3, ctx3)):
        built = [list(r) for r in mat.rep_of(lat.parse("B(0,0;0,1)", p, ctx)).matrix]
        regular = mat.companion(x_pow_minus_1(p * p))
        assert _snf_profile(built, p) == _snf_profile(regular, p)


def test_validate_rep_catches_wrong_matrix(ctx2):
    D = lat.parse("c(0)", 2, ctx2)
    bad = mat.IntegerRep(2, ((1, 0), (0, 1)), D)   # identity is not the c action
    report = mat.validate_rep(bad)
    assert not report.passed
    names = {c.name for c in report.checks if not c.ok}
    assert "order" in names and "char_poly" in names


def _assert_matches_oracle(rep):
    report = mat.validate_rep(rep)
    assert report == dense_validate_rep(rep), lat.render(rep.source)
    return report


def test_validate_rep_matches_dense_oracle(ctx2, ctx3, ctx5):
    for p, ctx in ((2, ctx2), (3, ctx3)):
        templates = indecomposable_templates(p, ctx)
        for i, D1 in enumerate(templates):
            assert _assert_matches_oracle(mat.rep_of(D1)).passed
            for D2 in templates[i:]:
                D = lat.descriptor(p, ctx, D1.summands + D2.summands)
                assert _assert_matches_oracle(mat.rep_of(D)).passed
    for text, n in (("B(0,0;1) + F(0,0;1)", 50), ("B(0,0;1) + C(0,0;1,1) + E(0,0;0)", 75)):
        rep = mat.rep_of(lat.parse(text, 5, ctx5))
        assert rep.n == n
        assert _assert_matches_oracle(rep).passed


def _unimodular(n, rng, steps=40):
    """(U, U^-1) for a product of random elementary row operations."""
    U, Uinv = mat.identity(n), mat.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]
    return U, Uinv


def test_validate_rep_on_a_conjugated_model(ctx3):
    D = lat.parse("Z + B(0,0;1) + E(0,0;0)", 3, ctx3)
    rep = mat.rep_of(D)
    assert len(dense_connected_components(rep.matrix)) == 3
    U, Uinv = _unimodular(rep.n, random.Random(11))
    assert mat_mul(U, Uinv) == mat.identity(rep.n)
    A = mat_mul(mat_mul(U, [list(r) for r in rep.matrix]), Uinv)
    conj = mat.IntegerRep(rep.n, tuple(tuple(r) for r in A), D)
    assert dense_connected_components(conj.matrix) == [list(range(rep.n))]
    assert _spans(conj) == [(0, rep.n)]
    assert _assert_matches_oracle(conj).passed


def test_validate_rep_corrupted_block_matches_oracle(ctx3):
    D = lat.parse("B(0,0;1) + E(0,0;0)", 3, ctx3)
    rep = mat.rep_of(D)
    first, second = dense_connected_components(rep.matrix)
    failing = set()
    for i in second:
        for j in second:
            A = [list(r) for r in rep.matrix]
            A[i][j] += 1
            bad = mat.IntegerRep(rep.n, tuple(tuple(r) for r in A), D)
            assert _spans(bad) == [(0, len(first)), (len(first), rep.n)]
            failing |= {c.name for c in _assert_matches_oracle(bad).checks if not c.ok}
    assert failing == {"power_identity", "unimodular", "order", "char_poly"}


def _spans(rep):
    """The (lo, hi) of the diagonal blocks validate_rep checks, after
    asserting that each block is the slice A[lo:hi][lo:hi] and that every
    connected component of A (the dense oracle) lies in one block."""
    A = rep.matrix
    blocks = mat._diagonal_blocks(tuple(map(tuple, A)), rep.n, rep.source)
    spans = [(lo, hi) for lo, hi, _ in blocks]
    assert [B for _, _, B in blocks] == [tuple(tuple(row[lo:hi]) for row in A[lo:hi])
                                         for lo, hi in spans]
    assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(rep.n))
    for comp in dense_connected_components(A):
        assert any(lo <= comp[0] and comp[-1] < hi for lo, hi in spans), (comp, spans)
    return spans


def _summand_spans(D):
    """The (lo, hi) of each copy of a summand of D in the order of D.summands."""
    spans, at = [], 0
    for s in expand(D):
        m = lat.type_rank(*lat.CYCLOTOMIC[s.kind], D.p)
        spans.append((at, at + m))
        at += m
    return spans


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_connected_components_match_dense_oracle(p, seed):
    # a model with its rows and columns permuted alike, and a few entries
    # changed so that some components merge or lose their diagonal: every
    # block validate_rep checks is a union of components, and the report
    # is the whole-matrix oracle's
    ctx = classdata.builtin(p)
    rng = random.Random(seed)
    while True:
        D = random_descriptor(rng, p, ctx, max_summands=4)
        if lat.rank(D) <= 40:
            break
    rep = mat.rep_of(D)
    n = rep.n
    perm = rng.sample(range(n), n)
    permuted = [[rep.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    corrupted = [row[:] for row in permuted]
    for _ in range(rng.randint(1, 3)):
        corrupted[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 0, 1, 2))
    for A in (permuted, corrupted):
        model = mat.IntegerRep(n, tuple(map(tuple, A)), D)
        _spans(model)
        _assert_matches_oracle(model)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_rep_of_models_take_no_merge_path(p, seed):
    # rep_of places the blocks in D.summands order, so validate_rep's
    # partition is the summands' and no row reaches outside its block
    ctx = classdata.builtin(p)
    rng = random.Random(seed)
    D = random_descriptor(rng, p, ctx, max_summands=5)
    rep = mat.rep_of(D)
    assert _spans(rep) == _summand_spans(D)
    blocks = mat._diagonal_blocks(rep.matrix, rep.n, D)
    assert [B for _, _, B in blocks] == [mat._summand_block(p, s) for s in expand(D)]


def test_validate_rep_merges_blocks_a_stray_entry_joins(ctx3):
    D = lat.parse("B(0,0;1) + E(0,0;0) + Z + b(0)", 3, ctx3)
    rep = mat.rep_of(D)
    (_, m1), (_, m2), (_, m3), (_, n) = _summand_spans(D)
    assert _spans(rep) == _summand_spans(D)
    assert _assert_matches_oracle(rep).passed
    # (row, column, spans after the merge): an entry above the diagonal
    # joins forward, one below joins back, and one far off the diagonal
    # joins every block its row spans
    cases = ((0, m1, [(0, m2), (m2, m3), (m3, n)]),
             (m1, m1 - 1, [(0, m2), (m2, m3), (m3, n)]),
             (m2, m3, [(0, m1), (m1, m2), (m2, n)]),
             (m1, n - 1, [(0, m1), (m1, n)]),
             (n - 1, 0, [(0, n)]))
    for i, j, want in cases:
        A = [list(r) for r in rep.matrix]
        A[i][j] = 1
        bad = mat.IntegerRep(n, tuple(map(tuple, A)), D)
        assert _spans(bad) == want, (i, j)
        _assert_matches_oracle(bad)


def test_validate_rep_on_a_matrix_of_another_size(ctx3):
    # the summand partition (ranks 1, 1, 2) is cut off at n, and the last
    # block runs to n; a cyclic shift joins every block.  The rows are
    # lists here, which validate_rep reads as tuples
    D = lat.parse("Z + b(0) + Z", 3, ctx3)
    assert _summand_spans(D) == [(0, 1), (1, 2), (2, 4)]
    for n, spans in ((2, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 2), (2, 3)]),
                     (6, [(0, 1), (1, 2), (2, 4), (4, 6)])):
        for A, want in ((mat.identity(n), spans),
                        (mat.companion(x_pow_minus_1(n)), [(0, n)])):
            rep = mat.IntegerRep(n, A, D)
            assert _spans(rep) == want
            assert not _assert_matches_oracle(rep).passed


def test_validate_rep_large_model(ctx5):
    # n = 200: by n^4 scaling the dense validator would take tens of seconds
    rep = mat.rep_of(lat.parse("8*B(0,0;1)", 5, ctx5))
    assert rep.n == 200
    assert mat.validate_rep(rep).passed


@pytest.fixture
def fresh_block_memo():
    """Empty summand-block and block-type memos, emptied again afterwards
    so that no block built under a monkeypatch outlives the test."""
    mat._summand_block.cache_clear()
    mat._component_type.cache_clear()
    yield
    mat._summand_block.cache_clear()
    mat._component_type.cache_clear()


def test_rep_of_checks_every_block(ctx3, fresh_block_memo, monkeypatch):
    monkeypatch.setattr(mat, "_pushout_block", lambda p, s: [{0: 2}])
    with pytest.raises(InternalError, match=r"^built matrix does not satisfy A\^\(p\^2\) = I$"):
        mat.rep_of(lat.parse("Z + B(0,0;1)", 3, ctx3))


def test_rep_of_builds_each_distinct_summand_once(ctx3, fresh_block_memo, monkeypatch):
    D = lat.parse("3*B(0,0;1) + 2*E(0,0;0) + Z + B(0,0;2)", 3, ctx3)
    calls = []
    build = mat._pushout_block

    def counting(p, s):
        calls.append(s)
        return build(p, s)

    monkeypatch.setattr(mat, "_pushout_block", counting)
    rep = mat.rep_of(D)
    assert sorted(calls, key=lat.Summand.sort_key) == sorted(
        {s for s, _ in D.summands if s.kind != "Z"}, key=lat.Summand.sort_key)
    copies = [[list(r) for r in mat.rep_of(from_list(3, ctx3, [s])).matrix]
              for s in expand(D)]
    assert [list(r) for r in rep.matrix] == block_diag(copies)


def test_rep_of_builds_each_summand_block_once_per_process(ctx3, fresh_block_memo, monkeypatch):
    D = lat.parse("3*B(0,0;1) + 2*E(0,0;0) + Z + C(0,0;1,1)", 3, ctx3)
    calls = []
    build = mat._pushout_block

    def counting(p, s):
        calls.append(s)
        return build(p, s)

    monkeypatch.setattr(mat, "_pushout_block", counting)
    first = mat.rep_of(D)
    assert len(calls) == 3
    del calls[:]
    assert mat.rep_of(D) == first
    assert calls == []
    assert mat.validate_rep(first) == dense_validate_rep(first)


def test_summand_block_memo_is_bounded():
    assert mat._summand_block.cache_info().maxsize == mat._TYPE_MEMO_SIZE
    assert mat._component_type.cache_info().maxsize == mat._TYPE_MEMO_SIZE


def test_validate_rep_reads_a_corrupted_copy_with_warm_memos(ctx3):
    # the memos hold D's blocks and block types; a corrupted copy of its
    # matrix must still be read entry by entry and judged as the whole-
    # matrix oracle judges it
    D = lat.parse("B(0,0;1) + 2*E(0,0;0) + Z", 3, ctx3)
    rep = mat.rep_of(D)
    assert mat.validate_rep(rep).passed
    rng = random.Random(17)
    failed = 0
    for _ in range(12):
        A = [list(r) for r in rep.matrix]
        i, j = rng.randrange(rep.n), rng.randrange(rep.n)
        A[i][j] += rng.choice((-2, -1, 1, 3))
        bad = mat.IntegerRep(rep.n, tuple(map(tuple, A)), D)
        failed += not _assert_matches_oracle(bad).passed
    # some changes keep every invariant (an off-block entry can leave the
    # order and type alone); most do not
    assert failed >= 6
    assert mat.rep_of(D) == rep
    assert mat.validate_rep(rep).passed
