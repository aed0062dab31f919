"""Integer matrix models of descriptors and the linear algebra behind them.

rep_of builds, for a descriptor with trivial ideal classes, an integer
matrix A with A^(p^2) = I realizing the action of g on Z^n, one block
per distinct summand: Z, b, c and Eb get the companion matrix of their
char poly (lattice.CYCLOTOMIC), and each extension block is the pushout
(Lambda + X) / <(i0(y), -f(y))>, where i0 embeds E = phi_{p^2}(g)Lambda
into Lambda = Z[x]/(x^{p^2}-1) and f: E -> X encodes the extension
class through the image of phi_{p^2}(g).  Quotient bases and induced
actions come from Smith normal form with tracked transforms
(abelian.snf_full); only the rows of the transformed action that
survive in the quotient are formed.

ext_group gives Ext(S, X) = (Z/p)^(rank X) in closed form, and
validate_rep reads det(A) off the char poly it checks.  Matrix powers
(rep_of's A^(p^2) = I self-check, validate_rep's B^p and B^(p^2) per
connected component) are taken on sparse rows, since the blocks are
mostly zero.  A component with B^(p^2) = I is diagonalizable, because
x^(p^2) - 1 is squarefree over Q, so validate_rep reads its fixed rank
off the char poly as the multiplicity of the root 1; Smith normal form
computes rank(B - I) only for a component that fails the power check.

All arithmetic is exact over Python integers; matrices are plain nested
lists, and sparse rows are lists of {column: nonzero entry} dicts.
"""

from __future__ import annotations

from . import lattice
from .abelian import AbGroup, diagonal, identity, snf_full
from .errors import Cp2Error, InternalError, NontrivialClass
from .lattice import Faithfulness, LatticeDescriptor
from .value import Value, set_field

IntMatrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# matrix utilities


def zeros(r: int, c: int) -> IntMatrix:
    return [[0] * c for _ in range(r)]


def mat_vec(A: IntMatrix, v: list) -> list:
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def sparse_rows(A: IntMatrix) -> list:
    """A as sparse rows: row i is {j: A[i][j]} over the nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def sparse_mul(A: list, B: list) -> list:
    """The product of two matrices given as sparse rows, as sparse rows."""
    out = []
    for Ai in A:
        row = {}
        for t, a in Ai.items():
            for j, b in B[t].items():
                row[j] = row.get(j, 0) + a * b
        out.append({j: x for j, x in row.items() if x})
    return out


def sparse_pow(A: list, e: int) -> list:
    """A^e for A given as sparse rows, e >= 0.

    Squares from the most significant bit of e down and multiplies by A
    at each set bit, so no squaring goes unused.  A is not modified; for
    e = 1 the result is A itself.
    """
    if e == 0:
        return [{i: 1} for i in range(len(A))]
    result = A
    for bit in bin(e)[3:]:
        result = sparse_mul(result, result)
        if bit == "1":
            result = sparse_mul(result, A)
    return result


def is_identity(A: list) -> bool:
    """Whether the sparse rows A are those of the identity matrix."""
    return all(len(row) == 1 and row.get(i) == 1 for i, row in enumerate(A))


def block_diag(blocks: list) -> IntMatrix:
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row[:]
        at += len(b)
    return out


def companion(monic: list) -> IntMatrix:
    """Companion matrix of a monic polynomial given by ascending
    coefficients [c0, ..., c_{n-1}, 1]."""
    if monic[-1] != 1:
        raise Cp2Error("companion needs a monic polynomial")
    n = len(monic) - 1
    M = zeros(n, n)
    for i in range(1, n):
        M[i][i - 1] = 1
    for i in range(n):
        M[i][n - 1] = -monic[i]
    return M


def mat_rank(M: IntMatrix) -> int:
    if not M or not M[0]:
        return 0
    return sum(1 for d in diagonal(snf_full(M)[0]) if d != 0)


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient lists)


def polymul_z(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def phi_p(p: int) -> list:
    return [1] * p


def phi_p2(p: int) -> list:
    out = [0] * (p * (p - 1) + 1)
    for i in range(p):
        out[i * p] = 1
    return out


def x_pow_minus_1(n: int) -> list:
    return [-1] + [0] * (n - 1) + [1]


def cyclotomic_product(p: int, a: int, b: int, c: int) -> list:
    """Phi_1^a Phi_p^b Phi_{p^2}^c, the characteristic polynomial of g on
    a lattice of rational type (a, b, c)."""
    poly = [1]
    for factor, e in (([-1, 1], a), (phi_p(p), b), (phi_p2(p), c)):
        for _ in range(e):
            poly = polymul_z(poly, factor)
    return poly


def type_block(p: int, kind: str) -> IntMatrix:
    """The companion matrix of the kind's characteristic polynomial."""
    return companion(cyclotomic_product(p, *lattice.CYCLOTOMIC[kind]))


# ---------------------------------------------------------------------------
# building blocks


# the coefficient modules Z, R = Z[zeta_p] and E = Z[C_p] are the
# lattices of kinds Z, b and Eb
_COMPONENT_KIND = {"Z": "Z", "R": "b", "E": "Eb"}


def _component(p: int, name: str) -> IntMatrix:
    """The action of g on a coefficient module."""
    return type_block(p, _COMPONENT_KIND[name])


_X_OF_KIND = {
    "Ec": ("Z",),
    "B": ("E",),
    "C": ("Z", "E"),
    "D": ("Z", "E"),
    "E": ("R",),
    "F": ("Z", "R"),
}


def _f0_vector(p: int, s) -> list:
    """The image of phi_{p^2}(g) under f: E -> X for the summand's class."""
    parts = []
    for name in _X_OF_KIND[s.kind]:
        if name == "Z":
            parts.append([1])
            continue
        G = _component(p, name)
        rank = len(G)
        lam_mat = mat_sub(G, identity(rank))
        # w = sum u_j (g-1)^j applied to 1, then another r applications of (g-1)
        vec = [0] * rank
        basis = [1] + [0] * (rank - 1)
        power = basis[:]
        for coef in s.u.coeffs:
            if coef:
                vec = [v + coef * w for v, w in zip(vec, power)]
            power = mat_vec(lam_mat, power)
        for _ in range(s.r):
            vec = mat_vec(lam_mat, vec)
        if s.kind == "D":
            nn = lattice.n0(p)
            vec = [nn * v for v in vec]
        parts.append(vec)
    out = []
    for part in parts:
        out.extend(part)
    return out


def _pushout_block(p: int, s) -> IntMatrix:
    """Action of g on (Lambda + X) / <(i0(y), -f(y)) : y in E>."""
    G_X = block_diag([_component(p, c) for c in _X_OF_KIND[s.kind]])
    N = p * p + len(G_X)
    G_L = sparse_rows(block_diag([companion(x_pow_minus_1(p * p)), G_X]))

    f0 = _f0_vector(p, s)
    # columns (i0(g^j * e), -g^j * f0), j = 0..p-1
    cols = []
    fj = f0
    for j in range(p):
        col = [0] * N
        for i in range(p):
            col[i * p + j] = 1
        for i, v in enumerate(fj):
            col[p * p + i] = -v
        cols.append(col)
        fj = mat_vec(G_X, fj)
    B = [[cols[j][i] for j in range(p)] for i in range(N)]

    S, U, _, Uinv = snf_full(B)
    for i in range(p):
        if S[i][i] != 1:
            raise InternalError(
                "relation lattice is not a direct summand; "
                f"diagonal entry {S[i][i]} at {i}"
            )
    # in the basis U^-1 the first p vectors span the relations, so the
    # quotient's action is rows and columns p..N-1 of U G_L U^-1; rows
    # 0..p-1 would only be dropped
    Gy = sparse_mul(sparse_mul(sparse_rows(U[p:]), G_L), sparse_rows(Uinv))
    if any(j < p for row in Gy for j in row):
        raise InternalError("relation lattice is not invariant under g")
    return [[row.get(j, 0) for j in range(p, N)] for row in Gy]


class IntegerRep(Value):
    __slots__ = ("n", "matrix", "source")

    def __init__(self, n: int, matrix: tuple, source: LatticeDescriptor):
        set_field(self, "n", n)
        set_field(self, "matrix", matrix)
        set_field(self, "source", source)


def _is_trivial_class(vec) -> bool:
    return vec is None or all(v == 0 for v in vec)


def rep_of(D: LatticeDescriptor) -> IntegerRep:
    """Materialize a trivial-class descriptor as an integer matrix."""
    p = D.p
    for s in D.summands:
        if not (_is_trivial_class(s.b) and _is_trivial_class(s.c)):
            raise NontrivialClass(
                "matrix models are built for trivial ideal classes only"
            )
    # A^(p^2) = I holds on a block-diagonal matrix exactly when it holds
    # on every block, so each distinct summand is built and checked once
    blocks = {}
    for s in D.summands:
        if s in blocks:
            continue
        b = _pushout_block(p, s) if s.kind in _X_OF_KIND else type_block(p, s.kind)
        if not is_identity(sparse_pow(sparse_rows(b), p * p)):
            raise InternalError("built matrix does not satisfy A^(p^2) = I")
        blocks[s] = b
    A = block_diag([blocks[s] for s in D.summands]) if D.summands else []
    return IntegerRep(len(A), tuple(tuple(row) for row in A), D)


# ---------------------------------------------------------------------------
# Ext groups


_EXT_MODULES = ("Z", "R", "E", "Z+R", "Z+E")


def ext_group(x_name: str, p: int) -> AbGroup:
    """Ext(S, X) as the cokernel of Hom(Lambda, X) -> Hom(E, X).

    Hom(Lambda, X) is X itself.  E = phi_{p^2}(g)Lambda is cyclic with
    annihilator (g^p - 1), and g^p acts trivially on every coefficient
    module X, so Hom(E, X) is X too and the restriction map is
    multiplication by phi_{p^2}(g) = 1 + g^p + ... + g^(p(p-1)) = p.
    The cokernel is X/pX = (Z/p)^(rank X).
    """
    if x_name not in _EXT_MODULES:
        raise Cp2Error(f"unsupported coefficient module {x_name!r}")
    rank = sum(
        lattice.type_rank(*lattice.CYCLOTOMIC[_COMPONENT_KIND[c]], p)
        for c in x_name.split("+")
    )
    return AbGroup((p,) * rank)


# ---------------------------------------------------------------------------
# validation


class RepCheck(Value):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


class RepReport(Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        set_field(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def charpoly(A: IntMatrix) -> list:
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Division-free (Berkowitz), exact over Z.  Step i multiplies the
    polynomial of the leading i x i submatrix B by the Toeplitz column
    (1, -a, -R C, -R B C, ..., -R B^(i-1) C), where a = A[i][i] and R, C
    are row i and column i up to the diagonal.  B, R and C are kept as
    their nonzero entries only.
    """
    n = len(A)
    coeffs = [1]  # descending while building
    rows = []  # rows[r]: the nonzero (j, A[r][j]) with j < i
    for i in range(n):
        Ai = A[i]
        R = [(j, x) for j, x in enumerate(Ai[:i]) if x]
        v = [A[r][i] for r in range(i)]
        t = [1, -Ai[i]]
        if R and any(v):
            for k in range(i):
                if k:
                    v = [sum(x * v[j] for j, x in row) for row in rows]
                t.append(-sum(x * v[j] for j, x in R))
        new = coeffs + [0]
        for j in range(1, len(t)):
            tj = t[j]
            if tj:
                for d, c in enumerate(coeffs[: i + 2 - j], j):
                    new[d] += tj * c
        coeffs = new
        # extend the sparse rows to the leading (i + 1) x (i + 1) submatrix
        for r in range(i):
            if A[r][i]:
                rows[r].append((i, A[r][i]))
        rows.append(R + [(i, Ai[i])] if Ai[i] else R)
    return list(reversed(coeffs))


def predicted_charpoly(D: LatticeDescriptor) -> list:
    return cyclotomic_product(D.p, *lattice.rational_type(D))


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


def connected_components(A: IntMatrix) -> list:
    """The connected components of A as ascending index lists, ordered by
    their smallest index: i and j are joined when A[i][j] or A[j][i] is
    nonzero.  Permuting rows and columns alike so that each component is
    contiguous makes A block-diagonal."""
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


def validate_rep(rep: IntegerRep) -> RepReport:
    """Check the matrix model against everything the descriptor predicts.

    The checks run per connected component of A, found from A itself, so
    any IntegerRep is checked, not only the block structure rep_of built.
    Each invariant of the block-diagonal form is exact: A^(p^2) = I on
    every block, the char poly is the product over blocks, the order is
    the lcm of the block orders (0 if any fails to divide p^2), and
    rank(A - I) is the sum of the block ranks.  det(A) is
    (-1)^n charpoly(A)(0).

    Powers are taken on sparse rows.  A block B with B^(p^2) = I has a
    minimal polynomial dividing x^(p^2) - 1, which is squarefree over Q,
    so B is diagonalizable over C and dim ker(B - I) is the multiplicity
    of the root 1 in its char poly.  Only a block failing the power check
    has rank(B - I) computed by Smith normal form.
    """
    D = rep.source
    p = D.p
    A = rep.matrix
    n = rep.n
    power_ok, got, rank = True, [1], 0
    orders = []
    for comp in connected_components(A):
        B = [[A[i][j] for j in comp] for i in comp]
        Bs = sparse_rows(B)
        Bp = sparse_pow(Bs, p)
        Bp2 = sparse_pow(Bp, p)
        semisimple = is_identity(Bp2)
        power_ok = power_ok and semisimple
        orders.append(next(
            (order for order, M in ((1, Bs), (p, Bp), (p * p, Bp2)) if is_identity(M)), 0))
        chi = charpoly(B)
        got = polymul_z(got, chi)
        if semisimple:
            rank += len(B) - root_one_multiplicity(chi)
        else:
            rank += mat_rank(mat_sub(B, identity(len(B))))
    det = (-1) ** len(A) * got[0]
    checks = []

    checks.append(RepCheck("power_identity", power_ok, f"A^{p*p} == I: {power_ok}"))

    checks.append(RepCheck("unimodular", abs(det) == 1, f"det(A) = {det}"))

    expected_order = {
        Faithfulness.TRIVIAL: 1,
        Faithfulness.ORDER_P: p,
        Faithfulness.FAITHFUL: p * p,
    }[lattice.faithfulness(D)]
    order = 0 if 0 in orders else max(orders, default=1)
    checks.append(
        RepCheck(
            "order",
            order == expected_order,
            f"order(A) = {order}, expected {expected_order}",
        )
    )

    want = predicted_charpoly(D)
    checks.append(
        RepCheck("char_poly", got == want, f"char poly matches prediction: {got == want}")
    )

    expected_fixed = lattice.rational_type(D)[0]
    fixed = n - rank
    checks.append(
        RepCheck(
            "fixed_rank",
            fixed == expected_fixed,
            f"rank ker(A - I) = {fixed}, expected {expected_fixed}",
        )
    )
    return RepReport(tuple(checks))
