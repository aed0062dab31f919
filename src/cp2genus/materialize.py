"""Integer matrix models of descriptors and the linear algebra behind them.

rep_of builds, for a descriptor with trivial ideal classes, an integer
matrix A with A^(p^2) = I realizing the action of g on Z^n, one block
per distinct summand: Z, b, c and Eb get the companion matrix of their
char poly (lattice.CYCLOTOMIC), and each extension block is the pushout
(Lambda + X) / <(i0(y), -f(y))>, where i0 embeds E = phi_{p^2}(g)Lambda
into Lambda = Z[x]/(x^{p^2}-1) and f: E -> X encodes the extension
class through the image of phi_{p^2}(g).  Quotient bases and induced
actions come from Smith normal form with tracked transforms.

ext_group gives Ext(S, X) = (Z/p)^(rank X) in closed form, and
validate_rep reads det(A) off the char poly it checks.

All arithmetic is exact over Python integers; matrices are plain nested
lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .abelian import AbGroup
from .errors import Cp2Error, InternalError, NontrivialClass
from .lattice import Faithfulness, LatticeDescriptor

IntMatrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# matrix utilities


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> IntMatrix:
    return [[0] * c for _ in range(r)]


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    if A and len(A[0]) != k:
        raise Cp2Error("matrix dimensions do not match")
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


def mat_vec(A: IntMatrix, v: list) -> list:
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_pow(A: IntMatrix, e: int) -> IntMatrix:
    result = identity(len(A))
    base = [row[:] for row in A]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def mat_eq(A: IntMatrix, B: IntMatrix) -> bool:
    return A == B


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


# ---------------------------------------------------------------------------
# Smith normal form


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


def _col_op(S, V, Vinv, i, j, T):
    a, b, c, d = T
    det = a * d - b * c
    for X in (S, V):
        for row in X:
            x, y = row[i], row[j]
            row[i] = a * x + c * y
            row[j] = b * x + d * y
    ia, ib, ic, id_ = d * det, -b * det, -c * det, a * det
    for col in range(len(Vinv[0])):
        x, y = Vinv[i][col], Vinv[j][col]
        Vinv[i][col] = ia * x + ib * y
        Vinv[j][col] = ic * x + id_ * y


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


def snf_full(M: IntMatrix):
    """(S, U, V, Uinv, Vinv) with U M V = S in Smith normal form.

    S is diagonal with d_1 | d_2 | ..., all entries >= 0; U and V are
    unimodular with the returned exact inverses.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    S = [row[:] for row in M]
    U, Uinv = identity(r), identity(r)
    V, Vinv = identity(c), identity(c)

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
                                _col_op(S, V, Vinv, k, j, (0, 1, 1, 0))
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
                    _col_op(S, V, Vinv, k, j, (x, z, y, w))
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
        _col_op(S, V, Vinv, viol, viol + 1, (1, 0, 1, 1))  # col k += col k+1
        for k in range(viol, min(r, c)):
            clear_at(k)
    # normalize signs
    for k in range(min(r, c)):
        if S[k][k] < 0:
            for X in (S, U):
                X[k] = [-v for v in X[k]]
            for row in Uinv:
                row[k] = -row[k]
    return S, U, V, Uinv, Vinv


def diagonal(S: IntMatrix) -> list:
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


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
    G_L = block_diag([companion(x_pow_minus_1(p * p)), G_X])

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

    S, U, _, Uinv, _ = snf_full(B)
    for i in range(p):
        if S[i][i] != 1:
            raise InternalError(
                "relation lattice is not a direct summand; "
                f"diagonal entry {S[i][i]} at {i}"
            )
    Gy = mat_mul(mat_mul(U, G_L), Uinv)
    for i in range(p, N):
        for j in range(p):
            if Gy[i][j] != 0:
                raise InternalError("relation lattice is not invariant under g")
    return [row[p:] for row in Gy[p:]]


@dataclass(frozen=True)
class IntegerRep:
    n: int
    matrix: tuple
    source: LatticeDescriptor


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
        if not mat_eq(mat_pow(b, p * p), identity(len(b))):
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


@dataclass(frozen=True)
class RepCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class RepReport:
    checks: tuple

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


def _order_from_powers(A: IntMatrix, Ap: IntMatrix, Ap2: IntMatrix, p: int) -> int:
    """The order of A given A^p and A^(p^2): 1, p or p^2, and 0 when it
    does not divide p^2."""
    I = identity(len(A))
    for order, M in ((1, A), (p, Ap), (p * p, Ap2)):
        if mat_eq(M, I):
            return order
    return 0


def multiplicative_order(A: IntMatrix, p: int) -> int:
    Ap = mat_pow(A, p)
    order = _order_from_powers(A, Ap, mat_pow(Ap, p), p)
    if not order:
        raise Cp2Error(f"matrix order does not divide {p * p}")
    return order


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
    """
    D = rep.source
    p = D.p
    A = rep.matrix
    n = rep.n
    power_ok, got, rank = True, [1], 0
    orders = []
    for comp in connected_components(A):
        B = [[A[i][j] for j in comp] for i in comp]
        I = identity(len(B))
        Bp = mat_pow(B, p)
        Bp2 = mat_pow(Bp, p)
        power_ok = power_ok and mat_eq(Bp2, I)
        orders.append(_order_from_powers(B, Bp, Bp2, p))
        got = polymul_z(got, charpoly(B))
        rank += mat_rank(mat_sub(B, I))
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
