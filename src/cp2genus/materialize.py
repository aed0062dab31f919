"""Integer matrix models of descriptors and the linear algebra behind them.

rep_of builds, for a descriptor with trivial ideal classes, an integer
matrix A with A^(p^2) = I realizing the action of g on Z^n, one block
per distinct summand: Z, b, c and Eb get the companion matrix of their
char poly (lattice.CYCLOTOMIC), and each extension block is the pushout
(Lambda + X) / <(i0(y), -f(y))>, where i0 embeds E = phi_{p^2}(g)Lambda
into Lambda = Z[x]/(x^{p^2}-1) and f: E -> X encodes the extension
class through the image of phi_{p^2}(g).  The relation matrix is
[[I_p], [C]], so U = [[I, 0], [-C, I]] gives the quotient basis in
closed form (no Smith normal form), and the quotient action is
Q = G22 - C G12 for the action G split at index p.  G_L is a cyclic
shift, so G12 is a single 1 and Q is G22 with one column replaced by
-C[:, 0]; the block is written down directly as sparse rows.

ext_group gives Ext(S, X) = (Z/p)^(rank X) in closed form.  Matrix
powers (B^p and B^(p^2) per distinct block) are taken on sparse rows,
since the blocks are mostly zero.  A block with B^(p^2) = I is
diagonalizable, because x^(p^2) - 1 is squarefree over Q, so its
rational type (a, b, c), and with it the char poly
Phi_1^a Phi_p^b Phi_{p^2}^c and the fixed rank a, comes from tr B and
tr B^p.  validate_rep then checks the char poly by comparing the summed
type with the descriptor's (the three cyclotomic factors are distinct
irreducibles), and det(A) = (-1)^(n + a).  Berkowitz charpoly and the
Smith invariants (abelian.snf, which keeps no transforms) run only on a
block that fails the power check.

Two bounded memos keep repeated work out of a process.  The blocks are
memoized by summand (_summand_block), since a block depends only on
(p, summand), so rep_of builds and self-checks each distinct summand
once.  The block types are memoized by content (_component_type), keyed
by the block's dense rows, the one form both rep_of's blocks and
validate_rep's slices of A take, so a model built and then validated
powers each distinct block once.  The types stay keyed by content
because validate_rep checks any matrix, not only rep_of's: it takes the
partition of A from the descriptor's summands, proves with C-level
zero counts per row that no entry lies outside its block, and merges
the blocks a stray entry joins (_diagonal_blocks).

All arithmetic is exact over Python integers; matrices are plain nested
lists, and sparse rows are lists of {column: nonzero entry} dicts.
"""

from __future__ import annotations

import functools
from itertools import compress, count

from . import lattice
from .abelian import AbGroup, snf
from .errors import Cp2Error, InternalError, NontrivialClass
from .lattice import Faithfulness, LatticeDescriptor
from .value import Value

IntMatrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# matrix utilities


def zeros(r: int, c: int) -> IntMatrix:
    return [[0] * c for _ in range(r)]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A: IntMatrix, v: list) -> list:
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_sub(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def sparse_rows(A: IntMatrix) -> list:
    """A as sparse rows: row i is {j: A[i][j]} over the nonzero entries,
    in ascending column order.

    compress(count(), row) yields the columns of the truthy entries in
    C, so the Python-level work is proportional to the nonzero entries,
    not to the n^2 entries read.
    """
    return [{j: row[j] for j in compress(count(), row)} for row in A]


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
    return sum(1 for d in snf(M) if d)


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


def _pushout_block(p: int, s) -> list:
    """Action of g on (Lambda + X) / <(i0(y), -f(y)) : y in E>, as sparse
    rows with ascending columns.

    The relations are the columns (i0(g^j e), -g^j f0), j = 0..p-1, of
    an N x p matrix [[I_p], [C]]: i0(g^j e) has its ones in the rows
    i p + j, so rows 0..p-1 are the identity.  Subtracting C times them
    from the other rows is the unimodular U = [[I, 0], [-C, I]], with
    U [[I_p], [C]] = [[I_p], [0]] and U^-1 = [[I, 0], [C, I]].  In the
    basis U^-1 the first p vectors span the relations.  With the action
    G = G_L + G_X split at index p into G11, G12, G21 and G22, rows
    p..N-1 of U G U^-1 are [(G21 - C G11) + Q C, Q] with Q = G22 - C G12:
    Q is the action on the quotient, and the left part vanishes exactly
    when the relations are g-invariant.

    G_L is the cyclic shift e_q -> e_(q+1 mod p^2), so G12 is a single 1
    at (0, p^2 - 1 - p) and G22 has no entry in that column: Q is G22 with
    column p^2 - 1 - p set to -C[:, 0], which is -1 in the rows q = 0
    (mod p) with p <= q < p^2 and f0 in the rows of X.
    """
    GX = []  # G_X as sparse rows, one companion block per module
    for name in _X_OF_KIND[s.kind]:
        at = len(GX)
        GX += [{at + j: x for j, x in row.items()} for row in sparse_rows(_component(p, name))]
    fs = [_f0_vector(p, s)]  # g^j f0, j = 0..p-1
    for _ in range(1, p):
        f = fs[-1]
        fs.append([sum(x * f[j] for j, x in row.items()) for row in GX])
    # C as sparse rows: row q - p is e_(q mod p) for q < p^2, and row
    # p^2 - p + t holds -(g^j f0)_t in column j
    C = [{q % p: 1} for q in range(p, p * p)]
    C += [{j: -f[t] for j, f in enumerate(fs) if f[t]} for t in range(len(GX))]

    top, shift = p * p - 1 - p, p * p - p
    Q = []
    for q in range(p, p * p):
        row = {q - 1 - p: 1} if q > p else {}
        if q % p == 0:
            row[top] = -1
        Q.append(row)
    for g_row, f_t in zip(GX, fs[0]):
        row = {top: f_t} if f_t else {}
        row.update((shift + j, x) for j, x in g_row.items())
        Q.append(row)

    # G21 is e_(p-1) in row 0, and G11 moves column i of C to i - 1
    for r, row in enumerate(Q):
        left = {p - 1: 1} if r == 0 else {}
        for i, c in C[r].items():
            if i:
                left[i - 1] = left.get(i - 1, 0) - c
        for j, x in row.items():
            for k, c in C[j].items():
                left[k] = left.get(k, 0) + x * c
        if any(left.values()):
            raise InternalError("relation lattice is not invariant under g")
    return Q


class IntegerRep(Value):
    """The n x n integer matrix (a tuple of int rows) of g on the lattice
    of the LatticeDescriptor source."""

    __slots__ = ("n", "matrix", "source")


def _is_trivial_class(vec) -> bool:
    return vec is None or all(v == 0 for v in vec)


# The bound of both memos (_summand_block and _component_type).  The
# blocks of rep_of's models are indecomposables: with trivial class data
# there are 62 at p <= 5 and 269 at p = 7, each with at most p^2 + 1 rows.
# 128 entries hold every block at p <= 5 and a working set at p = 7, and
# bound how many arbitrary (possibly dense) blocks of validated matrices
# stay pinned.  Both memos hold blocks as tuples of dense rows, at most
# about 29 KB at p = 7; a type memo entry made by _summand_block shares
# its key with that memo's value, so the two stay under 4 MB together.
_TYPE_MEMO_SIZE = 128

# The largest lattice rank n that rep_of models: its dense n x n matrix
# takes about 45 MB at n = 2000, and would take about 80 GB for 100000*Z.
MAX_MODEL_RANK = 2000


@functools.lru_cache(maxsize=_TYPE_MEMO_SIZE)
def _summand_block(p: int, s) -> tuple:
    """The block of the trivial-class summand s, as a tuple of dense rows.

    A block depends only on (p, s), so it is memoized (at most
    _TYPE_MEMO_SIZE entries) and rep_of builds each distinct summand once
    per process.  The A^(p^2) = I self-check runs here, once per build,
    through _component_type, which validate_rep also calls on the same
    dense rows: validating a model rep_of built powers no block again.
    lru_cache does not cache exceptions, so a summand whose relation
    lattice fails the invariance check, or whose block fails the power
    check, raises InternalError on every call.
    """
    sparse = (_pushout_block(p, s) if s.kind in _X_OF_KIND
              else sparse_rows(type_block(p, s.kind)))
    m = len(sparse)
    rows = []
    for entries in sparse:
        row = [0] * m
        for j, x in entries.items():
            row[j] = x
        rows.append(tuple(row))
    rows = tuple(rows)
    if _component_type(p, rows)[0] == 0:
        raise InternalError("built matrix does not satisfy A^(p^2) = I")
    return rows


def rep_of(D: LatticeDescriptor) -> IntegerRep:
    """Materialize a trivial-class descriptor as an n x n integer matrix,
    n = rank(D).  An n above MAX_MODEL_RANK raises Cp2Error before any
    row is built.

    The blocks come from the memo _summand_block, which checks
    B^(p^2) = I on each block it builds; A^(p^2) = I holds on a
    block-diagonal matrix exactly when it holds on every block.
    """
    p = D.p
    for s, _ in D.summands:
        if not (_is_trivial_class(s.b) and _is_trivial_class(s.c)):
            raise NontrivialClass(
                "matrix models are built for trivial ideal classes only"
            )
    n = lattice.rank(D)
    if n > MAX_MODEL_RANK:
        raise Cp2Error(f"input too large: a matrix model of lattice rank {n}, "
                       f"at most {MAX_MODEL_RANK}")
    blocks = [(_summand_block(p, s), copies) for s, copies in D.summands]
    matrix, at = [], 0
    for rows, copies in blocks:  # one diagonal block per copy
        for _ in range(copies):
            left, right = (0,) * at, (0,) * (n - at - len(rows))
            matrix.extend(left + row + right for row in rows)
            at += len(rows)
    return IntegerRep(n, tuple(matrix), D)


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
    """One named check of validate_rep: ok is a bool, detail a string."""

    __slots__ = ("name", "ok", "detail")


class RepReport(Value):
    """The tuple of RepChecks of one validate_rep call."""

    __slots__ = ("checks",)

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


def _diagonal_blocks(A, n: int, D: LatticeDescriptor) -> list:
    """[(lo, hi, B)]: A is block-diagonal with the blocks
    B = A[lo:hi][lo:hi] (a tuple of row slices), which tile 0..n-1.

    The partition starts from the descriptor's summands: the cumulative
    ranks of every copy in D.summands order, cut off at n.  A row is
    proved to have no entry outside its block by two C-level counts,
    row.count(0) minus the block row's count(0) being n - m.  A row that
    has one merges every block its span (first to last nonzero column,
    from one compress scan of that row) meets; merged blocks are sliced
    again.  So each block is a union of connected components of A, for
    any square A.
    """
    cuts, at = [0], 0
    for s, copies in D.summands:
        size = lattice.type_rank(*lattice.CYCLOTOMIC[s.kind], D.p)
        cuts += range(at + size, min(at + copies * size + 1, n), size)
        at += copies * size
    cuts.append(n)
    out = []  # [lo, hi, B or None], by ascending lo
    for lo, hi in zip(cuts, cuts[1:]):
        rows = A[lo:hi]
        B = tuple(row[lo:hi] for row in rows)
        start, end, outside = lo, hi, n - hi + lo
        for row, b in zip(rows, B):
            if row.count(0) - b.count(0) != outside:
                cols = list(compress(count(), row))
                start, end = min(start, cols[0]), max(end, cols[-1] + 1)
        if (start, end) != (lo, hi):
            B = None
        while out and out[-1][1] > start:
            prev_lo, prev_hi, _ = out.pop()
            start, end, B = min(start, prev_lo), max(end, prev_hi), None
        out.append([start, end, B])
    return [(lo, hi, B if B is not None else tuple(row[lo:hi] for row in A[lo:hi]))
            for lo, hi, B in out]


@functools.lru_cache(maxsize=_TYPE_MEMO_SIZE)
def _component_type(p: int, B: tuple) -> tuple:
    """(order, (a, b, c), chi, fixed rank) of the square block B, a tuple
    of dense rows (tuples).

    When B^(p^2) = I, B is diagonalizable with p^2-th roots of unity as
    eigenvalues, and its char poly is rational, so it is
    Phi_1^a Phi_p^b Phi_{p^2}^c.  The primitive p-th roots sum to -1
    and the primitive p^2-th ones to 0, so tr B = a - b and
    tr B^p = a + (p - 1) b - p c, while n = a + (p - 1) b + p (p - 1) c;
    solving gives (a, b, c), and the fixed rank is a.  chi is then [1].
    Any other B has order 0, type (0, 0, 0), its Berkowitz char poly as
    chi and rank(B - I), the number of its nonzero Smith invariants.

    The result depends only on the content of (p, B), so it is memoized
    (at most _TYPE_MEMO_SIZE entries): _summand_block's self-check and a
    later validate_rep of the same blocks take B^p and B^(p^2) once.
    Callers share the returned value and must not mutate chi.
    """
    n = len(B)
    Bs = sparse_rows(B)
    Bp = sparse_pow(Bs, p)
    Bp2 = sparse_pow(Bp, p)
    for order, M in ((1, Bs), (p, Bp), (p * p, Bp2)):
        if is_identity(M):
            break
    else:
        fixed = n - mat_rank(mat_sub(B, identity(n)))
        return 0, (0, 0, 0), charpoly(B), fixed
    tr1 = sum(row[i] for i, row in enumerate(B))
    trp = sum(row.get(i, 0) for i, row in enumerate(Bp))
    c, rc = divmod(n - trp, p * p)
    b, rb = divmod(n - p * (p - 1) * c - tr1, p)
    a = tr1 + b
    if rc or rb or min(a, b, c) < 0:
        raise InternalError(
            f"traces {tr1}, {trp} of a component with B^{p * p} = I "
            "give no rational type"
        )
    return order, (a, b, c), [1], a


def validate_rep(rep: IntegerRep) -> RepReport:
    """Check the matrix model against everything the descriptor predicts.

    A matrix that is not n x n is a Cp2Error.  The checks run per
    diagonal block of A along the descriptor's summands
    (_diagonal_blocks): every entry of A is read on every call, and
    blocks that an entry joins are merged, so any square matrix is
    checked, not only one rep_of built.  Each invariant of the
    block-diagonal form is exact: A^(p^2) = I on every block, the char
    poly is the product over blocks, the order is the lcm of the block
    orders (0 if any fails to divide p^2), and rank(A - I) is the sum of
    the block ranks.  det(A) is (-1)^n charpoly(A)(0).

    Powers are taken on sparse rows.  A block with B^(p^2) = I gets its
    rational type, and so its char poly and fixed rank, from tr B and
    tr B^p (_component_type, memoized by the block's dense rows, so the
    blocks of a model from rep_of are not powered again, and each call
    hashes each block once); when every block passes, the char poly
    check compares the summed type with the descriptor's.  Only a block
    failing the power check runs Berkowitz and the Smith invariants
    (mat_rank), and then the char polys are multiplied out and compared.
    """
    D = rep.source
    p = D.p
    A, n = rep.matrix, rep.n
    if len(A) != n or set(map(len, A)) - {n}:
        raise Cp2Error(f"the matrix of g is not {n} x {n}")
    if set(map(type, A)) - {tuple}:
        A = tuple(map(tuple, A))  # the blocks are memo keys
    total, chis, fixed, orders = [0, 0, 0], [], 0, []
    for _, _, B in _diagonal_blocks(A, n, D):
        order, abc, chi, fixed_B = _component_type(p, B)
        orders.append(order)
        total = [x + y for x, y in zip(total, abc)]
        chis.append(chi)
        fixed += fixed_B
    power_ok = 0 not in orders
    predicted = lattice.rational_type(D)
    if power_ok:
        # every chi is [1], so charpoly(A) = Phi_1^a Phi_p^b Phi_{p^2}^c
        # for the summed type; the three are distinct irreducibles, so it
        # equals the prediction exactly when the exponents do
        char_ok = tuple(total) == predicted
        det = (-1) ** (n + total[0])  # Phi_1(0) = -1, the others 1
    else:
        got = cyclotomic_product(p, *total)
        for chi in chis:
            got = polymul_z(got, chi)
        char_ok = got == predicted_charpoly(D)
        det = (-1) ** n * got[0]
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

    checks.append(
        RepCheck("char_poly", char_ok, f"char poly matches prediction: {char_ok}")
    )

    expected_fixed = predicted[0]
    checks.append(
        RepCheck(
            "fixed_rank",
            fixed == expected_fixed,
            f"rank ker(A - I) = {fixed}, expected {expected_fixed}",
        )
    )
    return RepReport(tuple(checks))
