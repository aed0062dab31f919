"""Descriptors for Z[C_{p^2}]-lattices as multisets of indecomposable summands.

The indecomposable kinds and their parameters:

    Z            the rank-one trivial lattice
    b(class)     an ideal of Z[zeta_p] in the given class
    c(class)     an ideal of Z[zeta_{p^2}] in the given class
    Eb(class)    the nonsplit extension of b by Z
    Ec(class)    the nonsplit extension of c by Z
    B(b,c;r,u)   extension of c by Eb with class l^r*u,      0 <= r <= p-1, u in U~_{p-r}
    C(b,c;r,u)   extension of c by Z+Eb with class 1+l^r*u,  1 <= r <= p-2, u in U~_{p-1-r}
    D(b,c;r,u)   like C but with an extra fixed non-residue factor n0
                 on the unit (only when p = 1 mod 4)
    E(b,c;r,u)   extension of c by b with class l^r*u,       0 <= r <= p-2, u in U~_{p-1-r}
    F(b,c;r,u)   extension of c by Z+b with class 1+l^r*u,   0 <= r <= p-2, u in U~_{p-1-r}

Each kind has a rational type (a, b, c) in CYCLOTOMIC: Q tensor L is
Q^a + Q(zeta_p)^b + Q(zeta_{p^2})^c and g has char poly Phi_1^a Phi_p^b
Phi_{p^2}^c.  Rank, fixed rank, class slots and faithfulness follow.

A descriptor is a prime p, a ClassData context, and a sorted tuple of
summands.  Everything downstream (genus vectors, the unit product u0,
the exponents r1/r2 and the derived index t, the sign Sigma, action
faithfulness) is read off the multiset here.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Optional

from . import modring
from .abelian import _add, reduce_element
from .classdata import ClassData
from .errors import Cp2Error, ParseError
from .modring import PolyMod
from .value import Value

# kind -> (a, b, c), the multiplicities of Q, Q(zeta_p) and Q(zeta_{p^2})
CYCLOTOMIC = {
    "Z": (1, 0, 0),
    "b": (0, 1, 0),
    "c": (0, 0, 1),
    "Eb": (1, 1, 0),
    "Ec": (1, 0, 1),
    "B": (1, 1, 1),
    "C": (2, 1, 1),
    "D": (2, 1, 1),
    "E": (0, 1, 1),
    "F": (1, 1, 1),
}
KINDS = tuple(CYCLOTOMIC)
_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}
EXTENSION_KINDS = ("B", "C", "D", "E", "F")


@lru_cache(maxsize=None)
def n0(p: int) -> int:
    """The smallest positive quadratic non-residue mod p (p odd)."""
    if p == 2:
        raise Cp2Error("n0 is undefined for p=2")
    residues = {pow(x, 2, p) for x in range(1, p)}
    return min(x for x in range(2, p) if x not in residues)


def unit_index(kind: str, r: int, p: int) -> int:
    """The m with u in U~_m for a summand of this kind and exponent."""
    return p - r if kind == "B" else p - 1 - r


def r_range(kind: str, p: int) -> range:
    if kind == "B":
        return range(0, p)
    if kind in ("C", "D"):
        return range(1, p - 1)
    return range(0, p - 1)  # E, F


class Summand(Value):
    """One indecomposable summand: kind is a key of CYCLOTOMIC, b and c
    class exponent tuples, r the exponent and u the PolyMod unit
    parameter; the fields a kind has no slot for are None (the default)."""

    __slots__ = ("kind", "b", "c", "r", "u")
    _defaults = {"b": None, "c": None, "r": None, "u": None}

    def sort_key(self):
        return (
            _KIND_ORDER[self.kind],
            self.r if self.r is not None else -1,
            self.u.coeffs if self.u is not None else (),
            self.b if self.b is not None else (),
            self.c if self.c is not None else (),
        )


_Z = Summand("Z")


class LatticeDescriptor(Value):
    """A prime p, its ClassData context and a sorted tuple of Summands."""

    __slots__ = ("p", "context", "summands")


def make_summand(
    p: int,
    context: ClassData,
    kind: str,
    b=None,
    c=None,
    r: Optional[int] = None,
    u=None,
    lenient: bool = False,
) -> Summand:
    """Validate and canonicalize one summand.

    Class exponents must lie in range for the configured groups (missing
    entries are zero).  For the extension kinds the unit u (a PolyMod or
    coefficient sequence; omitted means 1) must be the canonical U~
    representative of its coset; with lenient=True it is replaced by
    that representative silently instead of being rejected.
    """
    if kind not in KINDS:
        raise Cp2Error(f"unknown summand kind {kind!r}")
    if kind == "Z":
        return _Z
    if kind == "D" and p % 4 != 1:
        raise Cp2Error(f"type D summands require p = 1 (mod 4); p={p}")
    Hp, Hp2 = context.H_p.target, context.H_p2.target
    b = () if b is None else b
    c = () if c is None else c
    if kind in ("b", "Eb"):
        return Summand(kind, reduce_element(Hp, b), None, None, None)
    if kind in ("c", "Ec"):
        return Summand(kind, None, reduce_element(Hp2, c), None, None)
    # extension kinds B..F
    if r is None:
        raise Cp2Error(f"type {kind} needs an exponent r")
    rng = r_range(kind, p)
    if r not in rng:
        raise Cp2Error(
            f"type {kind} exponent r={r} out of range "
            f"[{rng.start}, {rng.stop - 1}] for p={p}"
        )
    m = unit_index(kind, r, p)
    quotient = context.unit_quotient(m)
    if isinstance(u, PolyMod):
        if u.p != p:
            raise Cp2Error(f"unit {u} has wrong characteristic for p={p}")
        if u.m != m and not lenient:
            raise Cp2Error(f"unit {u} should live in F_{p}[l]/(l^{m})")
        u = u.coeffs
    upoly = modring.one(p, m) if u is None else modring.poly(p, m, u, truncate=lenient)
    if not upoly.is_unit() or upoly.constant != 1:
        raise Cp2Error(f"unit parameter {upoly} must be = 1 (mod l)")
    rep = quotient.rep_of(upoly)
    if rep != upoly and not lenient:
        raise Cp2Error(
            f"unit {upoly} is not the canonical representative of its "
            f"coset (that is {rep}); re-run leniently to canonicalize"
        )
    return Summand(kind, reduce_element(Hp, b), reduce_element(Hp2, c), r, rep)


def descriptor(p: int, context: ClassData, summands) -> LatticeDescriptor:
    """Assemble a descriptor; summands are sorted so equal multisets compare equal."""
    if context.p != p:
        raise Cp2Error(f"class data is for p={context.p}, descriptor wants p={p}")
    ordered = tuple(sorted(summands, key=Summand.sort_key))
    return LatticeDescriptor(p, context, ordered)


def counts(D: LatticeDescriptor) -> dict[str, int]:
    out = {k: 0 for k in KINDS}
    for s in D.summands:
        out[s.kind] += 1
    return out


# ---------------------------------------------------------------------------
# invariant data read off the multiset


def rational_type(D: LatticeDescriptor) -> tuple[int, int, int]:
    """The summed CYCLOTOMIC type (a, b, c) of all summands."""
    a = b = c = 0
    for s in D.summands:
        da, db, dc = CYCLOTOMIC[s.kind]
        a, b, c = a + da, b + db, c + dc
    return a, b, c


def type_rank(a: int, b: int, c: int, p: int) -> int:
    """The Z-rank of a lattice of rational type (a, b, c)."""
    return a + b * (p - 1) + c * p * (p - 1)


def rank(D: LatticeDescriptor) -> int:
    return type_rank(*rational_type(D), D.p)


class GenusVector(Value):
    """The parameter tuple (a,b,c,d,e; beta,gamma,delta,eps,eta).

    a..e are ints and beta..eta int tuples.  d and e are cumulative:
    d = b + #Eb and e = c + #Ec.  beta is indexed
    by r in [0, p-1]; gamma and delta by r in [1, p-2]; eps and eta by
    r in [0, p-2].
    """

    __slots__ = ("a", "b", "c", "d", "e", "beta", "gamma", "delta", "eps", "eta")


def genus_vector(D: LatticeDescriptor) -> GenusVector:
    p = D.p
    n = counts(D)
    beta = [0] * p
    gamma = [0] * max(p - 2, 0)
    delta = [0] * max(p - 2, 0)
    eps = [0] * (p - 1)
    eta = [0] * (p - 1)
    for s in D.summands:
        if s.kind == "B":
            beta[s.r] += 1
        elif s.kind == "C":
            gamma[s.r - 1] += 1
        elif s.kind == "D":
            delta[s.r - 1] += 1
        elif s.kind == "E":
            eps[s.r] += 1
        elif s.kind == "F":
            eta[s.r] += 1
    return GenusVector(n["Z"], n["b"], n["c"], n["b"] + n["Eb"], n["c"] + n["Ec"],
                       tuple(beta), tuple(gamma), tuple(delta), tuple(eps), tuple(eta))


def u0(D: LatticeDescriptor) -> PolyMod:
    """Product of all unit parameters (with one n0 factor per type D
    summand), taken in F_p[l]/(l^p) via zero-padded lifts; 1 when there
    are no extension summands."""
    p = D.p
    acc = modring.one(p, p)
    for s in D.summands:
        if s.kind in EXTENSION_KINDS:
            acc = modring.poly_mul(acc, modring.lift_poly(s.u, p))
            if s.kind == "D":
                acc = modring.poly_mul(acc, modring.poly(p, p, (n0(p),)))
    return acc


def r1(D: LatticeDescriptor) -> int:
    rs = [s.r for s in D.summands if s.kind == "B"]
    return max(rs) if rs else 0


def r2(D: LatticeDescriptor) -> int:
    rs = [s.r for s in D.summands if s.kind in ("C", "D", "E", "F")]
    return max(rs) if rs else 0


def t_of(D: LatticeDescriptor) -> int:
    """The truncation index t steering which U_t the unit product lands in.

    Equals p - 1 - max(r2, r1 - 1) except for the special shape
    Z^a + (type B summands all with r = 0), where t = p.
    """
    n = counts(D)
    only_Z_and_B = all(s.kind in ("Z", "B") for s in D.summands)
    if n["B"] >= 1 and only_Z_and_B and r1(D) == 0:
        return D.p
    return D.p - 1 - max(r2(D), r1(D) - 1)


def sigma(D: LatticeDescriptor) -> int:
    """2 when the C/D part can flip its quadratic character inside the
    genus: p = 1 (mod 4), at least one C or D summand, and no summand of
    kind Z, Eb, Ec, B or F.  Otherwise 1."""
    if D.p % 4 != 1:
        return 1
    n = counts(D)
    if n["C"] + n["D"] == 0:
        return 1
    if n["Z"] + n["Eb"] + n["Ec"] + n["B"] + n["F"] > 0:
        return 1
    return 2


class Faithfulness:
    TRIVIAL = "TrivialAction"
    ORDER_P = "OrderP"
    FAITHFUL = "Faithful"


def faithfulness(D: LatticeDescriptor) -> str:
    _, b, c = rational_type(D)
    if c:
        return Faithfulness.FAITHFUL
    if b:
        return Faithfulness.ORDER_P
    return Faithfulness.TRIVIAL


def ideal_classes(D: LatticeDescriptor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The R- and S-ideal classes: sums of all b's and of all c's.

    make_summand (or a twist) has already reduced every class into its
    group, so the sums are taken without membership checks.
    """
    Hp, Hp2 = D.context.H_p.target, D.context.H_p2.target
    rc = Hp.identity()
    sc = Hp2.identity()
    for s in D.summands:
        if s.b is not None:
            rc = _add(Hp, rc, s.b)
        if s.c is not None:
            sc = _add(Hp2, sc, s.c)
    return rc, sc


def has_R_slot(D: LatticeDescriptor) -> bool:
    return rational_type(D)[1] > 0


def has_S_slot(D: LatticeDescriptor) -> bool:
    return rational_type(D)[2] > 0


# ---------------------------------------------------------------------------
# the descriptor DSL


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than the interpreter converts
                raise ParseError(f"number of {j - i} digits is too long", i) from None
            tokens.append(("NAT", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+*(),;:^":
            tokens.append(("SYM", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, p: int, context: ClassData, lenient: bool):
        self.text = text
        self.p = p
        self.context = context
        self.lenient = lenient
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, at = self.next()
        if kind != "SYM" or val != sym:
            raise ParseError(f"expected {sym!r}", at)
        return at

    def expect_nat(self) -> int:
        kind, val, at = self.next()
        if kind != "NAT":
            raise ParseError("expected a number", at)
        return val

    def parse(self) -> LatticeDescriptor:
        summands = self.parse_summand()
        while True:
            kind, val, at = self.peek()
            if kind == "SYM" and val == "+":
                self.next()
                summands.extend(self.parse_summand())
            elif kind == "END":
                break
            else:
                raise ParseError("expected '+' or end of input", at)
        return descriptor(self.p, self.context, summands)

    def parse_summand(self) -> list[Summand]:
        mult = 1
        kind, val, at = self.peek()
        if kind == "NAT":
            self.next()
            mult = val
            self.expect_sym("*")
            if mult < 1:
                raise ParseError("multiplicity must be >= 1", at)
            if mult > sys.maxsize:  # [s] * mult would raise OverflowError
                raise ParseError(f"multiplicity must be <= {sys.maxsize}", at)
        s = self.parse_atom()
        return [s] * mult

    def parse_atom(self) -> Summand:
        kind, name, at = self.next()
        if kind != "NAME":
            raise ParseError("expected a summand (Z, b, c, Eb, Ec, B, C, D, E, F)", at)
        if name == "Z":
            return _Z
        if name not in ("b", "c", "Eb", "Ec", "B", "C", "D", "E", "F"):
            raise ParseError(f"unknown summand kind {name!r}", at)
        self.expect_sym("(")
        first = self.parse_class()
        if name in ("b", "Eb"):
            self.expect_sym(")")
            return self._summand(name, b=first, at=at)
        if name in ("c", "Ec"):
            self.expect_sym(")")
            return self._summand(name, c=first, at=at)
        self.expect_sym(",")
        second = self.parse_class()
        self.expect_sym(";")
        r = self.expect_nat()
        u = None
        k, v, _ = self.peek()
        if k == "SYM" and v == ",":
            self.next()
            u = self.parse_unit()
        self.expect_sym(")")
        return self._summand(name, b=first, c=second, r=r, u=u, at=at)

    def _summand(self, kind, b=None, c=None, r=None, u=None, at=0) -> Summand:
        """make_summand, its errors reported at the summand's position."""
        try:
            return make_summand(self.p, self.context, kind, b, c, r, u, self.lenient)
        except Cp2Error as exc:
            raise ParseError(str(exc), at) from None

    def parse_class(self) -> tuple[int, ...]:
        vals = [self.expect_nat()]
        while True:
            kind, val, _ = self.peek()
            if kind == "SYM" and val == ":":
                self.next()
                vals.append(self.expect_nat())
            else:
                break
        return tuple(vals)

    def parse_unit(self) -> list[int]:
        """poly in l: term {+ term}, term = nat | [nat] 'l' ['^' nat].

        Returns the coefficients by degree, for make_summand to reduce
        and truncate.  Every unit lives in some F_p[l]/(l^m) with m <= p,
        so all degrees >= p are folded into one coefficient at degree p,
        nonzero exactly when one of them is nonzero mod p: a large
        exponent costs no memory.
        """
        coeffs: dict[int, int] = {}
        while True:
            coef = 1
            exp = 0
            kind, val, at = self.peek()
            if kind == "NAT":
                self.next()
                coef = val
            kind, val, at2 = self.peek()
            if kind == "NAME" and val == "l":
                self.next()
                exp = 1
                k2, v2, _ = self.peek()
                if k2 == "SYM" and v2 == "^":
                    self.next()
                    exp = self.expect_nat()
            elif kind == "NAME":
                raise ParseError(f"unexpected {val!r} in unit", at2)
            elif coef == 1 and self.tokens[self.pos - 1][0] != "NAT":
                raise ParseError("expected a unit term", at)
            coeffs[exp] = coeffs.get(exp, 0) + coef
            kind, val, _ = self.peek()
            if kind == "SYM" and val == "+":
                self.next()
                continue
            break
        p = self.p
        vec = [0] * (p + 1)
        for e, cf in coeffs.items():
            if e < p:
                vec[e] = cf
            elif cf % p:
                vec[p] = 1
        return vec


def parse(text: str, p: int, context: ClassData, lenient: bool = False) -> LatticeDescriptor:
    """Parse descriptor text such as "Z + 2*c(0) + B(0,0;1)".

    Units not written in canonical U~ form are rejected unless
    lenient=True, in which case they are canonicalized silently.
    """
    return _Parser(text, p, context, lenient).parse()


def _render_class(vec: tuple[int, ...]) -> str:
    return ":".join(str(v) for v in vec) if vec else "0"


def _render_unit(u: PolyMod) -> str:
    return str(u)


def render_summand(s: Summand) -> str:
    if s.kind == "Z":
        return "Z"
    if s.kind in ("b", "Eb"):
        return f"{s.kind}({_render_class(s.b)})"
    if s.kind in ("c", "Ec"):
        return f"{s.kind}({_render_class(s.c)})"
    base = f"{s.kind}({_render_class(s.b)},{_render_class(s.c)};{s.r}"
    if s.u is not None and s.u.constant == 1 and all(c == 0 for c in s.u.coeffs[1:]):
        return base + ")"
    return base + f",{_render_unit(s.u)})"


def render(D: LatticeDescriptor) -> str:
    """Canonical text form; parse(render(D)) == D."""
    if not D.summands:
        raise Cp2Error("the zero module has no textual form")
    parts = []
    i = 0
    ss = D.summands
    while i < len(ss):
        j = i
        while j < len(ss) and ss[j] == ss[i]:
            j += 1
        text = render_summand(ss[i])
        parts.append(text if j - i == 1 else f"{j - i}*{text}")
        i = j
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# JSON serialization (mirrors the summand union)


def summand_to_json(s: Summand) -> dict:
    out: dict = {"kind": s.kind}
    if s.b is not None:
        out["b"] = list(s.b)
    if s.c is not None:
        out["c"] = list(s.c)
    if s.r is not None:
        out["r"] = s.r
    if s.u is not None:
        out["u"] = list(s.u.coeffs)
    return out


def to_json(D: LatticeDescriptor) -> dict:
    return {"p": D.p, "summands": [summand_to_json(s) for s in D.summands]}


def from_json(obj: dict, context: ClassData, lenient: bool = False) -> LatticeDescriptor:
    p = int(obj["p"])
    summands = [
        make_summand(
            p,
            context,
            s["kind"],
            b=s.get("b"),
            c=s.get("c"),
            r=s.get("r"),
            u=s.get("u"),
            lenient=lenient,
        )
        for s in obj["summands"]
    ]
    return descriptor(p, context, summands)
