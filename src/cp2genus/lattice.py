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

A descriptor is a prime p, a ClassData context, and a multiset of
summands: one (summand, multiplicity) pair per distinct summand, sorted
by Summand.sort_key, so "Z + Z" and "2*Z" are one descriptor.  Every
fact downstream (rank, faithfulness, genus vector, u0, the index t, the
sign Sigma, ideal classes, which invariants apply) is read off the pairs
here: no cost grows with a multiplicity.  The shape is derived once per
descriptor, on first use, into one kept Shape record (the read-only
per-kind count, the rational type and t), and every shape reader here
reads that record.  Only the JSON summand lists and the matrix models
of materialize list every copy, and to_json refuses more than
MAX_LISTED_COPIES of them.
"""

from __future__ import annotations

import sys
from functools import cached_property, lru_cache
from types import MappingProxyType
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
_ZERO_COUNTS = dict.fromkeys(KINDS, 0)
_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}
EXTENSION_KINDS = ("B", "C", "D", "E", "F")
# the most summand copies to_json lists: a million took 2.9 s and 369 MB
# as indented JSON
MAX_LISTED_COPIES = 100_000


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


class Shape(Value):
    """The shape facts of a descriptor: counts the read-only {kind: number
    of summands of that kind, copies included}, rational_type the summed
    CYCLOTOMIC type (a, b, c) and t the index of t_of."""

    __slots__ = ("counts", "rational_type", "t")


class LatticeDescriptor(Value):
    """A prime p, its ClassData context and a sorted tuple of
    (Summand, multiplicity >= 1) pairs, each summand once.  Equality,
    hash, repr and pickling read these three fields only; the shape and
    the moving coordinates are kept on first use."""

    __slots__ = ("p", "context", "summands", "__dict__")

    @cached_property
    def shape(self) -> Shape:
        """The Shape, from one pass over the pairs.

        t is p - 1 - max(r2, r1 - 1), r1 and r2 the largest r of a type B
        and of a type C, D, E or F summand (0 if none), except for the
        special shape Z^a + (type B summands all with r = 0), where t = p.
        """
        n = _ZERO_COUNTS.copy()
        r1 = r2 = 0
        for s, k in self.summands:
            n[s.kind] += k
            if s.r is None:
                continue
            if s.kind == "B":
                r1 = max(r1, s.r)
            else:
                r2 = max(r2, s.r)
        a = b = c = 0
        for kind, k in n.items():
            if k:
                da, db, dc = CYCLOTOMIC[kind]
                a, b, c = a + k * da, b + k * db, c + k * dc
        p = self.p
        if n["B"] and n["Z"] + n["B"] == sum(n.values()) and r1 == 0:
            t = p
        else:
            t = p - 1 - max(r2, r1 - 1)
        return Shape(MappingProxyType(n), (a, b, c), t)

    @cached_property
    def moving_coordinates(self) -> tuple[str, ...]:
        """The IsoInvariants fields whose coordinate sets G(p^2) moves in
        the genus, in field order.

        A class coordinate ranges over its whole class group exactly when
        some summand carries the ideal slot.  The u0 coset ranges over
        U_t exactly when the coset invariant applies and an extension
        summand is present, and the quadratic character takes both signs
        exactly when sigma = 2.  Every other field of the invariants is a
        single value every ring map fixes: the identity class, one sign,
        or u0 = 1 on a sum of Z's.
        """
        _, R_slot, S_slot = self.shape.rational_type
        u0_live = u0_coset_applies(self) and any(
            self.shape.counts[k] for k in EXTENSION_KINDS)
        return tuple(name for name, live in (
            ("R_class", R_slot), ("S_class", S_slot), ("u0_class", u0_live),
            ("quad_char", sigma(self) == 2)) if live)


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
    """Assemble a descriptor from (Summand, multiplicity) pairs; repeats are
    merged and the pairs sorted, so equal multisets compare equal."""
    if context.p != p:
        raise Cp2Error(f"class data is for p={context.p}, descriptor wants p={p}")
    pairs: list[tuple[Summand, int]] = []
    for s, n in sorted(summands, key=lambda pair: pair[0].sort_key()):
        if pairs and pairs[-1][0] == s:  # equal summands sort next to each other
            n += pairs.pop()[1]
        pairs.append((s, n))
    return LatticeDescriptor(p, context, tuple(pairs))


def counts(D: LatticeDescriptor) -> MappingProxyType:
    """The read-only number of summands of each kind, copies included."""
    return D.shape.counts


# ---------------------------------------------------------------------------
# invariant data read off the multiset


def rational_type(D: LatticeDescriptor) -> tuple[int, int, int]:
    """The summed CYCLOTOMIC type (a, b, c) of all summands."""
    return D.shape.rational_type


def type_rank(a: int, b: int, c: int, p: int) -> int:
    """The Z-rank of a lattice of rational type (a, b, c)."""
    return a + b * (p - 1) + c * p * (p - 1)


def rank(D: LatticeDescriptor) -> int:
    return type_rank(*D.shape.rational_type, D.p)


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
    n = D.shape.counts
    beta = [0] * p
    gamma = [0] * max(p - 2, 0)
    delta = [0] * max(p - 2, 0)
    eps = [0] * (p - 1)
    eta = [0] * (p - 1)
    for s, k in D.summands:
        if s.kind == "B":
            beta[s.r] += k
        elif s.kind == "C":
            gamma[s.r - 1] += k
        elif s.kind == "D":
            delta[s.r - 1] += k
        elif s.kind == "E":
            eps[s.r] += k
        elif s.kind == "F":
            eta[s.r] += k
    return GenusVector(n["Z"], n["b"], n["c"], n["b"] + n["Eb"], n["c"] + n["Ec"],
                       tuple(beta), tuple(gamma), tuple(delta), tuple(eps), tuple(eta))


def u0(D: LatticeDescriptor) -> PolyMod:
    """Product of all unit parameters, one factor per copy (with an n0 factor
    per copy of a type D summand), taken in F_p[l]/(l^p) via zero-padded
    lifts; 1 when there are no extension summands."""
    p = D.p
    acc = modring.one(p, p)
    for s, k in D.summands:
        if s.kind in EXTENSION_KINDS:
            u = modring.lift_poly(s.u, p)
            acc = modring.poly_mul(acc, u if k == 1 else modring.poly_pow(u, k))
            if s.kind == "D":
                acc = modring.poly_mul(acc, modring.poly(p, p, (pow(n0(p), k, p),)))
    return acc


def t_of(D: LatticeDescriptor) -> int:
    """The truncation index t steering which U_t the unit product lands in
    (see LatticeDescriptor.shape)."""
    return D.shape.t


def u0_coset_applies(D: LatticeDescriptor) -> bool:
    """The U_t coset of u0 is an invariant: no summand b, Eb, c or Ec."""
    n = D.shape.counts
    return n["b"] + n["Eb"] + n["c"] + n["Ec"] == 0


def quad_char_applies(D: LatticeDescriptor) -> bool:
    """u0's quadratic character is an invariant: p = 1 (mod 4) and no
    summand Z, Eb, Ec, B or F."""
    if D.p % 4 != 1:
        return False
    n = D.shape.counts
    return n["Z"] + n["Eb"] + n["Ec"] + n["B"] + n["F"] == 0


def sigma(D: LatticeDescriptor) -> int:
    """2 when the C/D part can flip its quadratic character inside the
    genus (the character applies and a C or D summand is present), else 1."""
    if not quad_char_applies(D):
        return 1
    n = D.shape.counts
    return 2 if n["C"] + n["D"] else 1


class Faithfulness:
    TRIVIAL = "TrivialAction"
    ORDER_P = "OrderP"
    FAITHFUL = "Faithful"


def faithfulness(D: LatticeDescriptor) -> str:
    _, b, c = D.shape.rational_type
    if c:
        return Faithfulness.FAITHFUL
    if b:
        return Faithfulness.ORDER_P
    return Faithfulness.TRIVIAL


def ideal_classes(D: LatticeDescriptor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The R- and S-ideal classes: sums of all b's and of all c's, each
    class times its summand's multiplicity.

    make_summand (or a twist) has already reduced every class into its
    group, so the sums are taken without membership checks.
    """
    Hp, Hp2 = D.context.H_p.target, D.context.H_p2.target
    rc = Hp.identity()
    sc = Hp2.identity()
    for s, n in D.summands:
        if s.b is not None:
            rc = _add(Hp, rc, s.b, n)
        if s.c is not None:
            sc = _add(Hp2, sc, s.c, n)
    return rc, sc


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
        summands = [self.parse_summand()]
        while True:
            kind, val, at = self.peek()
            if kind == "SYM" and val == "+":
                self.next()
                summands.append(self.parse_summand())
            elif kind == "END":
                break
            else:
                raise ParseError("expected '+' or end of input", at)
        return descriptor(self.p, self.context, summands)

    def parse_summand(self) -> tuple[Summand, int]:
        """One term n*X as the pair (X, n)."""
        mult = 1
        kind, val, at = self.peek()
        if kind == "NAT":
            self.next()
            mult = val
            self.expect_sym("*")
            if mult < 1:
                raise ParseError("multiplicity must be >= 1", at)
            # the JSON summand lists and the matrix models list every
            # copy, and no Python sequence is longer than sys.maxsize
            if mult > sys.maxsize:
                raise ParseError(f"multiplicity must be <= {sys.maxsize}", at)
        return self.parse_atom(), mult

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
    return base + f",{s.u})"


def render(D: LatticeDescriptor) -> str:
    """Canonical text form; parse(render(D)) == D."""
    if not D.summands:
        raise Cp2Error("the zero module has no textual form")
    return " + ".join(render_summand(s) if n == 1 else f"{n}*{render_summand(s)}"
                      for s, n in D.summands)


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
    """One summand object per copy, the copies sharing one object.  More
    than MAX_LISTED_COPIES copies raise Cp2Error before any is listed."""
    copies = sum(D.shape.counts.values())
    if copies > MAX_LISTED_COPIES:
        raise Cp2Error(f"input too large: {copies} summand copies to list, "
                       f"at most {MAX_LISTED_COPIES}")
    summands: list[dict] = []
    for s, n in D.summands:
        summands += [summand_to_json(s)] * n
    return {"p": D.p, "summands": summands}


def from_json(obj: dict, context: ClassData, lenient: bool = False) -> LatticeDescriptor:
    p = int(obj["p"])
    summands = [
        (make_summand(p, context, s["kind"], b=s.get("b"), c=s.get("c"), r=s.get("r"),
                      u=s.get("u"), lenient=lenient), 1)
        for s in obj["summands"]
    ]
    return descriptor(p, context, summands)
