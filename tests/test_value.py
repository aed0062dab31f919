"""The immutable value classes behave as the frozen dataclasses they replace.

Each class is pinned with its fields in declaration order: equality only
within the class, never with the field tuple, the hash of the field
tuple, the Name(field=value, ...) repr, refused assignment, and copies
through the constructor.
"""

import ast
import copy
import inspect
import pickle
import textwrap

import pytest

from cp2genus import genus, iso, lattice, materialize, modring
from cp2genus.abelian import AbGroup, CyclicAction
from cp2genus.classdata import ClassData
from cp2genus.errors import ConfigError
from cp2genus.value import Value

from conftest import synthetic_c43
from oracles import lam

FIELDS = {
    AbGroup: ("factors",),
    CyclicAction: ("target", "modulus", "generator_residue", "generator_matrix"),
    ClassData: ("p", "H_p", "H_p2", "extra_R_unit_gens", "extra_ES_unit_gens"),
    modring.PolyMod: ("p", "m", "coeffs"),
    modring.UnitQuotient: ("p", "m", "pivots", "clearing", "free_degrees"),
    lattice.Summand: ("kind", "b", "c", "r", "u"),
    lattice.LatticeDescriptor: ("p", "context", "summands"),
    lattice.GenusVector: ("a", "b", "c", "d", "e", "beta", "gamma", "delta", "eps",
                          "eta"),
    iso.PadicDescriptor: ("p", "a", "nR", "nE", "nS", "nZS", "beta", "cd", "eps",
                          "eta"),
    iso.IsoInvariants: ("padic", "R_class", "S_class", "t", "u0_class", "quad_char"),
    genus.SemidirectDescriptor: ("module",),
    genus.GenusReport: ("closed_form", "enumeration", "agree", "bounds", "notes"),
    materialize.IntegerRep: ("n", "matrix", "source"),
    materialize.RepCheck: ("name", "ok", "detail"),
    materialize.RepReport: ("checks",),
}


def instances(ctx5):
    """One instance of every value class, built by the library."""
    D = lattice.parse("Z + B(0,0;0,1+l^3)", 5, ctx5)
    E = genus.SemidirectDescriptor(D)
    rep = materialize.rep_of(lattice.parse("Z + B(0,0;1)", 5, ctx5))
    report = materialize.validate_rep(rep)
    quotient = ctx5.unit_quotient(4)
    ctx7 = synthetic_c43()
    return [
        ctx7.H_p2.target, ctx7.H_p2, ctx7, lam(5, 3), quotient, D.summands[-1][0], D,
        lattice.genus_vector(D), iso.padic_completion(D), iso.invariants_of(D), E,
        genus.genus_report(E), rep, report.checks[0], report,
    ]


def test_every_value_class_is_covered(ctx5):
    assert {type(x) for x in instances(ctx5)} == set(FIELDS)


def test_value_semantics(ctx5):
    for x in instances(ctx5):
        cls = type(x)
        values = tuple(getattr(x, f) for f in FIELDS[cls])
        assert x != values and values != x
        assert repr(x) == "{}({})".format(
            cls.__qualname__, ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[cls], values))
        )
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, FIELDS[cls][0], values[0])
        with pytest.raises(AttributeError, match="cannot assign to field"):
            x.other = 1
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(x, FIELDS[cls][0])
        twin = cls(*values)
        if cls is modring.UnitQuotient:  # compares by identity
            assert x == x and twin != x and hash(x) == object.__hash__(x)
            continue
        assert twin == x and hash(twin) == hash(x) == hash(values)
        assert pickle.loads(pickle.dumps(x)) == x and copy.copy(x) == x


def test_equality_within_one_class_only():
    checks = (materialize.RepCheck("ok", True, ""),)
    assert materialize.RepReport(checks) != genus.SemidirectDescriptor(checks)
    assert materialize.RepCheck(1, 2, 3) != materialize.IntegerRep(1, 2, 3)
    assert materialize.RepCheck(1, 2, 3) != materialize.RepCheck(1, 2, 4)
    # equal hashes, still unequal
    assert len({lattice.Summand("Z"), lattice.Summand("Z"), ("Z", None, None, None, None)}) == 2


def test_keyword_construction_with_defaults():
    assert lattice.Summand("Z") == lattice.Summand(kind="Z", b=None, c=None, r=None, u=None)
    assert lattice.Summand("b", b=(1,)).b == (1,)
    ctx = synthetic_c43()
    plain = ClassData(p=7, H_p=ctx.H_p, H_p2=ctx.H_p2)
    assert (plain.extra_R_unit_gens, plain.extra_ES_unit_gens) == ((), ())
    assert plain == ctx


# no record checks its fields: class data is checked where it enters, by
# CyclicAction.validate
@pytest.mark.parametrize("make, message", [
    (lambda: CyclicAction(AbGroup((1,)), 49, 3, ((1,),)).validate("H_p2"),
     "invariant factor 1 must be >= 2"),
    (lambda: CyclicAction(AbGroup((4, 6)), 49, 3, ((1, 0), (0, 1))).validate("H_p2"),
     "invariant factors (4, 6) violate divisibility"),
])
def test_validation_at_construction(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == f"H_p2.invariant_factors: {message}"


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_only_validating_classes_write_a_constructor():
    # none does: every value class takes the generated constructor, which
    # replaces one written in the class body, so the source is read
    classes = set(_value_classes())
    assert set(FIELDS) <= classes
    for cls in classes:
        body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
        assert "__init__" not in {f.name for f in body if isinstance(f, ast.FunctionDef)}, cls


def test_positional_and_keyword_construction_agree(ctx5):
    for x in instances(ctx5):
        cls = type(x)
        values = {f: getattr(x, f) for f in FIELDS[cls]}
        by_position, by_keyword = cls(*values.values()), cls(**values)
        if cls is modring.UnitQuotient:  # compares by identity
            assert [getattr(by_keyword, f) for f in values] == list(values.values())
            continue
        assert by_position == by_keyword == x


@pytest.mark.parametrize("make, message", [
    (lambda: materialize.RepCheck("ok", True),
     "RepCheck() missing required arguments: detail"),
    (lambda: lattice.Summand(b=()),
     "Summand() missing required arguments: kind"),
    (lambda: materialize.RepCheck("ok", True, "", None),
     "RepCheck() takes 3 positional arguments but 4 were given"),
    (lambda: genus.SemidirectDescriptor(),
     "SemidirectDescriptor() missing required arguments: module"),
    (lambda: lattice.Summand("Z", d=1),
     "Summand() got an unexpected keyword argument 'd'"),
    (lambda: lattice.Summand("Z", kind="Z"),
     "Summand() got multiple values for argument 'kind'"),
])
def test_generated_constructor_refuses_bad_arguments(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message
