"""Class-group data: structure of H(Z[zeta_p]) and H(Z[zeta_{p^2}]) plus
their Galois actions, either built in (small primes) or loaded from a
JSON config.

The package never computes class groups from field arithmetic; they are
configured finite abelian groups with a declared generator action.  A
config is read strictly, every number a JSON integer, and
ClassData.validate is the one check of the data on every path.
"""

from __future__ import annotations

import json
import math

from .abelian import AbGroup, CyclicAction, primitive_root
from .errors import ConfigError, Cp2Error, NeedsConfig, UnsupportedPrime
from .modring import UnitQuotient, compute_Um, galois_on_unit, one
from .value import Value

BUILTIN_TRIVIAL = (2, 3, 5)
# the largest p a config may declare: validating an action builds its
# p(p-1) matrix powers, so a load at p = 199 takes about a quarter of a
# second with rank-2 class groups and half a second at rank 3; extra unit
# generators add one U_{p-1} or U_p build each, about 13 s for U_198 at
# p = 199 (2-vCPU VM, Python 3.11)
MAX_CONFIG_P = 200
# the most bytes a config file may have: a real one is far smaller, and a
# FIFO or a huge file stops here instead of filling memory before parsing
MAX_CONFIG_BYTES = 1 << 20


class ClassData(Value):
    """Everything prime-specific the rest of the package consumes.

    H_p and H_p2 are the CyclicActions of (Z/p)^* and (Z/p^2)^* on the
    class groups; the extra unit generators (tuples of coefficient
    tuples, default none) enlarge every unit image.
    """

    __slots__ = ("p", "H_p", "H_p2", "extra_R_unit_gens", "extra_ES_unit_gens")
    _defaults = {"extra_R_unit_gens": (), "extra_ES_unit_gens": ()}

    def validate(self):
        p = self.p
        for where, action, m in (("H_p", self.H_p, p), ("H_p2", self.H_p2, p * p)):
            if action.modulus != m:
                raise ConfigError(f"{where}: must carry an action of (Z/{m})^*")
            action.validate(where)
        # the Galois action on U_m needs a Galois-stable image; the default
        # generators give one, extra generators may not.  U_p is checked
        # when extra ES generators are set, and U_{p-1} when extra R
        # generators are: for m < p - 1, U_m is the image of U_{p-1} under
        # truncation to F_p[l]/(l^m), a ring map that sends the generated
        # subgroup onto the generated subgroup and commutes with
        # l -> (1+l)^k - 1, so a stable image at p - 1 is stable at each m
        gen = primitive_root(p * p)
        for m, extra in ((p - 1, self.extra_R_unit_gens), (p, self.extra_ES_unit_gens)):
            if not extra:
                continue
            try:
                q = self.unit_quotient(m)
            except Cp2Error as exc:
                raise ConfigError(f"extra unit generators, m={m}: {exc}") from None
            # a unit lies in the image exactly when its representative is 1
            if any(q.rep_of(galois_on_unit(gen, e)) != one(p, m) for e in q.pivots):
                raise ConfigError(
                    f"extra unit generators: the unit image for m={m} is not "
                    "Galois-stable, so G(p^2) does not act on U_m"
                )

    def unit_quotient(self, m: int) -> UnitQuotient:
        """U_m computed with any configured extra unit generators."""
        extra = self.extra_ES_unit_gens if m == self.p else self.extra_R_unit_gens
        return compute_Um(self.p, m, extra)


def _action(p: int, i: int, group: AbGroup, residue: int, matrix) -> CyclicAction:
    """The action of (Z/p^i)^* on group through the residue, taken mod p^i."""
    m = p**i
    return CyclicAction(group, m, residue % m, matrix)


def trivial(p: int) -> ClassData:
    data = ClassData(p, _action(p, 1, AbGroup(()), primitive_root(p), ()),
                     _action(p, 2, AbGroup(()), primitive_root(p * p), ()))
    data.validate()
    return data


def builtin(p: int) -> ClassData:
    """Built-in class data.

    p in {2, 3, 5}: both class groups are trivial (class number one), so
    this is trivial(p).  p = 7: H(Z[zeta_7]) is trivial and H(Z[zeta_49])
    is cyclic of order 43, but the package does not ship its Galois
    action; this raises NeedsConfig, and the data comes from a config.
    Any other p raises UnsupportedPrime.
    """
    if p in BUILTIN_TRIVIAL:
        return trivial(p)
    if p == 7:
        raise NeedsConfig(
            "p=7: H(Z[zeta_49]) has order 43 but its Galois action is not "
            "shipped with this package; supply a class-data config file "
            "(see README) via --classdata"
        )
    raise UnsupportedPrime(f"no built-in class data for p={p}")


def _ints(value, where: str, depth: int):
    """value as a JSON integer (depth 0) or as lists of them nested depth
    deep, read into tuples.  Only JSON integers count: a boolean, a
    fraction and a string are refused, never coerced."""
    if depth == 0:
        if type(value) is not int:
            raise ConfigError(f"{where}: expected an integer")
        return value
    if type(value) is not list:
        raise ConfigError(f"{where}: expected a list")
    return tuple(_ints(x, f"{where}[{i}]", depth - 1) for i, x in enumerate(value))


def _field(obj: dict, key: str, depth: int, where: str = "", default=None):
    """obj[key] read by _ints; a missing key needs a default."""
    name = f"{where}.{key}" if where else key
    if key in obj:
        return _ints(obj[key], name, depth)
    if default is None:
        raise ConfigError(f"{name}: missing")
    return default


def _parse_action(obj, p: int, i: int, where: str) -> CyclicAction:
    """The action read from its fields; ClassData.validate checks it."""
    if type(obj) is not dict:
        raise ConfigError(f"{where}: expected an object")
    factors = _field(obj, "invariant_factors", 1, where)
    residue = _field(obj, "generator_residue", 0, where)
    matrix = _field(obj, "generator_matrix", 2, where)
    return _action(p, i, AbGroup(factors), residue, matrix)


def _read_json(path):
    """The JSON value in the file at path, of at most MAX_CONFIG_BYTES."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if len(raw) > MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: longer than {MAX_CONFIG_BYTES} bytes")
    # ValueError covers malformed JSON, bytes that are not UTF-8 and an
    # integer beyond Python's digit limit; RecursionError deep nesting
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_config(path) -> ClassData:
    """Load and fully validate a class-data JSON config."""
    obj = _read_json(path)
    if type(obj) is not dict:
        raise ConfigError("config root must be an object")
    p = _field(obj, "p", 0)
    if p > MAX_CONFIG_P:
        raise ConfigError(f"p: {p} exceeds the supported bound {MAX_CONFIG_P}")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ConfigError(f"p: {p} is not prime")
    # provenance is a note for the reader of the file: checked, not kept
    if type(obj.get("provenance", "")) is not str:
        raise ConfigError("provenance: expected a string")
    data = ClassData(
        p=p,
        H_p=_parse_action(obj.get("H_p"), p, 1, "H_p"),
        H_p2=_parse_action(obj.get("H_p2"), p, 2, "H_p2"),
        extra_R_unit_gens=_field(obj, "extra_R_unit_gens", 2, default=()),
        extra_ES_unit_gens=_field(obj, "extra_ES_unit_gens", 2, default=()),
    )
    data.validate()
    return data
