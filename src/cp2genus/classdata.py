"""Class-group data: structure of H(Z[zeta_p]) and H(Z[zeta_{p^2}]) plus
their Galois actions, either built in (small primes) or loaded from a
JSON config.

The package never computes class groups from field arithmetic; they are
configured finite abelian groups with a declared generator action.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .abelian import AbGroup, CyclicAction, primitive_root
from .errors import ConfigError, Cp2Error, NeedsConfig, UnsupportedPrime
from .modring import UnitQuotient, compute_Um, galois_on_unit
from .value import Value

BUILTIN_TRIVIAL = (2, 3, 5)
# the largest p a config may declare: validating an action builds its
# p(p-1) matrix powers, so a load at p = 199 already takes about a
# quarter of a second with rank-2 class groups and half a second at rank 3
MAX_CONFIG_P = 200
_DATA_DIR = Path(__file__).parent / "data"


class ClassData(Value):
    """Everything prime-specific the rest of the package consumes.

    H_p and H_p2 are the CyclicActions of (Z/p)^* and (Z/p^2)^* on the
    class groups; the extra unit generators (tuples of coefficient
    tuples, default none) enlarge every unit image, and provenance is a
    free-form note (default "").
    """

    __slots__ = ("p", "H_p", "H_p2", "extra_R_unit_gens", "extra_ES_unit_gens",
                 "provenance")
    _defaults = {"extra_R_unit_gens": (), "extra_ES_unit_gens": (), "provenance": ""}

    def validate(self):
        p = self.p
        if self.H_p.modulus != p or self.H_p.acting_order != p - 1:
            raise ConfigError(f"H_p: must carry an action of (Z/{p})^* of order {p - 1}")
        if self.H_p2.modulus != p * p or self.H_p2.acting_order != p * (p - 1):
            raise ConfigError(
                f"H_p2: must carry an action of (Z/{p * p})^* of order {p * (p - 1)}"
            )
        self.H_p.validate("H_p")
        self.H_p2.validate("H_p2")
        if self.extra_R_unit_gens or self.extra_ES_unit_gens:
            # the Galois action on U_m needs a Galois-stable image; the
            # default generators give one, extra generators may not
            gen = primitive_root(p * p)
            for m in range(1, p + 1):
                try:
                    sub = self.unit_quotient(m).subgroup
                except Cp2Error as exc:
                    raise ConfigError(f"extra unit generators, m={m}: {exc}") from None
                if any(galois_on_unit(gen, e) not in sub for e in sub.pivots):
                    raise ConfigError(
                        f"extra unit generators: the unit image for m={m} is not "
                        "Galois-stable, so G(p^2) does not act on U_m"
                    )

    def unit_quotient(self, m: int) -> UnitQuotient:
        """U_m computed with any configured extra unit generators."""
        extra = self.extra_ES_unit_gens if m == self.p else self.extra_R_unit_gens
        return compute_Um(self.p, m, extra)


def _trivial_class_action(p: int, i: int) -> CyclicAction:
    modulus = p**i
    order = (p - 1) * p ** (i - 1)
    return CyclicAction(AbGroup(()), modulus, order, primitive_root(modulus), ())


def trivial(p: int, provenance: str = "trivial class groups") -> ClassData:
    data = ClassData(p, _trivial_class_action(p, 1), _trivial_class_action(p, 2),
                     provenance=provenance)
    data.validate()
    return data


def builtin(p: int) -> ClassData:
    """Built-in class data.

    p in {2, 3, 5}: both class groups are trivial (class number one).
    p = 7: H(Z[zeta_7]) is trivial and H(Z[zeta_49]) is cyclic of order
    43, but its Galois action is external input; it is only available
    when a data file data/h49.json ships with the package, and otherwise
    raises NeedsConfig.
    """
    if p in BUILTIN_TRIVIAL:
        return trivial(p, provenance=f"built-in: class number one for p={p}")
    if p == 7:
        shipped = _DATA_DIR / "h49.json"
        if shipped.is_file():
            return load_config(shipped)
        raise NeedsConfig(
            "p=7: H(Z[zeta_49]) has order 43 but its Galois action is not "
            "shipped with this package; supply a class-data config file "
            "(see README) via --classdata"
        )
    raise UnsupportedPrime(f"no built-in class data for p={p}")


def _parse_action(obj, p: int, i: int, where: str) -> CyclicAction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    try:
        factors = tuple(int(f) for f in obj["invariant_factors"])
        residue = int(obj["generator_residue"])
        matrix = tuple(tuple(int(x) for x in row) for row in obj["generator_matrix"])
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}: missing") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    modulus = p**i
    order = (p - 1) * p ** (i - 1)
    try:
        group = AbGroup(factors)
    except Exception as exc:
        raise ConfigError(f"{where}.invariant_factors: {exc}") from None
    # validate checks that the residue generates the full unit group, so
    # every Galois element is one of its powers
    action = CyclicAction(group, modulus, order, residue % modulus, matrix)
    try:
        action.validate(where)
    except Exception as exc:
        raise ConfigError(str(exc)) from None
    return action


def _parse_gens(obj, key: str) -> tuple[tuple[int, ...], ...]:
    raw = obj.get(key, [])
    try:
        return tuple(tuple(int(c) for c in vec) for vec in raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a list of integer coefficient vectors") from None


def load_config(path) -> ClassData:
    """Load and fully validate a class-data JSON config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    try:
        p = int(obj["p"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("p: missing or not an integer") from None
    if p > MAX_CONFIG_P:
        raise ConfigError(f"p: {p} exceeds the supported bound {MAX_CONFIG_P}")
    if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise ConfigError(f"p: {p} is not prime")
    data = ClassData(
        p=p,
        H_p=_parse_action(obj.get("H_p"), p, 1, "H_p"),
        H_p2=_parse_action(obj.get("H_p2"), p, 2, "H_p2"),
        extra_R_unit_gens=_parse_gens(obj, "extra_R_unit_gens"),
        extra_ES_unit_gens=_parse_gens(obj, "extra_ES_unit_gens"),
        provenance=str(obj.get("provenance", "")),
    )
    data.validate()
    return data
