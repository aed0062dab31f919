"""Exception types shared across the package."""


class Cp2Error(Exception):
    """Base class for all errors raised by this package."""


class AmbientMismatch(Cp2Error):
    """Operands live in different truncated polynomial rings."""


class NonUnit(Cp2Error):
    """Element has no multiplicative inverse (constant term divisible by p)."""


class UnsupportedPrime(Cp2Error):
    """No built-in class-group data for this prime."""


class NeedsConfig(Cp2Error):
    """Built-in data is incomplete; a class-data config file is required."""


class ConfigError(Cp2Error):
    """Class-data config failed to parse or violates an invariant."""


class ParseError(Cp2Error):
    """Descriptor text is malformed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotFaithful(Cp2Error):
    """Operation is only defined for faithful C_{p^2}-actions."""


class NontrivialClass(Cp2Error):
    """Matrix materialization supports trivial ideal classes only."""


class EnumerationGuard(Cp2Error):
    """Requested enumeration exceeds the configured size guard."""


class InternalError(Cp2Error):
    """A consistency check inside the package failed; this is a bug, not bad input."""
