"""Exception types shared across the package."""

import numbers


class FathorseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FathorseError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly on the singular line x = 0."""


class InvalidParameterError(FathorseError, ValueError):
    """A construction parameter violates its admissible range."""


class FeasibilityError(InvalidParameterError):
    """The gap series is too long for the ambient interval."""


class SizeGuardError(FathorseError, ValueError):
    """A depth or resolution request exceeds the configured cost guard."""


class ConfigError(FathorseError, ValueError):
    """A configuration file is malformed or carries unknown keys."""


def check_depth(n: int, cap: float, what: str = "level") -> None:
    """The one depth and count guard: DomainError for a non-integer (numpy
    integers pass, bools do not) or below 0, SizeGuardError above cap
    (math.inf for none)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"{what} must be nonnegative, got {n}")
    if n > cap:
        raise SizeGuardError(f"{what} {n} exceeds the cap {cap}")
