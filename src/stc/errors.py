"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`StcError` so callers
(and the command-line front end) can map failures onto a small, stable set
of outcomes: bad parameters, numerical breakdowns, infeasible requests, and
malformed data.
"""
from __future__ import annotations

__all__ = [
    "StcError",
    "InvalidParameterError",
    "BracketSignError",
    "NumericalFailureError",
    "NoValidCriticalValueError",
    "DesignViolationError",
    "RankDeficiencyError",
    "DataFormatError",
]


def as_integer(name: str, value) -> int:
    """``value`` as an int; InvalidParameterError unless ``int(value) == value``,
    so a count such as 2.9 is refused instead of truncated."""
    try:
        integral = bool(int(value) == value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


class StcError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(StcError, ValueError):
    """An argument violates a documented precondition."""


class BracketSignError(StcError, ArithmeticError):
    """A certified root bracket failed to straddle a sign change.

    Indicates invalid input or a broken internal invariant, never a
    tolerance problem.
    """


class NumericalFailureError(StcError, ArithmeticError):
    """A numerical routine produced a non-finite or inconsistent value."""


class NoValidCriticalValueError(StcError):
    """No critical value attains the requested level.

    Carries ``floor``, the smallest worst-case rejection probability the
    search could certify.
    """

    def __init__(self, message: str, floor: float | None = None):
        super().__init__(message)
        self.floor = floor


class DesignViolationError(StcError, ValueError):
    """Input data cannot support the requested design (names the cluster)."""


class RankDeficiencyError(DesignViolationError):
    """A per-cluster regression system is singular or numerically rank
    deficient (names the cluster)."""


class DataFormatError(StcError, ValueError):
    """Malformed input data (names the offending row where possible)."""
