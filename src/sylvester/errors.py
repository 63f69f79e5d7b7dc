"""Exception hierarchy shared by all modules, and the one rule for integer counts."""

from __future__ import annotations

import operator


class SylvesterError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SylvesterError, ValueError):
    """Arguments lie outside the validity region of an operation."""


class OverflowBoundError(DomainError):
    """Argument would push an intermediate past the floating-point range."""


class NonConvergenceError(SylvesterError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available result so callers can inspect how far off
    the final refinement was.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class DegenerateGeometryError(SylvesterError):
    """Input points or generators are numerically rank-deficient."""


class NotInRegistryError(SylvesterError, LookupError):
    """No closed-form registry entry exists for the requested distribution."""


def integer_count(value, name: str) -> int:
    """value as a plain int, or DomainError naming ``name``.

    Any integer type is taken (numpy's too, as np.arange yields them) and
    stored as an int, so it serializes as JSON; bool, float, str and None are
    refused.  Range checks stay with the caller.
    """
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
