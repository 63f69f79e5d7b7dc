"""Exception hierarchy shared by all modules, and the one rule each for
integer counts (``integer_count``), real numbers (``real_number``) and real
arrays (``real_array``) that enter the package."""

from __future__ import annotations

import numbers
import operator

import numpy as np


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
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def real_number(value, name: str) -> float:
    """value as a float, or DomainError naming ``name``.

    Any real number type is taken (int, Fraction, numpy's) and stored as a
    float; bool, complex, str and None are refused, and so is a number beyond
    the float range, which would overflow later as a raw OverflowError.
    A built-in float is returned as it is, before any type check.
    Finiteness and range checks stay with the caller.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must lie in the float range") from None


# native float64 arrays share this one dtype object, so the fast path compares by identity
_FLOAT64 = np.dtype(np.float64)


def real_array(values, message: str) -> np.ndarray:
    """values as a float64 ndarray, or DomainError(message).

    The array form of ``real_number``: a float64 ndarray is returned as it is;
    anything else goes through np.asarray and is taken only with an int, uint
    or float dtype, or as an object array whose every element ``real_number``
    takes (Fraction, ints beyond int64), and is then cast to float64.  The
    dtype is checked before any cast, so a complex array is refused, not cut
    to its real part; bool, complex, str (numeric str too), None, ragged input
    and numbers beyond the float range are refused, and so is a bool (or a
    0-d bool array) inside a sequence of numbers, whose dtype it takes.  An
    element ``real_number`` refuses appends its reason to the message.  Shape
    and finiteness checks stay with the caller.
    """
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    try:
        array = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(message) from None
    if array.dtype.kind == "O":
        return np.array(_real_elements(array.flat, message), dtype=np.float64).reshape(array.shape)
    if array.dtype.kind not in "iuf":
        raise DomainError(message)
    if array.ndim and not isinstance(values, np.ndarray):
        elements = np.asarray(values, dtype=object).flat
        _real_elements([v for v in elements if isinstance(v, bool) or getattr(v, "dtype", None) == np.bool_], message)
    return array.astype(np.float64, copy=False)


def _real_elements(elements, message: str) -> list:
    """The elements as floats by ``real_number``, or DomainError(message) with its reason appended."""
    try:
        return [real_number(v, "value") for v in elements]
    except DomainError as exc:
        raise DomainError(f"{message}: {exc}") from None
