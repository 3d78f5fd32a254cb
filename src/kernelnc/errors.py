"""Exception types shared across the package, and the checks that turn
an argument into the number or the names its field takes."""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping

import numpy as np


class KernelncError(Exception):
    """Base class for all package errors."""


class InputError(KernelncError):
    """Malformed arguments: bad shapes, unknown names, invalid values.
    `field` is the argument at fault when the message opens with its name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateScaleError(KernelncError):
    """A lengthscale heuristic produced a non-positive scale in `column`."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class NumericalError(KernelncError):
    """A linear solve or tuning loss could not be computed."""


class ConfigError(KernelncError):
    """A run configuration is missing fields or contains invalid ones."""


class IngestError(KernelncError):
    """Raised when a data file violates its declared schema.

    Carries the full list of violations so callers can report every
    problem in one pass instead of failing on the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        lines = "\n  - ".join(self.violations)
        super().__init__(f"{len(self.violations)} schema violation(s):\n  - {lines}")


def _number(field: str, value, kind=float, least=None):
    """`value` as a finite float, an int (kind=int) or a finite float array
    (kind=np.ndarray), else an InputError naming `field`. An int field
    takes what operator.index takes, so 2.0 and "5" are refused, never
    truncated; a number below `least` is refused."""
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an int beyond the float range
        arr = np.array(np.inf)
    except (TypeError, ValueError):
        arr = None
    if value is None or arr is None or (kind is not np.ndarray and arr.ndim):
        raise InputError(f"{field} must be numeric, got {value!r}", field)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{field} must be finite, got {value!r}", field)
    if kind is np.ndarray:
        return arr
    try:
        number = operator.index(value) if kind is int else float(value)
    except TypeError:
        raise InputError(f"{field} must be an integer, got {value!r}", field) from None
    if least is not None and number < least:
        raise InputError(f"{field} must be >= {least}, got {number}", field)
    return number


def _names(field: str, value) -> tuple[str, ...]:
    """`value` as a tuple of names, else an InputError naming `field`; a
    string is one name, not a list of its characters."""
    if isinstance(value, Iterable) and not isinstance(value, (str, bytes, Mapping)):
        names = tuple(value)
        if all(isinstance(name, str) for name in names):
            return names
    raise InputError(f"{field} must be a list of names, got {value!r}", field)
