"""Exception types shared across the package."""

from __future__ import annotations


class KernelncError(Exception):
    """Base class for all package errors."""


class InputError(KernelncError):
    """Malformed arguments: bad shapes, unknown names, invalid values."""


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
