"""Exception types shared by the numerical modules and the CLI."""

from __future__ import annotations


class SingularMatrixError(ArithmeticError):
    """A matrix is singular to working tolerance.

    Attributes:
        pivot: Magnitude of the offending pivot.
        column: 1-based elimination column where factorization stopped,
            or None when the failure is not tied to a pivot step.
    """

    def __init__(self, message: str, *, pivot: float = 0.0,
                 column: "int | None" = None):
        super().__init__(message)
        self.pivot = float(pivot)
        self.column = column


class ConvergenceError(RuntimeError):
    """An iterative or limit computation failed to converge."""


class NonFiniteError(ValueError):
    """A computed value overflowed to infinity or became NaN.

    A ValueError, as the bare one it replaces was, so callers that catch
    ValueError keep working; the CLI maps it to the numerical exit code.
    """


class ConfigError(ValueError):
    """An input field is missing, mistyped or out of range.

    Attributes:
        field: The rejected input, index included (``alpha[0]``).
        reason: What is wrong with it.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
