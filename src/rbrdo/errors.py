"""Exception hierarchy shared across the package.

``UsageError`` covers caller mistakes (bad dimensions, invalid parameters),
``NumericError`` covers failures of the numerical machinery itself. The CLI
maps these onto distinct exit codes. A robustness measure that would
divide by ~0 raises nothing: the population evaluator rejects that
candidate instead.
"""


class RbrdoError(Exception):
    """Base class for all package errors."""


class UsageError(RbrdoError, ValueError):
    """Invalid arguments or configuration supplied by the caller."""


class NumericError(RbrdoError, ArithmeticError):
    """A numerical procedure failed (singular fit, vanished gradient, ...)."""


class GradientVanishedError(NumericError):
    """MPP search hit a stationary point: the U-space gradient is ~0."""


class FitError(NumericError):
    """Least-squares fit is rank deficient or under-determined."""
