"""Exception taxonomy shared across the package.

Validation-type errors (bad arguments, violated hypotheses, malformed
configs) derive from :class:`ValidationError`; numeric failures that occur
mid-computation (a series still unconverged at the end of its table, an
overflowing coefficient or scheme iterate) derive from
:class:`NumericError`.  The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""


class FracsisError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FracsisError, ValueError):
    """Invalid configuration or argument combination."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class HypothesisError(ValidationError):
    """A closed-form solution was requested outside its hypotheses."""


class GridMismatchError(ValidationError):
    """Two trajectories do not share a time grid."""


class InsufficientDataError(ValidationError):
    """Not enough coefficients / samples for the requested estimate."""


class NumericError(FracsisError, ArithmeticError):
    """Numeric failure during a computation."""


class NonConvergenceError(NumericError):
    """A series did not meet its stopping rule within its table (E_alpha: ``_MAX_TERMS`` terms)."""


class NumericOverflowError(NumericError):
    """A computed quantity left the representable range."""
