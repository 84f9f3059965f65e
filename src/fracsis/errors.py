"""Exception taxonomy shared across the package.

Validation-type errors (bad arguments, violated hypotheses, malformed
configs) derive from :class:`ValidationError`; numeric failures that occur
mid-computation (an overflowing coefficient, scheme iterate or population
curve) derive from
:class:`NumericError`.  The CLI maps the former to exit code 1 and the
latter to exit code 2.  :func:`check_alpha` is the one check of the
fractional order that every public routine taking alpha runs.
"""

import math
import sys

__all__ = [
    "DomainError",
    "FracsisError",
    "GridMismatchError",
    "HypothesisError",
    "InsufficientDataError",
    "NumericError",
    "NumericOverflowError",
    "ValidationError",
    "check_alpha",
]


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


class NumericOverflowError(NumericError):
    """A computed quantity left the representable range."""


def check_alpha(alpha: float, what: str, *, closed: bool = True) -> None:
    """Refuse, with a :class:`DomainError` that names alpha, an order outside
    (0, 1] (or (0, 1) unless ``closed``) or one whose reciprocal overflows
    binary64: a subnormal alpha, below about 5.6e-309, where z^(1/alpha)
    and dt^alpha / alpha are not formed.  ``what`` opens the message, e.g.
    ``"a_coeffs requires alpha"`` or ``"alpha must be"``."""
    domain = "(0, 1]" if closed else "(0, 1)"
    if not (0 < alpha < 1 or (closed and alpha == 1)):
        raise DomainError(f"{what} in {domain}, got {alpha}")
    # only an alpha below the smallest normal float can have 1/alpha = inf
    if alpha < sys.float_info.min and math.isinf(1.0 / float(alpha)):
        raise DomainError(f"{what} in {domain} with 1/alpha finite, got {alpha}")
