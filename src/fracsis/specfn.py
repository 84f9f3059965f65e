"""Scalar special functions used throughout the package.

Gamma, log-Gamma and Beta are thin, domain-checked wrappers around the
platform libm (whose minimax implementations comfortably exceed every
downstream tolerance).  The one-parameter Mittag-Leffler function

    E_a(z) = sum_{k>=0} z^k / Gamma(a k + 1)

is evaluated by its defining power series, which has infinite radius of
convergence; truncation is controlled by :class:`EvalPolicy`.  The small-
and large-time asymptotic companions of E_a(-|r| t^a) are exposed
separately rather than auto-switched.

Every series of the package is normalised by Gamma(a k + 1):
:func:`log_gamma_orders` is the one source of those log-Gammas, and
:func:`gamma_ratios` caches the ratios Gamma(a k + 1) / Gamma(a k + a + 1).
They step the terms of :func:`mittag_leffler` and the recursions of
:mod:`fracsis.coeffs`, whose tables then carry the normalisation, so that
:func:`fracsis.series.evaluate` needs none.  :func:`mittag_leffler`
shares its stopping rule with :func:`fracsis.series.evaluate` but not
that loop's divergence rule (stop after five growing terms at k >= 10):
E_a is entire, and its terms may grow on the way to convergence (for
E_0.5(3) from k = 10 to k = 17).

All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NonConvergenceError

__all__ = [
    "EvalPolicy",
    "DEFAULT_POLICY",
    "gamma",
    "log_gamma",
    "beta",
    "log_gamma_orders",
    "gamma_ratios",
    "mittag_leffler",
    "ml_asymptotics",
]


@dataclass(frozen=True)
class EvalPolicy:
    """Truncation control for power-series evaluation.

    A series is accepted once three consecutive terms fall below
    ``abs_tol`` in absolute value; it is abandoned (with an error or an
    in-band flag, depending on the caller) after ``max_terms`` terms.
    """

    abs_tol: float = 1e-14
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_POLICY = EvalPolicy()

#: consecutive sub-tolerance terms required by the stopping rule of every
#: power series in the package
_STOP_STREAK = 3


def gamma(x: float) -> float:
    """Euler gamma function for positive real arguments.

    Raises :class:`DomainError` for x <= 0 and lets the libm
    ``OverflowError`` propagate for arguments beyond ~171.6 where the
    result is no longer representable in binary64.
    """
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Safe for the large arguments (x ~ alpha*K) that appear in coefficient
    ratios where ``gamma`` itself would overflow.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y).

    Formed in log space so that large arguments do not overflow.  The
    symmetric code path makes B(x, y) == B(y, x) bit-exact.
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def log_gamma_orders(alpha: float, K: int) -> list[float]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order."""
    return [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]


@lru_cache(maxsize=64)
def gamma_ratios(alpha: float, order: int) -> tuple[float, ...]:
    """ratios[k] = Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1), k = 0..order-1."""
    lg = log_gamma_orders(alpha, order)
    return tuple(math.exp(lg[k - 1] - lg[k]) for k in range(1, order + 1))


def mittag_leffler(alpha: float, z: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0, 1].

    Direct summation of z^k / Gamma(alpha k + 1) with ratio updates from
    :func:`gamma_ratios` (no explicit powers).  E_1 reduces to exp;
    E_alpha(0) = 1 exactly for every alpha.

    Raises :class:`NonConvergenceError` if the stopping rule has not fired
    after ``policy.max_terms`` terms.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    # most calls stop after a few dozen terms: request 32 ratios and double
    # the request only when the sum runs past them, rather than build all
    # max_terms - 1 ratios for each fresh alpha
    last = policy.max_terms - 1
    done, size = 0, min(32, last)
    term = 1.0
    total = 1.0
    below = 0
    while done < last:
        for ratio in gamma_ratios(alpha, size)[done:]:
            term *= z * ratio
            total += term
            if abs(term) < policy.abs_tol:
                below += 1
                if below >= _STOP_STREAK:
                    return total
            else:
                below = 0
        done, size = size, min(2 * size, last)
    raise NonConvergenceError(
        f"Mittag-Leffler series not converged after {policy.max_terms} terms "
        f"(alpha={alpha}, z={z}); last term {term:.3e}"
    )


def ml_asymptotics(alpha: float, lam_minus_mu: float, t: float) -> tuple[float, float]:
    """Small- and large-time companions of E_alpha((lam - mu) t^alpha).

    For a non-positive rate r = lam - mu returns the pair

        e0   = exp(-|r| t^alpha / Gamma(1 + alpha))      (t -> 0 regime)
        einf = t^(-alpha) / (|r| Gamma(1 - alpha))        (t -> infinity regime)

    The ratio E_alpha(r t^alpha) / e0 tends to 1 as t -> 0 and
    E_alpha(r t^alpha) / einf tends to 1 as t -> infinity.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"ml_asymptotics requires alpha in (0, 1), got {alpha}")
    if lam_minus_mu > 0:
        raise DomainError(
            f"asymptotic pair defined for lam - mu <= 0, got {lam_minus_mu}"
        )
    if not t > 0:
        raise DomainError(f"ml_asymptotics requires t > 0, got {t}")
    if lam_minus_mu == 0:
        # e0 degenerates to 1 but einf divides by zero; refuse the pair.
        raise DomainError("large-time asymptote undefined for lam == mu")
    rate = abs(lam_minus_mu)
    e0 = math.exp(-rate * t**alpha / math.gamma(1.0 + alpha))
    einf = t ** (-alpha) / (rate * math.gamma(1.0 - alpha))
    return e0, einf
