"""Coefficient sequences of the fractional power-series solutions.

Two sequences are generated, both normalised so that the series reads
``sum_k c_k * s^k * t^(alpha k) / Gamma(alpha k + 1)`` for a per-index
scale ``s`` applied by the series evaluator:

* alpha-Euler numbers ``E_k`` for the carrying-capacity logistic equation
  ``D^alpha v = v (1 - v) / M^alpha`` with ``v(0) = 1/2``.  They satisfy
  ``E_0 = 1/2`` and the one-step recursion

      E_{k+1} = E_k - sum_{i+j=k} R(i, j, k) E_i E_j,

  where ``R(i, j, k) = Gamma(alpha k + 1) / (Gamma(alpha i + 1)
  Gamma(alpha j + 1))`` is the fractional convolution weight (equivalently
  ``1 / ((alpha k + 1) B(alpha i + 1, alpha j + 1))``).  Every even-index
  entry past ``E_0`` vanishes, and at alpha = 1 the table reduces to the
  Taylor coefficients of the sigmoid ``1 / (1 + e^{-t})``.

* A-coefficients ``A_k`` for the pure-decay equation ``D^alpha u = -u^2``
  with ``u(0) = a0``: ``A_{k+1} = -sum_{i+j=k} R(i, j, k) A_i A_j``.  At
  alpha -> 1 with ``a0 = 1/2`` they reduce to the Taylor coefficients of
  ``1 / (t + 2)``, i.e. ``(-1)^k k! / 2^(k+1)``.

The module also provides the guaranteed convergence radii of both series
and an empirical root-test estimate from a finite coefficient table.  All
log-Gammas come from :func:`fracsis.specfn.log_gamma_orders`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DomainError,
    HypothesisError,
    InsufficientDataError,
    NumericOverflowError,
)
from .specfn import log_gamma_orders

__all__ = [
    "CoeffKind",
    "CoeffTable",
    "RadiusEstimate",
    "MAX_ORDER",
    "euler_alpha",
    "a_coeffs",
    "carrying_capacity_hypothesis",
    "radius_carrying_capacity",
    "radius_zero_capacity",
    "empirical_radius",
]

#: largest supported table order; beyond this the entries overflow binary64
#: for small alpha well before they could be useful.
MAX_ORDER = 200

#: minimum number of non-vanishing coefficients for a root-test estimate.
_MIN_ROOT_TEST = 20


class CoeffKind(enum.Enum):
    EULER_ALPHA = "euler-alpha"
    A_COEFF = "a-coeff"


@dataclass(frozen=True)
class CoeffTable:
    """A finite prefix ``values[0..K]`` of a coefficient sequence."""

    alpha: float
    kind: CoeffKind
    values: tuple[float, ...]

    @property
    def order(self) -> int:
        """Largest index K held by the table."""
        return len(self.values) - 1


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence-radius information, in time units.

    ``theoretical`` is a guaranteed lower bound (when one is known for the
    sequence at hand); ``empirical`` is the root-test estimate from the
    tail of a finite table, derived from ``k_used`` coefficients.
    """

    theoretical: Optional[float] = None
    empirical: Optional[float] = None
    k_used: int = 0


def _check_order(K: int) -> None:
    if K < 0:
        raise DomainError(f"table order must be >= 0, got {K}")
    if K > MAX_ORDER:
        raise DomainError(f"table order capped at {MAX_ORDER}, got {K}")


def _recurse(alpha: float, K: int, c0: float, keep_linear: bool) -> tuple[float, ...]:
    """Shared quadratic-convolution recursion for both sequences.

    ``keep_linear`` selects ``c_{k+1} = c_k - conv`` (alpha-Euler) versus
    ``c_{k+1} = -conv`` (A-coefficients), where ``conv`` is the weighted
    self-convolution of the prefix at order k with the Gamma-ratio weight
    ``R(i, j, k)``.
    """
    lg = log_gamma_orders(alpha, K)
    vals = [c0]
    for k in range(K):
        conv = 0.0
        for i in range(k + 1):
            conv += math.exp(lg[k] - lg[i] - lg[k - i]) * vals[i] * vals[k - i]
        nxt = (vals[k] - conv) if keep_linear else -conv
        if not math.isfinite(nxt):
            raise NumericOverflowError(
                f"coefficient overflow at index {k + 1} (alpha={alpha})"
            )
        vals.append(nxt)
    return tuple(vals)


def euler_alpha(alpha: float, K: int) -> CoeffTable:
    """alpha-Euler numbers E_0..E_K for the carrying-capacity series."""
    if not 0 < alpha <= 1:
        raise DomainError(f"euler_alpha requires alpha in (0, 1], got {alpha}")
    _check_order(K)
    return CoeffTable(alpha, CoeffKind.EULER_ALPHA, _recurse(alpha, K, 0.5, True))


def a_coeffs(alpha: float, K: int, a0: float = 0.5) -> CoeffTable:
    """A-coefficients A_0..A_K for the zero-capacity (pure decay) series.

    ``a0`` is the initial datum u(0); the canonical solution uses 1/2, the
    rescaled construction (see ``series.rescaled_zero_capacity_series``)
    admits any a0 in (0, 1).
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"a_coeffs requires alpha in (0, 1], got {alpha}")
    if not 0 < a0 < 1:
        raise DomainError(f"a_coeffs requires a0 in (0, 1), got {a0}")
    _check_order(K)
    return CoeffTable(alpha, CoeffKind.A_COEFF, _recurse(alpha, K, a0, False))


def carrying_capacity_hypothesis(alpha: float, b: float) -> bool:
    """The carrying-capacity series hypothesis: b > 0 and b^(1/alpha) < 1.

    b > 0 is the endemic regime c > 0; b^(1/alpha) < 1 keeps the
    guaranteed radius of :func:`radius_carrying_capacity` meaningful.
    """
    return b > 0 and b ** (1.0 / alpha) < 1.0


def radius_carrying_capacity(alpha: float, b: float) -> float:
    """Guaranteed convergence radius of the carrying-capacity series.

        r = b^(-1/alpha) * (Gamma(alpha+1) Gamma(3 alpha+1)
                            / Gamma(2 alpha+1))^(1/(2 alpha))

    Requires the series hypothesis b^(1/alpha) < 1.  At alpha = 1 this is
    sqrt(3)/b.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"radius requires alpha in (0, 1], got {alpha}")
    if not carrying_capacity_hypothesis(alpha, b):
        raise HypothesisError(
            f"carrying-capacity series needs 0 < b^(1/alpha) < 1; "
            f"got b={b}, alpha={alpha}"
        )
    lg = log_gamma_orders(alpha, 3)
    g = math.exp(lg[1] + lg[3] - lg[2])
    return b ** (-1.0 / alpha) * g ** (1.0 / (2.0 * alpha))


def radius_zero_capacity(alpha: float, a0: float = 0.5) -> float:
    """Guaranteed radius |a0|^(1/alpha) of the zero-capacity series."""
    if not 0 < alpha <= 1:
        raise DomainError(f"radius requires alpha in (0, 1], got {alpha}")
    if not 0 < a0 < 1:
        raise DomainError(f"radius requires a0 in (0, 1), got {a0}")
    return a0 ** (1.0 / alpha)


def _theoretical_for(table: CoeffTable, b_scale: float) -> Optional[float]:
    """Matching guaranteed radius for a table/scale pair, if one is known."""
    if table.kind is CoeffKind.A_COEFF and b_scale == 1.0 and 0 < abs(table.values[0]) < 1:
        return radius_zero_capacity(table.alpha, abs(table.values[0]))
    if table.kind is CoeffKind.EULER_ALPHA and carrying_capacity_hypothesis(table.alpha, b_scale):
        return radius_carrying_capacity(table.alpha, b_scale)
    return None


def empirical_radius(table: CoeffTable, b_scale: float = 1.0) -> RadiusEstimate:
    """Root-test radius estimate from the tail of a coefficient table.

    The radius of ``sum_k c_k b^k t^(alpha k) / Gamma(alpha k + 1)`` is
    ``(limsup_k |c_k b^k / Gamma(alpha k + 1)|^(1/k))^(-1/alpha)``.  The
    limsup is estimated by the *maximum* of the k-th roots over the last
    half of the table: a tail maximum, because structurally vanishing
    entries (even-index alpha-Euler numbers) make the pointwise root
    oscillate.
    """
    if not b_scale > 0:
        raise DomainError(f"b_scale must be positive, got {b_scale}")
    vals = table.values
    bearing = sum(1 for v in vals if v != 0.0)
    if bearing < _MIN_ROOT_TEST or table.order < _MIN_ROOT_TEST:
        raise InsufficientDataError(
            f"root test needs a table of order >= {_MIN_ROOT_TEST} with >= "
            f"{_MIN_ROOT_TEST} non-vanishing coefficients, got order "
            f"{table.order} with {bearing}"
        )
    K = table.order
    # last half of the table, widened if needed so the window itself holds
    # at least _MIN_ROOT_TEST coefficients
    lo = min(K // 2, K + 1 - _MIN_ROOT_TEST)
    log_b = math.log(b_scale)
    lg = log_gamma_orders(table.alpha, K)
    best = -math.inf
    for k in range(max(lo, 1), K + 1):
        if vals[k] == 0.0:
            continue
        root = (math.log(abs(vals[k])) + k * log_b - lg[k]) / k
        best = max(best, root)
    radius = math.exp(-best / table.alpha)
    return RadiusEstimate(
        theoretical=_theoretical_for(table, b_scale),
        empirical=radius,
        k_used=K + 1 - lo,
    )
