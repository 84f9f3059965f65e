"""Coefficient sequences of the fractional power-series solutions.

Both sequences are stored normalised, as ``d_k = c_k / Gamma(alpha k + 1)``,
so that the series evaluator sums ``sum_k d_k x^k`` with
``x = s * t^alpha`` for a scale ``s`` it applies.  In this form the
fractional convolution weight cancels from both recursions, and a table
stays finite for every alpha in (0, 1] up to :data:`MAX_ORDER`.  With
``S_k = sum_{i=0..k} d_i d_{k-i}`` and ``r_k = Gamma(alpha k + 1) /
Gamma(alpha k + alpha + 1)``, formed as ``exp(lg[k] - lg[k+1])`` from the
table's own log-Gammas ``lg = log_gamma_orders(alpha, K)``
(:func:`fracsis.specfn.log_gamma_orders`, cached per (alpha, K)):

* alpha-Euler numbers ``E_k`` for the carrying-capacity logistic equation
  ``D^alpha v = v (1 - v) / M^alpha`` with ``v(0) = 1/2``:
  ``d_0 = 1/2`` and ``d_{k+1} = r_k (d_k - S_k)``.  Every even-index
  entry past ``E_0`` vanishes, and at alpha = 1 the table reduces to the
  Taylor coefficients of the sigmoid ``1 / (1 + e^{-t})``.

* A-coefficients ``A_k`` for the pure-decay equation ``D^alpha u = -u^2``
  with ``u(0) = a0``: ``d_0 = a0`` and ``d_{k+1} = -r_k S_k``.  At
  alpha -> 1 with ``a0 = 1/2`` the ``A_k`` reduce to the Taylor
  coefficients of ``1 / (t + 2)``, i.e. ``(-1)^k k! / 2^(k+1)``.

:attr:`CoeffTable.values` is the one view of the unnormalised ``c_k``
(``E_k`` or ``A_k``), formed from the same cached log-Gammas; it
refuses, with :class:`NumericOverflowError`, an entry beyond binary64.
The module also provides the guaranteed convergence radii of both
series and an empirical root-test estimate from a finite coefficient
table.

Tables are cached per (alpha, K, d0, kind) under the package's one
cache policy (:mod:`fracsis._cache`), below :func:`euler_alpha` and
:func:`a_coeffs`, so their argument checks run on every call and a
repeated call returns the same frozen table.  The part of
:func:`empirical_radius` that reads only the table (its tail maximum,
window and count of non-vanishing entries) is computed once per table
object; each call still checks its ``b_scale`` and applies it.  So are
the table's form for the summation kernel, with the thresholds of its
stopping rule (``CoeffTable._terms``, see :mod:`fracsis.specfn`), and its
hash.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from ._cache import _CACHE_SIZE
from .errors import (
    DomainError,
    HypothesisError,
    InsufficientDataError,
    NumericOverflowError,
)
from .specfn import _series_table, _Table, log_gamma_orders

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

#: largest supported table order: it bounds the O(K^2) recursion, whose
#: normalised entries stay finite for every alpha in (0, 1] up to here.
MAX_ORDER = 200

#: minimum number of non-vanishing coefficients for a root-test estimate.
_MIN_ROOT_TEST = 20


class CoeffKind(enum.Enum):
    EULER_ALPHA = "euler-alpha"
    A_COEFF = "a-coeff"


@dataclass(frozen=True)
class CoeffTable:
    """A finite prefix ``d[0..K]`` of a normalised coefficient sequence.

    ``d[k] = c_k / Gamma(alpha k + 1)``; ``d[0] = c_0``.  The root test
    of :func:`empirical_radius`, the kernel table and the hash are kept
    on the table, out of its fields.
    """

    alpha: float
    kind: CoeffKind
    d: tuple[float, ...]

    @property
    def order(self) -> int:
        """Largest index K held by the table."""
        return len(self.d) - 1

    @property
    def values(self) -> tuple[float, ...]:
        """The unnormalised coefficients ``c_k = d_k Gamma(alpha k + 1)``.

        Formed in log space, so no Gamma is formed on its own.  Raises
        :class:`NumericOverflowError` at the first c_k beyond binary64.
        """
        vals = []
        for k, (dk, lg) in enumerate(zip(self.d, log_gamma_orders(self.alpha, self.order))):
            try:
                vals.append(math.copysign(math.exp(math.log(abs(dk)) + lg), dk) if dk else dk)
            except OverflowError:
                raise NumericOverflowError(
                    f"coefficient overflow at index {k} (alpha={self.alpha})"
                ) from None
        return tuple(vals)

    @cached_property
    def _root(self) -> tuple[float, int, int]:
        """:func:`_root_test` of ``d``, computed once per table object."""
        return _root_test(self.d)

    @cached_property
    def _terms(self) -> _Table:
        """``d`` as the summation kernel's table, with the thresholds of its
        stopping rule, computed once per table object."""
        return _series_table(self.d)

    @cached_property
    def _hash(self) -> int:
        return hash((self.alpha, self.kind, self.d))

    def __hash__(self) -> int:
        """The hash of the fields, as the dataclass's own, computed once per table object."""
        return self._hash


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence-radius information, in time units.

    ``theoretical`` is the guaranteed lower bound that a series
    constructor of :mod:`fracsis.series` pairs with its table;
    ``empirical`` is the root-test estimate from the tail of a finite
    table, derived from ``k_used`` coefficients.
    """

    theoretical: Optional[float] = None
    empirical: Optional[float] = None
    k_used: int = 0


def _check_order(K: int) -> None:
    if K < 0:
        raise DomainError(f"table order must be >= 0, got {K}")
    if K > MAX_ORDER:
        raise DomainError(f"table order capped at {MAX_ORDER}, got {K}")


def _recurse(alpha: float, K: int, d0: float, keep_linear: bool) -> tuple[float, ...]:
    """Shared quadratic-convolution recursion for both normalised sequences.

    ``keep_linear`` selects ``d_{k+1} = r_k (d_k - S_k)`` (alpha-Euler)
    versus ``d_{k+1} = -r_k S_k`` (A-coefficients), where ``S_k`` is the
    self-convolution of the prefix at order k, summed exactly.  Each
    symmetric pair ``d_i d_{k-i}`` is formed once, in one numpy product per
    order, and doubled (exact in binary64); ``math.fsum`` rounds their sum
    with the middle square, added once when k is even, correctly, so S_k
    is the same as summing each pair twice.

    From d_0 = 1/2, as :func:`euler_alpha` starts it, the alpha-Euler
    recursion skips its structural zeros: every even-index entry past d_0
    vanishes.  At odd k the one non-zero pair is d_0 d_k, which doubled is
    d_k, so d_{k+1} = r_k (d_k - d_k) = 0.0 with no sum; at even k only
    the odd-index pairs are formed.  The zero pairs skipped add nothing to
    an exact sum, so the table is the same bit for bit.
    """
    lg = log_gamma_orders(alpha, K)
    d = [d0]
    # d again, as an array: the pairs' factors d_i, i = i0, i0 + step, ..
    # below h, are its view a[i0:h:step], and their partners d_{k-i} the
    # reversed view of a[k - h + 1 : k + 1 - i0].  With structural zeros
    # the pairs start at d_1 d_{k-1} and step over the even indices
    a = np.empty(K + 1)
    a[0] = d0
    zeros = keep_linear and d0 == 0.5
    i0, step = (1, 2) if zeros else (0, 1)
    for k in range(K):
        if zeros and k % 2:
            d.append(0.0)
        else:
            h = (k + 1) // 2
            p = a[i0:h:step] * a[k - h + 1 : k + 1 - i0][::-step]
            p += p
            p = p.tolist()
            if k % 2 == 0:
                p.append(d[h] * d[h])
            s = math.fsum(p)
            d.append(math.exp(lg[k] - lg[k + 1]) * ((d[k] - s) if keep_linear else -s))
        a[k + 1] = d[k + 1]
    return tuple(d)


@lru_cache(maxsize=_CACHE_SIZE)
def _table(alpha: float, K: int, d0: float, kind: CoeffKind) -> CoeffTable:
    """The table of :func:`_recurse`, cached per (alpha, K, d0, kind)."""
    return CoeffTable(alpha, kind, _recurse(alpha, K, d0, kind is CoeffKind.EULER_ALPHA))


def euler_alpha(alpha: float, K: int) -> CoeffTable:
    """alpha-Euler numbers E_0..E_K for the carrying-capacity series."""
    if not 0 < alpha <= 1:
        raise DomainError(f"euler_alpha requires alpha in (0, 1], got {alpha}")
    _check_order(K)
    return _table(alpha, K, 0.5, CoeffKind.EULER_ALPHA)


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
    return _table(alpha, K, a0, CoeffKind.A_COEFF)


def carrying_capacity_hypothesis(b: float) -> bool:
    """The carrying-capacity series hypothesis b > 0 and b^(1/alpha) < 1: 0 < b < 1.

    b > 0 is the endemic regime c > 0; b^(1/alpha) < 1, which for alpha in
    (0, 1] is b < 1, keeps :func:`radius_carrying_capacity` meaningful.
    """
    return 0.0 < b < 1.0


def _inverse_root(b: float, alpha: float) -> float:
    """b^(-1/alpha) for b > 0, or ``math.inf`` past binary64.

    The one home of this power: ``M`` of :func:`fracsis.model.derive` and
    the scale of :func:`radius_carrying_capacity`.
    """
    try:
        return b ** (-1.0 / alpha)
    except OverflowError:
        return math.inf


def radius_carrying_capacity(alpha: float, b: float) -> float:
    """Guaranteed convergence radius of the carrying-capacity series.

        r = b^(-1/alpha) * (Gamma(alpha+1) Gamma(3 alpha+1)
                            / Gamma(2 alpha+1))^(1/(2 alpha))

    Requires the series hypothesis b^(1/alpha) < 1.  At alpha = 1 this is
    sqrt(3)/b.  A radius past binary64 is returned as ``math.inf``.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"radius requires alpha in (0, 1], got {alpha}")
    if not carrying_capacity_hypothesis(b):
        raise HypothesisError(
            f"carrying-capacity series needs 0 < b^(1/alpha) < 1; "
            f"got b={b}, alpha={alpha}"
        )
    lg = log_gamma_orders(alpha, 3)
    g = math.exp(lg[1] + lg[3] - lg[2])
    return _inverse_root(b, alpha) * g ** (1.0 / (2.0 * alpha))


def radius_zero_capacity(alpha: float) -> float:
    """Guaranteed radius (1/2)^(1/alpha) of the zero-capacity series."""
    if not 0 < alpha <= 1:
        raise DomainError(f"radius requires alpha in (0, 1], got {alpha}")
    return 0.5 ** (1.0 / alpha)


def empirical_radius(table: CoeffTable, b_scale: float = 1.0) -> RadiusEstimate:
    """Root-test radius estimate from the tail of a coefficient table.

    The radius of ``sum_k d_k (b t^alpha)^k`` is
    ``(b limsup_k |d_k|^(1/k))^(-1/alpha)``.  The
    limsup is estimated by the *maximum* of the k-th roots over the last
    half of the table: a tail maximum, because structurally vanishing
    entries (even-index alpha-Euler numbers) make the pointwise root
    oscillate.  ``theoretical`` is left None.  A radius past binary64 is
    ``math.inf``.
    """
    if not b_scale > 0:
        raise DomainError(f"b_scale must be positive, got {b_scale}")
    best, lo, bearing = table._root
    K = table.order
    if bearing < _MIN_ROOT_TEST or K < _MIN_ROOT_TEST:
        raise InsufficientDataError(
            f"root test needs a table of order >= {_MIN_ROOT_TEST} with >= "
            f"{_MIN_ROOT_TEST} non-vanishing coefficients, got order "
            f"{K} with {bearing}"
        )
    try:
        radius = math.exp(-(best + math.log(b_scale)) / table.alpha)
    except OverflowError:  # past binary64
        radius = math.inf
    return RadiusEstimate(empirical=radius, k_used=K + 1 - lo)


def _root_test(d: tuple[float, ...]) -> tuple[float, int, int]:
    """The part of :func:`empirical_radius` that reads only the table ``d``.

    Returns the tail maximum of ``log|d_k| / k``, the window start ``lo``
    and the count of non-vanishing entries.  The window is the last half
    of the table, widened if needed so that it holds at least
    ``_MIN_ROOT_TEST`` coefficients.
    """
    K = len(d) - 1
    lo = min(K // 2, K + 1 - _MIN_ROOT_TEST)
    best = -math.inf
    for k in range(max(lo, 1), K + 1):
        if d[k] != 0.0:
            best = max(best, math.log(abs(d[k])) / k)
    return best, lo, sum(1 for v in d if v != 0.0)
