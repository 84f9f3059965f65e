"""Coefficient sequences of the fractional power-series solutions.

Both sequences are stored normalised, as ``d_k = c_k / Gamma(alpha k + 1)``,
so that the series evaluator sums ``sum_k d_k x^k`` with
``x = s * t^alpha`` for a scale ``s`` it applies.  In this form the
fractional convolution weight cancels from both recursions, and a table
stays finite for every alpha in (0, 1] up to :data:`MAX_ORDER`.  With
``S_k = sum_{i=0..k} d_i d_{k-i}`` and ``r_k = Gamma(alpha k + 1) /
Gamma(alpha k + alpha + 1)``:

* alpha-Euler numbers ``E_k`` for the carrying-capacity logistic equation
  ``D^alpha v = v (1 - v) / M^alpha`` with ``v(0) = 1/2``:
  ``d_0 = 1/2`` and ``d_{k+1} = r_k (d_k - S_k)``.  Every even-index
  entry past ``E_0`` vanishes, and at alpha = 1 the table reduces to the
  Taylor coefficients of the sigmoid ``1 / (1 + e^{-t})``.

* A-coefficients ``A_k`` for the pure-decay equation ``D^alpha u = -u^2``
  with ``u(0) = a0``: ``d_0 = a0`` and ``d_{k+1} = -r_k S_k``.  At
  alpha -> 1 with ``a0 = 1/2`` the ``A_k`` reduce to the Taylor
  coefficients of ``1 / (t + 2)``, i.e. ``(-1)^k k! / 2^(k+1)``.

Both tables come from one kernel, :func:`_square_recursion`, which
fixes their rounding (:func:`_recurse` derives each table from it).
:func:`log_gamma_orders` is the one source of the log-Gammas by which
every series of the package is normalised, and :attr:`CoeffTable.values`
the one view of the unnormalised ``c_k`` (``E_k`` or ``A_k``).  The
module also provides the guaranteed convergence radii of both series and
an empirical root-test estimate from a finite coefficient table
(:func:`empirical_radius`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Optional

import numpy as np

from ._cache import _CACHE_SIZE, _compiled
from .errors import (
    DomainError,
    HypothesisError,
    InsufficientDataError,
    NumericOverflowError,
    check_alpha,
)

__all__ = [
    "log_gamma_orders",
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

#: most orders per block of :func:`_square_recursion`
_BLOCK = 16


@lru_cache(maxsize=_CACHE_SIZE)
def log_gamma_orders(alpha: float, K: int) -> tuple[float, ...]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order.

    One read-only tuple per (alpha, K), shared by every caller.
    """
    return tuple(math.lgamma(alpha * k + 1.0) for k in range(K + 1))


class CoeffKind(enum.Enum):
    EULER_ALPHA = "euler-alpha"
    A_COEFF = "a-coeff"


@dataclass(frozen=True)
class CoeffTable:
    """A finite prefix ``d[0..K]`` of a normalised coefficient sequence.

    ``d[k] = c_k / Gamma(alpha k + 1)``; ``d[0] = c_0``.  The entries'
    logarithms, the root test of :func:`empirical_radius` and the hash are
    kept on the table, out of its fields.
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

        Formed in log space, each ``copysign(exp(log|d_k| + lgamma(alpha k
        + 1)), d_k)`` from the table's cached ``log|d_k|``, so no Gamma is
        formed on its own.  Raises :class:`NumericOverflowError` at the
        first c_k beyond binary64.
        """
        logs = list(map(add, self._log_abs, log_gamma_orders(self.alpha, self.order)))
        try:
            return tuple(map(math.copysign, map(math.exp, logs), self.d))
        except OverflowError:
            for k, v in enumerate(logs):
                try:
                    math.exp(v)
                except OverflowError:
                    raise NumericOverflowError(
                        f"coefficient overflow at index {k} (alpha={self.alpha})"
                    ) from None
            raise

    @cached_property
    def _log_abs(self) -> tuple[float, ...]:
        """log|d_k|, -inf at a zero, computed once per table object: the
        one log pass of :attr:`values` and :func:`_root_test`."""
        return tuple([math.log(abs(v)) if v else -math.inf for v in self.d])

    @cached_property
    def _root(self) -> tuple[float, int, int]:
        """:func:`_root_test` of the table, computed once per table object."""
        return _root_test(self._log_abs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.alpha, self.kind, self.d))

    def __hash__(self) -> int:
        """The hash of the fields, as the dataclass's own, computed once per
        table object: a cache keyed by the table does not hash ``d`` again."""
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
        raise DomainError(f"table order K must be >= 0, got K={K}")
    if K > MAX_ORDER:
        raise DomainError(f"table order K is capped at {MAX_ORDER}, got K={K}")


def _sq_block_source() -> str:
    """Source of ``_sq_block(m, X, Q, P)``, orders m0..m0+m-1 of a block of
    :func:`_square_recursion`, written out for ``_BLOCK`` orders.

    X holds x_0..x_14, Q the block's q_m and P its known-prefix sums, each
    zero-padded to its full length.  The block's new entries are Y0, Y1,
    ...: order k's in-block pairs are ``T = 0.0 + X0*Y{k-1} + ... +
    X{k-1}*Y0``, added left to right from 0.0, then
    ``Y{k} = -Q{k} * (P{k} + (T + T))``.  Returns (Y0, ..., Y{m-1}).
    """
    def names(c: str, n: int) -> str:
        return ", ".join(f"{c}{i}" for i in range(n))

    lines = [
        "def _sq_block(m, X, Q, P):",
        f"    {names('X', _BLOCK - 1)} = X",
        f"    {names('Q', _BLOCK)} = Q",
        f"    {names('P', _BLOCK)} = P",
    ]
    for k in range(_BLOCK):
        pairs = "".join(f" + X{i} * Y{k - 1 - i}" for i in range(k))
        ret = f"return ({names('Y', k + 1)},)"
        lines += [f"    T = 0.0{pairs}", f"    Y{k} = -Q{k} * (P{k} + (T + T))"]
        lines += [f"    {ret}"] if k == _BLOCK - 1 else [f"    if m == {k + 1}:", f"        {ret}"]
    return "\n".join(lines) + "\n"


def _square_recursion(x0: float, q: list[float], n: int) -> list[float]:
    """x_0..x_n of x_{m+1} = -q_m S_m, S_m = sum_{i+j=m} x_i x_j, from x_0 = x0.

    The one kernel of both tables (see :func:`_recurse`).  It runs in
    blocks of orders m0..m0+B-1, with x_0..x_m0 known at the block's start
    and B at most ``_BLOCK`` and at most m0 + 1: 1, 2, 4, 8, then 16
    orders.  So a pair (i, j) of a block's S_m has at most one index past
    m0.  One ``np.convolve`` of the known prefix, zero past x_m0, prices
    every pair of it for all of the block's orders at once; each order
    then adds its in-block pairs, at most 15 and each doubled, in one call
    of the generated straight-line function ``_sq_block``.  The blocks
    start at the same orders whatever n is, so x_0..x_n is a prefix, bit
    for bit, of the sequence to any larger n.

    Any order of summation does: where q_m > 0 and x0 > 0, as in both
    tables, x_m alternates in sign by induction, so every pair of S_m has
    the sign (-1)^m, S_m has condition number 1, and each S_m is within
    about m eps of its exact value.  Against the same recursion with each
    S_m correctly rounded by ``math.fsum``, the tables to order 200 were
    within 8.4e-15 relative (median 1e-15) over 400 random alphas and
    x0, and against a 60-digit recursion the errors of both were the
    same to within 7%, 1.2e-14 to 3.2e-13, set by the rounding of q.
    """
    block = _compiled(_sq_block_source)
    # zero past the known prefix, and long enough that every block reads
    # _BLOCK prefix sums
    x = np.zeros(n + _BLOCK)
    x[0] = x0
    q = q + [0.0] * _BLOCK
    m0 = 0
    while m0 < n:
        b = min(_BLOCK, m0 + 1, n - m0)
        prefix = np.convolve(x[: m0 + _BLOCK], x[: m0 + 1], "valid").tolist()
        x[m0 + 1 : m0 + b + 1] = block(b, x[: _BLOCK - 1].tolist(), q[m0 : m0 + _BLOCK], prefix)
        m0 += b
    return x[: n + 1].tolist()


def _recurse(alpha: float, K: int, a0: float, euler: bool) -> tuple[float, ...]:
    """d_0..d_K of the alpha-Euler table if ``euler``, else of the A-table
    from d_0 = a0, each by :func:`_square_recursion`.

    With r_k = ``exp(lg[k] - lg[k + 1])``, the A-table is the kernel's
    sequence from x_0 = a0 with q = r.  The alpha-Euler table starts from
    d_0 = 1/2, whatever ``a0`` is.  Its d_1 is r_0 (1/2 - 1/4) = r_0 / 4,
    exactly.  At odd k the one non-zero pair of S_k is d_0 d_k, twice, so
    S_k = d_k and d_{k+1} = 0; at even k >= 2, d_k = 0 and S_k pairs odd
    indices only.  So its odd entries e_m = d_{2m+1} are the kernel's
    sequence from e_0 = r_0 / 4 with q_m = r_{2m+2}, and every even entry
    past d_0 is 0.0: d_k - S_k is never formed, and cannot cancel.
    """
    lg = log_gamma_orders(alpha, K)
    r = [math.exp(lg[k] - lg[k + 1]) for k in range(K)]
    if not euler:
        return tuple(_square_recursion(a0, r, K))
    d = [0.0] * (K + 1)
    d[0] = 0.5
    if K:
        d[1::2] = _square_recursion(r[0] / 4, r[2::2], (K - 1) // 2)
    return tuple(d)


@lru_cache(maxsize=_CACHE_SIZE)
def _table(alpha: float, K: int, a0: float, kind: CoeffKind) -> CoeffTable:
    """The table of :func:`_recurse`, cached per (alpha, K, a0, kind) below
    :func:`euler_alpha` and :func:`a_coeffs`, so their argument checks run
    on every call."""
    return CoeffTable(alpha, kind, _recurse(alpha, K, a0, kind is CoeffKind.EULER_ALPHA))


def euler_alpha(alpha: float, K: int) -> CoeffTable:
    """alpha-Euler numbers E_0..E_K for the carrying-capacity series."""
    check_alpha(alpha, "euler_alpha requires alpha")
    _check_order(K)
    return _table(alpha, K, 0.5, CoeffKind.EULER_ALPHA)


def a_coeffs(alpha: float, K: int, a0: float = 0.5) -> CoeffTable:
    """A-coefficients A_0..A_K for the zero-capacity (pure decay) series.

    ``a0`` is the initial datum u(0); the canonical solution uses 1/2, the
    rescaled construction (see ``series.rescaled_zero_capacity_series``)
    admits any a0 in (0, 1).
    """
    check_alpha(alpha, "a_coeffs requires alpha")
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
    check_alpha(alpha, "radius requires alpha")
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
    check_alpha(alpha, "radius requires alpha")
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


def _root_test(log_abs: tuple[float, ...]) -> tuple[float, int, int]:
    """The part of :func:`empirical_radius` that reads only the table, from
    its ``log|d_k|`` (-inf at a zero).

    Returns the tail maximum of ``log|d_k| / k``, the window start ``lo``
    and the count of non-vanishing entries.  The window is the last half
    of the table, widened if needed so that it holds at least
    ``_MIN_ROOT_TEST`` coefficients.  A vanishing entry's -inf / k never
    raises the maximum.
    """
    K = len(log_abs) - 1
    lo = min(K // 2, K + 1 - _MIN_ROOT_TEST)
    best = max([-math.inf, *(log_abs[k] / k for k in range(max(lo, 1), K + 1))])
    return best, lo, K + 1 - log_abs.count(-math.inf)
