"""Special functions and the package's one power-series kernel.

The one-parameter Mittag-Leffler function

    E_a(z) = sum_{k>=0} z^k / Gamma(a k + 1)

is evaluated by its defining power series, which has infinite radius of
convergence; it is cut by the stopping rule below, after at most
``_MAX_TERMS`` terms.  The small- and large-time asymptotic companions
of E_a(-|r| t^a) are exposed separately rather than auto-switched.

Every series of the package is normalised by Gamma(a k + 1):
:func:`log_gamma_orders` is the one source of those log-Gammas, and
:func:`gamma_ratios` caches the ratios Gamma(a k + 1) / Gamma(a k + a + 1).
They step the terms of :func:`mittag_leffler` and the recursions of
:mod:`fracsis.coeffs`, whose tables then carry the normalisation.

One kernel, :func:`_sum_terms`, sums every power series of the package
and holds their stopping rule: the series terms ``d_k x^k`` of
:mod:`fracsis.series` and the terms of :func:`mittag_leffler`.  The rule
is five module constants: a sum is accepted once ``_STOP_STREAK``
consecutive terms fall below ``_ABS_TOL`` in absolute value and is
abandoned after ``_MAX_TERMS`` terms (or the end of a shorter table).
Only the series apply its divergence rule, ``_GROW_STREAK`` consecutive
growing terms once ``_GROW_MIN_K`` terms are summed: E_a is entire, and
its terms may grow on the way to convergence (for E_0.5(3) from k = 10
to k = 17).  A series of the solution is truncated, as in the paper, by
the order of its coefficient table.

All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "log_gamma_orders",
    "gamma_ratios",
    "mittag_leffler",
    "ml_asymptotics",
]


#: a term below this in absolute value is negligible
_ABS_TOL = 1e-14
#: consecutive negligible terms required by the stopping rule of every
#: power series in the package
_STOP_STREAK = 3
#: terms summed at most, d_0 (or 1) included
_MAX_TERMS = 500
#: consecutive growing (non-negligible) terms that flag divergence ...
_GROW_STREAK = 5
#: ... once at least this many terms have been summed
_GROW_MIN_K = 10

#: node columns per term matrix: at K = 200 a chunk is about 200 KB, and
#: chunks of 64 to 256 columns ran 2x faster than one 199 x 1001 matrix
_CHUNK = 128
#: first row budget of a chunk, doubled for the nodes still running:
#: zero-capacity nodes stop after 21 to 38 terms on average, where a
#: full-depth 199-row matrix was slower than a scalar loop
_FIRST_ROWS = 32


def log_gamma_orders(alpha: float, K: int) -> list[float]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order."""
    return [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]


@lru_cache(maxsize=64)
def gamma_ratios(alpha: float, order: int) -> tuple[float, ...]:
    """ratios[k] = Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1), k = 0..order-1."""
    lg = log_gamma_orders(alpha, order)
    return tuple(math.exp(lg[k - 1] - lg[k]) for k in range(1, order + 1))


def _term_matrix(
    x: np.ndarray, d, r, rows: int, grow: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``rows`` terms past ``t_0`` at the nodes ``x`` and find each stop.

    Row ``k - 1`` holds ``t_k = d_k prod_{j<k} (x r_j)``, where ``d_k = 1``
    (and ``t_0 = 1``) if ``d`` is None and ``r_j = 1`` if ``r`` is None;
    sequential accumulates down the rows round as a scalar loop would.
    Returns, per column, whether the stopping rule fired, the terms used,
    ``converged``, and the partial sum and the term at the stop (else at
    the last row).  Rows past a stop may overflow; they are never read.
    """
    first = 1.0 if d is None else d[0]
    terms = np.empty((rows, x.size))
    np.multiply(x, 1.0 if r is None else r[:rows, None], out=terms)
    np.multiply.accumulate(terms, axis=0, out=terms)
    if d is not None:
        terms *= d[1 : rows + 1, None]
    totals = np.empty((rows + 1, x.size))
    totals[0] = first
    totals[1:] = terms
    np.add.accumulate(totals, axis=0, out=totals)

    # |term| and negligibility, padded above by _STOP_STREAK rows that
    # stand for t_0: it opens the growth comparison as a non-negligible term
    pad = _STOP_STREAK
    mag = np.empty((pad + rows, x.size))
    mag[:pad] = abs(first)
    np.abs(terms, out=mag[pad:])
    neg = np.zeros((pad + rows, x.size), dtype=bool)
    np.less(mag[pad:], _ABS_TOL, out=neg[pad:])
    # converged: the row ends a run of _STOP_STREAK negligible terms.
    # prev: the previous non-negligible |term|, found within pad rows back
    # because no earlier row ended such a run
    converged = neg[pad:].copy()
    prev = mag[:rows].copy() if grow else None
    for lo in range(1, pad):
        converged &= neg[lo : lo + rows]
        if grow:
            np.copyto(prev, mag[lo : lo + rows], where=~neg[lo : lo + rows])
    stop = converged
    if grow:
        up = ~neg[pad:] & (mag[pad:] > prev)
        up[: _GROW_MIN_K - 1] = False
        # the growth streak restarts at each non-negligible term that does
        # not grow; the count of growing terms never decreases, so its
        # running maximum over those rows is its value at the latest one
        count = np.cumsum(up, axis=0)
        restart = np.where(neg[pad:] | up, 0, count)
        np.maximum.accumulate(restart, axis=0, out=restart)
        stop = converged | (count - restart >= _GROW_STREAK)

    stopped = stop.any(axis=0)
    last = np.where(stopped, stop.argmax(axis=0), rows - 1)
    cols = np.arange(x.size)
    return stopped, last + 2, converged[last, cols], totals[last + 1, cols], terms[last, cols]


def _sum_terms(
    x: np.ndarray, d=None, ratios=None, grow: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums, terms used, ``converged`` flags and last terms at the nodes ``x``.

    At most ``_MAX_TERMS`` terms of :func:`_term_matrix`, and no more than
    the table ``d`` holds; ``ratios(n)`` gives the first n ratios and
    ``grow`` turns the divergence rule on.  Nodes go in chunks of
    ``_CHUNK``; those not stopped retry with twice the rows.  With ``grow``
    off (E_alpha, whose caller raises at any unconverged node) the chunks
    after the first one holding an unconverged node are not summed: their
    nodes read unconverged, and the first unconverged node keeps its last term.
    """
    cap = (_MAX_TERMS if d is None else min(len(d), _MAX_TERMS)) - 1
    first = 1.0 if d is None else d[0]
    total, last = np.full(x.size, first), np.full(x.size, first)
    used, converged = np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool)
    r = None if ratios is None else np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, x.size if cap else 0, _CHUNK):
            cols = np.arange(start, min(start + _CHUNK, x.size))
            rows = min(_FIRST_ROWS, cap)
            while cols.size:
                if r is not None and r.size < rows:
                    r = np.asarray(ratios(rows))
                stopped, n, ok, s, t = _term_matrix(x[cols], d, r, rows, grow)
                done = stopped | (rows == cap)
                at = cols[done]
                total[at], used[at], converged[at], last[at] = s[done], n[done], ok[done], t[done]
                cols, rows = cols[~done], min(2 * rows, cap)
            if not grow and not converged[start : start + _CHUNK].all():
                break
    return total, used, converged, last


def mittag_leffler(alpha: float, z) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0, 1].

    Sums z^k / Gamma(alpha k + 1), each term the previous one times z and
    a ratio of :func:`gamma_ratios`; E_alpha(0) = 1 exactly.  alpha = 1 is
    summed too, not taken as exp, so E_1 shares the cancellation of the
    series on the negative axis (E_1(-20) is ~100x too large; ROADMAP 1).

    ``z`` is a float (giving a float) or an array, summed by one kernel
    call (:func:`_sum_terms`) with a column per z; as even one column
    costs tens of microseconds, pass many points as one array.  Raises
    :class:`NonConvergenceError`, naming the first z at fault and its last
    term, if the stopping rule has not fired within ``_MAX_TERMS`` terms.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=float)
    ratios = partial(gamma_ratios, alpha)
    total, _, converged, last = _sum_terms(zs.ravel(), ratios=ratios, grow=False)
    if not converged.all():
        i = int(converged.argmin())
        raise NonConvergenceError(
            f"Mittag-Leffler series not converged after {_MAX_TERMS} terms "
            f"(alpha={alpha}, z={float(zs.flat[i])}); last term {last[i]:.3e}"
        )
    return float(total[0]) if zs.ndim == 0 else total.reshape(zs.shape)


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
