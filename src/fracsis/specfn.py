"""Special functions and the package's one power-series kernel.

The one-parameter Mittag-Leffler function

    E_a(z) = sum_{k>=0} z^k / Gamma(a k + 1)

is evaluated by its defining power series, which has infinite radius of
convergence; it is cut by the stopping rule below, after at most
``_MAX_TERMS`` terms.  The small- and large-time asymptotic companions
of E_a(-|r| t^a) are exposed separately rather than auto-switched.

Every series of the package is normalised by Gamma(a k + 1):
:func:`log_gamma_orders` is the one source of those log-Gammas, and
:func:`gamma_ratios` the one table per alpha of the ``_MAX_TERMS - 1``
ratios Gamma(a k + 1) / Gamma(a k + a + 1).  They step the terms of
:func:`mittag_leffler`, and their prefixes the recursions of
:mod:`fracsis.coeffs`, whose tables then carry the normalisation.

One kernel, :func:`_sum_terms`, sums every power series of the package
and holds their stopping rule: the series terms ``d_k x^k`` of
:mod:`fracsis.series` and the terms of :func:`mittag_leffler`.  The rule
is five module constants: a sum is accepted once ``_STOP_STREAK``
consecutive terms fall below ``_ABS_TOL`` in absolute value and is cut
by the table it is given (E_a's ratio table makes ``_MAX_TERMS`` terms).
Only the series apply its divergence rule, ``_GROW_STREAK`` consecutive
growing terms once ``_GROW_MIN_K`` terms are summed: E_a is entire, and
its terms may grow on the way to convergence (for E_0.5(3) from k = 10
to k = 17).  A series of the solution is truncated, as in the paper, by
the order of its coefficient table.

The kernel sums the nodes in chunks, one column per node and one row per
term.  A chunk's first row segment holds ``_FIRST_ROWS`` terms.  Each
later, longer segment extends only the columns still open, from the
state carried out of the segment before: running product, partial sum,
the last ``_STOP_STREAK`` terms' size and negligibility, growth streak.
So every term is built once per node, and every sum rounds as the
scalar loop over k would.

All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
from functools import lru_cache

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

#: node columns per term matrix.  A row segment costs a fixed number of
#: numpy calls plus its cells, so a chunk trades call overhead against
#: the rows its slowest node forces on the rest.  Sampling 1001 nodes
#: over the K = 200 carrying table took 2.08 / 1.82 / 1.86 / 2.24 ms at
#: 128 / 256 / 512 / 1024 columns (2-vCPU Xeon, numpy 2.4)
_CHUNK = 256
#: terms past t_0 in a chunk's first row segment.  Each extension sums at
#: least as many terms again, and at least ``_FIRST_ROWS * _CHUNK`` cells:
#: a few open nodes then go to the end of the table in one segment.
#: Against plain doubling this floor took the 101-node K = 120
#: zero-capacity / carrying samples from 215 / 260 to 172 / 237 us, the
#: 1001-node K = 200 carrying one from 1.78 to 1.64 ms and the
#: population curve from 1.16 to 1.10 ms (2-vCPU Xeon, spread under
#: 10 us); random series_stress ops were even within 1%.
#: Zero-capacity nodes stop after 21 to 38 terms on average.  At 16 / 32
#: / 64 rows the 1001-node K = 200 zero-capacity sample took 1.09 / 1.21
#: / 1.50 ms, and the carrying one at the paper's 101 nodes and K = 120
#: 0.35 / 0.29 / 0.27 ms
_FIRST_ROWS = 32


def log_gamma_orders(alpha: float, K: int) -> list[float]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order."""
    return [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]


@lru_cache(maxsize=64)
def gamma_ratios(alpha: float) -> np.ndarray:
    """Read-only r[k] = Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1), k < _MAX_TERMS - 1."""
    lg = log_gamma_orders(alpha, _MAX_TERMS - 1)
    r = np.array([math.exp(lg[k - 1] - lg[k]) for k in range(1, _MAX_TERMS)])
    r.flags.writeable = False
    return r


def _term_matrix(
    x: np.ndarray, d, r, lo: int, hi: int, grow: bool, carry: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Extend the sums at the nodes ``x`` by the terms ``t_k``, ``lo < k <= hi``.

    Row ``k - lo - 1`` holds ``t_k = d_k prod_{j<k} (x r_j)``, where
    ``d_k = 1`` (and ``t_0 = 1``) if ``d`` is None and ``r_j = 1`` if ``r``
    is None.  ``carry`` is each column's state after the term ``t_lo``:
    the running product before the ``d_k`` multiply, the partial sum,
    ``|t|`` and negligibility of the last ``_STOP_STREAK`` terms (at
    ``lo = 0`` these stand for ``t_0``), and the growth streak; a scalar
    holds for every column.  The sequential accumulates continue from
    it, so every row rounds as the scalar loop would, and no earlier row
    is built again.  Returns, per column, whether the stopping rule
    fired, the terms used, ``converged``, the partial sum and the term at
    the stop (else at ``t_hi``), and the carry after ``t_hi``, which is
    read only for the columns that did not stop.  Rows past a stop may
    overflow; they are never read.
    """
    prod, total, mag_pad, neg_pad, streak = carry
    rows, pad = hi - lo, _STOP_STREAK
    terms = np.empty((rows, x.size))
    np.multiply(x, 1.0 if r is None else r[lo:hi, None], out=terms)
    terms[0] *= prod
    np.multiply.accumulate(terms, axis=0, out=terms)
    prod = terms[-1].copy()
    if d is not None:
        terms *= d[lo + 1 : hi + 1, None]
    totals = np.empty((rows + 1, x.size))
    totals[0] = total
    totals[1:] = terms
    np.add.accumulate(totals, axis=0, out=totals)

    # |term| and negligibility, padded above by the carried last pad rows;
    # at lo = 0 those stand for t_0, which opens the growth comparison as
    # a non-negligible term
    mag = np.empty((pad + rows, x.size))
    mag[:pad] = mag_pad
    np.abs(terms, out=mag[pad:])
    neg = np.empty((pad + rows, x.size), dtype=bool)
    neg[:pad] = neg_pad
    np.less(mag[pad:], _ABS_TOL, out=neg[pad:])
    # converged: the row ends a run of _STOP_STREAK negligible terms.
    # prev: the previous non-negligible |term|, found within pad rows back
    # because no earlier row ended such a run
    converged = neg[pad:].copy()
    prev = mag[:rows].copy() if grow else None
    for j in range(1, pad):
        converged &= neg[j : j + rows]
        if grow:
            np.copyto(prev, mag[j : j + rows], where=~neg[j : j + rows])
    stop = converged
    if grow:
        up = ~neg[pad:] & (mag[pad:] > prev)
        up[: max(_GROW_MIN_K - 1 - lo, 0)] = False
        # the growth streak restarts at each non-negligible term that does
        # not grow; the count of growing terms, from the carried streak on,
        # never decreases, so its running maximum over those rows is its
        # value at the latest one.  int16 holds the count (at most 4 + 499),
        # and its accumulates ran 3x as fast as int64's
        count = np.cumsum(up, axis=0, dtype=np.int16)
        count += streak
        restart = np.where(neg[pad:] | up, 0, count)
        np.maximum.accumulate(restart, axis=0, out=restart)
        run = count - restart
        stop = converged | (run >= _GROW_STREAK)
        streak = run[-1]

    stopped = stop.any(axis=0)
    last = np.where(stopped, stop.argmax(axis=0), rows - 1)
    cols = np.arange(x.size)
    carry = (prod, totals[-1], mag[-pad:], neg[-pad:], streak)
    return (stopped, lo + last + 2, converged[last, cols], totals[last + 1, cols],
            terms[last, cols], carry)


def _sum_terms(
    x: np.ndarray, d=None, r=None, grow: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums, terms used, ``converged`` flags and last terms at the nodes ``x``.

    The terms of :func:`_term_matrix`, cut by the table given: at most
    ``len(d)`` terms of a series table ``d``, else ``len(r) + 1`` of a
    ratio table ``r`` (``_MAX_TERMS`` for :func:`gamma_ratios`).
    ``grow`` turns the divergence rule on.  Nodes go in chunks of
    ``_CHUNK``.  A chunk sums ``_FIRST_ROWS`` terms, then extends the
    columns not yet stopped from their carried state, at least doubling
    the terms summed (see ``_FIRST_ROWS``); stopped columns drop out, and
    each term is built once per node.  With ``grow`` off (E_alpha, whose
    caller raises at any unconverged node) the chunks after the first
    one holding an unconverged node are not summed: their nodes read
    unconverged, and the first unconverged node keeps its last term.
    """
    cap = len(r) if d is None else len(d) - 1
    first = 1.0 if d is None else d[0]
    total, last = np.full(x.size, first), np.full(x.size, first)
    used, converged = np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, x.size if cap else 0, _CHUNK):
            cols = np.arange(start, min(start + _CHUNK, x.size))
            # the state after t_0, the same for every column
            carry = (1.0, first, abs(first), False, 0)
            lo, hi = 0, min(_FIRST_ROWS, cap)
            while True:
                stopped, n, ok, s, t, carry = _term_matrix(x[cols], d, r, lo, hi, grow, carry)
                done = stopped | (hi == cap)
                at = cols[done]
                total[at], used[at], converged[at], last[at] = s[done], n[done], ok[done], t[done]
                if done.all():
                    break
                if done.any():
                    open_ = ~done
                    cols = cols[open_]
                    # a scalar (E_alpha's streak, never counted) holds for all
                    carry = tuple(a[..., open_] if np.ndim(a) else a for a in carry)
                lo, hi = hi, min(hi + max(hi, _FIRST_ROWS * _CHUNK // cols.size), cap)
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
    total, _, converged, last = _sum_terms(zs.ravel(), r=gamma_ratios(alpha), grow=False)
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
