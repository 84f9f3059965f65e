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
ratios Gamma(a k + 1) / Gamma(a k + a + 1), kept with E_a's thresholds
(below) under the package's one cache policy (:mod:`fracsis._cache`).
They step the terms of :func:`mittag_leffler`, and their prefixes the
recursions of :mod:`fracsis.coeffs`, whose tables then carry the
normalisation.

One kernel, :func:`_sum_terms`, sums every power series of the package
and holds their stopping rule: the series terms ``d_k x^k`` of
:mod:`fracsis.series` and the terms of :func:`mittag_leffler`.  Each
call takes one table, and the table sets its mode.  The rule is five
module constants: a sum is accepted once ``_STOP_STREAK`` consecutive
terms fall below ``_ABS_TOL`` in absolute value, and is cut by its
table.  A series table ``d`` (``MAX_ORDER + 1`` entries at most, see
:mod:`fracsis.coeffs`) truncates the series, as in the paper, and adds
the divergence rule: ``_GROW_STREAK`` consecutive growing terms once
``_GROW_MIN_K`` terms are summed.  E_a's ratio table ``r`` makes at most
``_MAX_TERMS`` terms and no divergence rule: E_a is entire, and its
terms may grow on the way to convergence (for E_0.5(3) from k = 10 to
k = 17).

For a fixed table both rules are thresholds in |x|.  Term k is
negligible exactly when |x| < theta_k = (_ABS_TOL / |d_k|)^(1/k), and
it outgrows the term of the previous non-zero entry p when
|x| > |d_p / d_k|^(1/(k - p)).  Each table carries the running extrema
of these thresholds over the rules' windows (:class:`_Table`: per
coefficient table once, per alpha for E_a), so a node's stop is one
``np.searchsorted`` per rule, and :func:`_classify` sorts the nodes
into three classes:

* (a) the stop rule fires, or the table ends, before any growth streak
  can complete: the stop is the stop rule's index (or the table's end);
* (b) the growth rule fires at G while every earlier term of a non-zero
  entry is non-negligible: the stop is G;
* (c) everything else, each node by :func:`_rule`, one Python loop over
  its terms that applies the rule as written: nodes within ``_MARGIN``
  (1e-9 relative) of a threshold, where a computed term's rounding could
  flip a test; nodes with a negligible term of a non-zero entry before
  the stop rule's last window, or before the end of a table that never
  stops them, whose later terms the thresholds do not follow (a few near
  a table's end or its radius); tables with an entry past
  ``_MAX_FAST_D``; and every node whose partial sum is not finite.  The
  loop builds each term as :func:`_sum_to` does and ends at the node's
  stop, at 0.2-0.3 us per term (2-vCPU Xeon): cheap for the few nodes of
  a real grid (0.4 per ``series_stress`` op, none on ``paper_sweep``),
  slower than a vectorised pass where a caller packs many nodes at
  thresholds.

Classes (a) and (b) are summed to their stops by :func:`_sum_to`, with
the nodes sorted by stop.  While at least ``_WIDE`` nodes are still
summing, a row is one vectorised step across them; the fewer left finish
in one block as tall as their largest stop: one forward
``multiply.accumulate``, ``* d`` and ``add.accumulate`` from each node's
carried power and sum.  Both take the scalar loop's operations in its
order.  So every term is built once per node, and every sum, terms used,
``converged`` flag and E_a value is the rule's, bit for bit.

All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._cache import _CACHE_SIZE, _read_only
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

#: log of ``_ABS_TOL``
_LOG_TOL = math.log(_ABS_TOL)
#: nodes still summing at least, for a row of a sum to its stops to be one
#: step across them; the fewer left finish in one accumulate block.  A row
#: costs three numpy calls whatever its width, and the block about 10 ns per
#: cell (numpy's accumulate along axis 0 does not vectorise across columns).
#: Replaying 144 series_stress calls (1001 nodes each) in two sweeps of
#: opposite order, 128 to 256 took 0.36-0.65 ms per call, 32 and 512 up to
#: 0.74, and 128-node accumulate groups with no rows 0.70-0.86; at 32 to 96
#: the paper_sweep calls (101 nodes) run rows too and took 1.6-2.5x as long
#: as at 128 (medians of 9 interleaved rounds, 2-vCPU Xeon, numpy 2.4)
_WIDE = 128
#: a node's stop is read off its table's thresholds only where it is the
#: same at |x| (1 - _MARGIN) and at |x| (1 + _MARGIN).  A computed term
#: k <= 500 is within about k 2^-53 relative of |d_k| |x|^k (E_alpha's
#: rounded ratios add about 1e-12 in all), so its test against 1e-14, or
#: against another term, falls as the exact one would at an |x| within about
#: 2^-52 relative (1e-12 / k for E_alpha); the thresholds, formed in logs,
#: carry a few ulp of their logarithms.  1e-9 on |x| covers both with room
#: to spare
_MARGIN = 1e-9
#: a series table with an entry past this takes the exact rule at every node:
#: below it, |x|^k stays normal where d_k x^k is near _ABS_TOL
_MAX_FAST_D = 1e290


class _Table(NamedTuple):
    """A table of the kernel and the thresholds in |x| of its stopping rule.

    Exactly one of ``d`` (a series table: terms ``d_k x^k`` and the
    divergence rule) and ``r`` (E_alpha's ratios: terms
    ``prod_{j<k} x r_j``, no divergence rule) is set; term k has
    coefficient size |d_k|, for E_alpha 1/Gamma(alpha k + 1).  Term k is
    negligible exactly when |x| < theta_k = (_ABS_TOL / |d_k|)^(1/k)
    (infinite where d_k = 0), and t_0 never is.

    * ``settle[k]``: the running maximum over j <= k of the minimum of
      theta over j - 2..j.  The stop rule first fires at the first k with
      ``settle[k] > |x|``, found by one ``np.searchsorted``.
    * ``quiet[k]`` (series): the running maximum of theta over the non-zero
      entries up to k; the first k with ``quiet[k] > |x|`` is the first
      negligible term of a non-zero entry.  Before it, the term that a
      term k outgrows or not is that of the previous non-zero entry p (or
      t_0), which it outgrows when |x| > g_k = |d_p / d_k|^(1/(k - p)).
    * ``grow`` (series, negated to sort ascending): the running minimum,
      over the non-zero entries from ``_GROW_MIN_K`` on, of the maximum of
      g over a window of ``_GROW_STREAK`` of them; ``grow_at`` is the index
      k that ends each window, then ``len(d)``.  Before the first
      negligible term the growth rule first fires at ``grow_at[i]``, the
      first i with ``-grow[i] < |x|``.
    * ``exact``: every node takes the exact rule (an entry past
      ``_MAX_FAST_D``, or not finite).
    """

    d: Optional[np.ndarray]
    r: Optional[np.ndarray]
    settle: np.ndarray
    quiet: Optional[np.ndarray] = None
    grow: Optional[np.ndarray] = None
    grow_at: Optional[np.ndarray] = None
    exact: bool = False


def _thetas(log_abs: np.ndarray) -> np.ndarray:
    """theta_k = (_ABS_TOL / |d_k|)^(1/k) from log|d_k|, k >= 1, and 0 for t_0."""
    k = np.arange(log_abs.size)
    k[0] = 1
    with np.errstate(over="ignore"):
        theta = np.exp((_LOG_TOL - log_abs) / k)
    theta[0] = 0.0
    return theta


def _settle(theta: np.ndarray) -> np.ndarray:
    """The running maximum of theta's ``_STOP_STREAK``-term window minimum
    (0 for the first windows, which hold t_0)."""
    n = _STOP_STREAK - 1
    win = np.zeros(theta.size)
    full = win[n:]
    full[:] = theta[n:]
    for j in range(1, _STOP_STREAK):
        np.minimum(full, theta[n - j :][: full.size], out=full)
    return np.maximum.accumulate(win)


def _series_table(d: tuple[float, ...]) -> _Table:
    """The kernel table of a series table ``d``, with its thresholds."""
    a = np.array(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(a))
        theta = _thetas(log_abs)
        nonzero = np.flatnonzero(a[1:]) + 1
        prev = np.concatenate(([0], nonzero))[:-1]
        g = np.exp((log_abs[prev] - log_abs[nonzero]) / (nonzero - prev))
    late = nonzero >= _GROW_MIN_K
    g, ks = g[late], nonzero[late]
    # the maximum of g over each window of _GROW_STREAK, by its last entry
    win = g[_GROW_STREAK - 1 :].copy()
    for j in range(1, _GROW_STREAK):
        np.maximum(win, g[_GROW_STREAK - 1 - j :][: win.size], out=win)
    return _Table(
        d=_read_only(a),
        r=None,
        settle=_read_only(_settle(theta)),
        quiet=_read_only(np.maximum.accumulate(np.where(a != 0.0, theta, 0.0))),
        grow=_read_only(-np.minimum.accumulate(win)),
        grow_at=_read_only(np.append(ks[_GROW_STREAK - 1 :], a.size)),
        exact=not np.abs(a).max() <= _MAX_FAST_D,
    )


def log_gamma_orders(alpha: float, K: int) -> list[float]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order."""
    return [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]


@lru_cache(maxsize=_CACHE_SIZE)
def _ml_table(alpha: float) -> _Table:
    """E_alpha's kernel table: the ratios of :func:`gamma_ratios` and the
    thresholds of |d_k| = 1/Gamma(alpha k + 1), from one set of log-Gammas."""
    lg = log_gamma_orders(alpha, _MAX_TERMS - 1)
    r = np.array([math.exp(lg[k - 1] - lg[k]) for k in range(1, _MAX_TERMS)])
    return _Table(d=None, r=_read_only(r), settle=_read_only(_settle(_thetas(-np.array(lg)))))


def gamma_ratios(alpha: float) -> np.ndarray:
    """Read-only r[k] = Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1), k < _MAX_TERMS - 1.

    One array per alpha, cached with E_alpha's thresholds (``_ml_table``).
    """
    return _ml_table(alpha).r


def _classify(x: np.ndarray, table: _Table, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's stop index (1..cap), ``converged`` flag and whether it
    must take the exact rule, from the thresholds of ``table``.

    Every threshold test runs at |x| (1 -+ ``_MARGIN``), and a node whose
    answers differ takes the exact rule.  A series node is read off the
    thresholds in three cases; every other one takes the exact rule:

    * it grows: the growth rule fires at G before the first negligible
      term F of a non-zero entry and before the stop rule's S: stop G;
    * it settles: no growth fires before min(S, F), and S <= F + 2, so
      that the terms F..S are all in the stop rule's final window, and
      negligible: stop S, converged;
    * it runs to the end: none of S, F, G falls in the table.

    E_alpha has no growth rule: every node settles at S or runs to the end.
    """
    # row 0 at |x| (1 - _MARGIN), row 1 at |x| (1 + _MARGIN)
    band = np.abs(x) * np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]])
    s = np.searchsorted(table.settle[: cap + 1], band, "right")
    slow = s[0] != s[1]
    s = s[0]
    if table.d is None:
        return np.minimum(s, cap), s <= cap, slow
    f = np.searchsorted(table.quiet, band, "right")
    g = table.grow_at[np.searchsorted(table.grow, -band, "right")]
    slow |= (f[0] != f[1]) | (g[0] != g[1])
    f, g = f[0], g[0]
    grows = g < np.minimum(s, f)
    settles = (s <= cap) & (s <= f + 2)
    ends = (s > cap) & (f > cap)
    slow |= ~(grows | settles | ends) | table.exact
    return np.where(grows, g, np.minimum(s, cap)), ~grows & (s <= cap), slow


def _sum_to(x: np.ndarray, table: _Table, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums to the term t_stop, and that term, at each node, stop >= 1.

    The nodes are sorted by stop, so those still summing at row k are a
    shrinking suffix.  While at least ``_WIDE`` of them are, row k is one
    step across that suffix: ``p *= x`` (``p *= x * r[k-1]`` for E_alpha),
    ``t = p * d[k]``, ``s += t``, and a node whose stop is k keeps its t and
    s.  The fewer than ``_WIDE`` nodes left finish in one block as tall as
    their largest stop, from their carried p and s: one forward
    ``multiply.accumulate`` for the powers (or ratio products), one
    multiply by ``d`` and one ``add.accumulate``.  Either way each term and
    partial sum is formed by the scalar loop's operations in its order, so
    every sum rounds as it would.  Rows of the block past a node's stop
    may overflow; they are never read.
    """
    d, r = table.d, table.r
    total, last = np.empty(x.size), np.empty(x.size)
    order = np.argsort(stop)
    xs, ns = x[order], stop[order]
    top, s = 0, 1.0 if d is None else d[0]
    if x.size >= _WIDE:
        top = int(ns[-_WIDE])
        # the first node still summing at each row k = 1..top
        live = np.searchsorted(ns, np.arange(1, top + 1)).tolist()
        p, s, t = np.ones(x.size), np.full(x.size, s), np.empty(x.size)
        first = -1
        for k, c in enumerate((r[:top] if d is None else d[1 : top + 1]).tolist()):
            if live[k] != first:
                first = live[k]
                xv, pv, tv, sv = xs[first:], p[first:], t[first:], s[first:]
            if d is None:
                np.multiply(xv, c, out=tv)
                pv *= tv
                sv += pv
            else:
                pv *= xv
                np.multiply(pv, c, out=tv)
                sv += tv
        lo = int(np.searchsorted(ns, top, "right"))
        done = order[:lo]
        total[done], last[done] = s[:lo], (p if d is None else t)[:lo]
        order, xs, ns, p, s = order[lo:], xs[lo:], ns[lo:], p[lo:], s[lo:]
    if order.size:
        cols = np.arange(order.size)
        # row k of sums holds t_k, then the partial sum to t_k; rows below
        # top are not used
        sums = np.empty((ns[-1] + 1, order.size))
        terms = sums[top + 1 :]
        if d is None:
            np.multiply(xs, r[top : ns[-1], None], out=terms)
        else:
            terms[:] = xs
        if top:  # from the powers the rows carried
            terms[0] *= p
        np.multiply.accumulate(terms, axis=0, out=terms)
        if d is not None:
            terms *= d[top + 1 : ns[-1] + 1, None]
        last[order] = sums[ns, cols]
        sums[top] = s
        np.add.accumulate(sums[top:], axis=0, out=sums[top:])
        total[order] = sums[ns, cols]
    return total, last


def _rule(x: float, coeffs: list[float], series: bool) -> tuple[float, float, int, bool]:
    """The stopping rule at one node, term by term.

    ``coeffs`` is a table as a list: a series table d (``series``: t_k =
    x^k d_k, and the divergence rule applies) or E_alpha's ratios r
    (t_k = t_{k-1} x r_{k-1}, no divergence rule), each term built as
    :func:`_sum_to` builds it.  Returns the partial sum and the term at the
    stop (else at the table's end), the terms used and ``converged``.  The
    reference that the thresholds stand in for; it runs where they cannot
    decide.
    """
    total = coeffs[0] if series else 1.0
    p, prev, below, grown = 1.0, abs(total), 0, 0
    cap = len(coeffs) - 1 if series else len(coeffs)
    for k in range(1, cap + 1):
        if series:
            p *= x
            t = p * coeffs[k]
        else:
            p *= x * coeffs[k - 1]
            t = p
        total += t
        if abs(t) < _ABS_TOL:
            below += 1
            if below == _STOP_STREAK:
                return total, t, k + 1, True
            continue
        below = 0
        if series:
            # a growth streak counts the non-negligible terms that outgrow
            # the previous one from _GROW_MIN_K on; any other restarts it
            grown = grown + 1 if abs(t) > prev and k >= _GROW_MIN_K else 0
            if grown == _GROW_STREAK:
                return total, t, k + 1, False
            prev = abs(t)
    return total, t, cap + 1, False


def _sum_terms(
    x: np.ndarray, table: _Table
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums, terms used, ``converged`` flags and last terms at the nodes ``x``.

    The terms of one kernel table (:class:`_Table`), which sets the mode:

    * a series table ``d``: at most ``len(d)`` terms, and the divergence
      rule applies;
    * a ratio table ``r`` (E_alpha): at most ``len(r) + 1`` terms
      (``_MAX_TERMS`` for :func:`gamma_ratios`), no divergence rule.

    Each node's stop comes from the table's thresholds (:func:`_classify`)
    where they decide it, and its sum from :func:`_sum_to`.  Every other
    node, and every node whose sum is not finite (inf or nan terms break
    the comparisons the thresholds stand for), takes one call of
    :func:`_rule` over the table as a list, converted once per call here;
    an E_alpha node that runs to the end keeps its threshold sum: its
    terms, once one overflows, stay inf and never negligible, as the
    thresholds say.  The results are those of the rule at every node, bit
    for bit.
    """
    d, r = table.d, table.r
    cap = len(r) if d is None else len(d) - 1
    total = np.full(x.size, 1.0 if d is None else d[0])
    if not (cap and x.size):
        return total, np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool), total.copy()
    last = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        stop, converged, slow = _classify(x, table, cap)
        fast = np.flatnonzero(~slow)
        total[fast], last[fast] = _sum_to(x[fast], table, stop[fast])
        used = stop + 1
        redo = ~np.isfinite(total)
        if d is None:
            redo &= converged
        slow = np.flatnonzero(slow | redo)
        if slow.size:
            coeffs = (r if d is None else d).tolist()
            for i, v in zip(slow.tolist(), x[slow].tolist()):
                total[i], last[i], used[i], converged[i] = _rule(v, coeffs, d is not None)
    return total, used, converged, last


def mittag_leffler(alpha: float, z) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0, 1].

    Sums z^k / Gamma(alpha k + 1), each term the previous one times z and
    a ratio of :func:`gamma_ratios`; E_alpha(0) = 1 exactly.  alpha = 1 is
    summed too, not taken as exp, so E_1 shares the cancellation of the
    series on the negative axis (E_1(-20) is ~100x too large; ROADMAP 1).

    ``z`` is a float (giving a float) or an array, summed by one kernel
    call (:func:`_sum_terms`) with a column per z.  A call costs a fixed
    few dozen numpy calls, tens of microseconds, whatever its size, so
    pass many points as one array.  Raises :class:`DomainError`, naming
    the first non-finite z, before any sum, and
    :class:`NonConvergenceError`, naming the first z at fault and its last
    term, if the stopping rule has not fired within ``_MAX_TERMS`` terms.
    A z past E_alpha's last threshold cannot converge: the z after the
    first such one are not summed.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=float)
    bad = np.flatnonzero(~np.isfinite(zs))
    if bad.size:
        raise DomainError(f"mittag_leffler requires a finite z, got z={float(zs.flat[bad[0]])}")
    table, x = _ml_table(alpha), zs.ravel()
    # past the last threshold, margin included, a z cannot converge and the
    # call raises: the z after the first such one are not summed
    doomed = np.flatnonzero(np.abs(x) * (1.0 - _MARGIN) >= table.settle[-1])
    total, _, converged, last = _sum_terms(x[: doomed[0] + 1] if doomed.size else x, table)
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
    E_alpha(r t^alpha) / einf tends to 1 as t -> infinity.  A non-finite
    rate or t is refused.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"ml_asymptotics requires alpha in (0, 1), got {alpha}")
    if not (math.isfinite(lam_minus_mu) and math.isfinite(t)):
        raise DomainError(
            f"ml_asymptotics requires a finite lam - mu and t, got {lam_minus_mu} and {t}"
        )
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
