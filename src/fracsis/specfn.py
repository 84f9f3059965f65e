"""Special functions and the package's one power-series kernel.

The one-parameter Mittag-Leffler function

    E_a(z) = sum_{k>=0} z^k / Gamma(a k + 1)

takes one of three routes in :func:`mittag_leffler`, chosen per z in one
vectorised pass: E_1(z) = exp(z); E_a(0) = 1; and for 0 < a < 1 and
z != 0 the inverse Laplace transform at t = 1 of s^(a-1) / (s^a - z) by
a fixed rule of ``_CONTOUR_N`` or ``_CONTOUR_N + 1`` nodes on the
parabolic contour of Weideman & Trefethen (2007, Math. Comp.
76:1341-1356), which costs the same for every z and does not cancel:
for z < 0 the trapezoidal rule (:func:`_contour`), and for z > 0 the
transform's pole z^(1/a) in closed form plus the midpoint rule on what
is left (:func:`_residue_contour`).  The small- and large-time
asymptotic companions of E_a(-|r| t^a) are exposed separately rather
than auto-switched.

Every series of the package is normalised by Gamma(a k + 1):
:func:`log_gamma_orders` is the one source of those log-Gammas, one
read-only tuple per (alpha, K) under the package's one cache policy
(:mod:`fracsis._cache`).  The recursions of :mod:`fracsis.coeffs` take
their ratios Gamma(a k + 1) / Gamma(a k + a + 1) from it, and their
tables then carry the normalisation.

One kernel, :func:`_sum_terms`, sums every power series of the package,
the terms ``d_k x^k`` of :mod:`fracsis.series`, and holds their stopping
rule.  Each call takes one series table ``d`` (``MAX_ORDER + 1`` entries
at most, see :mod:`fracsis.coeffs`), which truncates the series, as in
the paper.  The rule is four module constants: a sum is accepted once
``_STOP_STREAK`` consecutive terms fall below ``_ABS_TOL`` in absolute
value, and flagged divergent once ``_GROW_STREAK`` consecutive terms grow
after ``_GROW_MIN_K`` terms are summed.

For a fixed table both rules are thresholds in |x|.  Term k is
negligible exactly when |x| < theta_k = (_ABS_TOL / |d_k|)^(1/k), and
it outgrows the term of the previous non-zero entry p when
|x| > |d_p / d_k|^(1/(k - p)).  Each table carries the running extrema
of these thresholds over the rules' windows (:class:`_Table`, once per
coefficient table), so a node's stop is one
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
order.  So every term is built once per node, and every sum, terms used
and ``converged`` flag is the rule's, bit for bit.

All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._cache import _CACHE_SIZE, _read_only
from .errors import DomainError

__all__ = [
    "log_gamma_orders",
    "mittag_leffler",
    "ml_asymptotics",
]


#: a term below this in absolute value is negligible
_ABS_TOL = 1e-14
#: consecutive negligible terms required by the stopping rule of every
#: power series in the package
_STOP_STREAK = 3
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
#: k is within about k 2^-53 relative of |d_k| |x|^k, so its test against
#: 1e-14, or against another term, falls as the exact one would at an |x|
#: within about 2^-52 relative; the thresholds, formed in logs,
#: carry a few ulp of their logarithms.  1e-9 on |x| covers both with room
#: to spare
_MARGIN = 1e-9
#: a series table with an entry past this takes the exact rule at every node:
#: below it, |x|^k stays normal where d_k x^k is near _ABS_TOL
_MAX_FAST_D = 1e290


class _Table(NamedTuple):
    """A series table ``d`` and the thresholds in |x| of its stopping rule.

    Term k is ``d_k x^k``, negligible exactly when
    |x| < theta_k = (_ABS_TOL / |d_k|)^(1/k) (infinite where d_k = 0), and
    t_0 never is.

    * ``settle[k]``: the running maximum over j <= k of the minimum of
      theta over j - 2..j.  The stop rule first fires at the first k with
      ``settle[k] > |x|``, found by one ``np.searchsorted``.
    * ``quiet[k]``: the running maximum of theta over the non-zero
      entries up to k; the first k with ``quiet[k] > |x|`` is the first
      negligible term of a non-zero entry.  Before it, the term that a
      term k outgrows or not is that of the previous non-zero entry p (or
      t_0), which it outgrows when |x| > g_k = |d_p / d_k|^(1/(k - p)).
    * ``grow`` (negated to sort ascending): the running minimum,
      over the non-zero entries from ``_GROW_MIN_K`` on, of the maximum of
      g over a window of ``_GROW_STREAK`` of them; ``grow_at`` is the index
      k that ends each window, then ``len(d)``.  Before the first
      negligible term the growth rule first fires at ``grow_at[i]``, the
      first i with ``-grow[i] < |x|``.
    * ``exact``: every node takes the exact rule (an entry past
      ``_MAX_FAST_D``, or not finite).
    """

    d: np.ndarray
    settle: np.ndarray
    quiet: np.ndarray
    grow: np.ndarray
    grow_at: np.ndarray
    exact: bool


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
        settle=_read_only(_settle(theta)),
        quiet=_read_only(np.maximum.accumulate(np.where(a != 0.0, theta, 0.0))),
        grow=_read_only(-np.minimum.accumulate(win)),
        grow_at=_read_only(np.append(ks[_GROW_STREAK - 1 :], a.size)),
        exact=not np.abs(a).max() <= _MAX_FAST_D,
    )


@lru_cache(maxsize=_CACHE_SIZE)
def log_gamma_orders(alpha: float, K: int) -> tuple[float, ...]:
    """lgamma(alpha k + 1) for k = 0..K: the series normalisation by order.

    One read-only tuple per (alpha, K), shared by every caller.
    """
    return tuple(math.lgamma(alpha * k + 1.0) for k in range(K + 1))


def _classify(x: np.ndarray, table: _Table, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's stop index (1..cap), ``converged`` flag and whether it
    must take the exact rule, from the thresholds of ``table``.

    Every threshold test runs at |x| (1 -+ ``_MARGIN``), and a node whose
    answers differ takes the exact rule.  A node is read off the
    thresholds in three cases; every other one takes the exact rule:

    * it grows: the growth rule fires at G before the first negligible
      term F of a non-zero entry and before the stop rule's S: stop G;
    * it settles: no growth fires before min(S, F), and S <= F + 2, so
      that the terms F..S are all in the stop rule's final window, and
      negligible: stop S, converged;
    * it runs to the end: none of S, F, G falls in the table.
    """
    # row 0 at |x| (1 - _MARGIN), row 1 at |x| (1 + _MARGIN)
    band = np.abs(x) * np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]])
    s = np.searchsorted(table.settle[: cap + 1], band, "right")
    slow = s[0] != s[1]
    s = s[0]
    f = np.searchsorted(table.quiet, band, "right")
    g = table.grow_at[np.searchsorted(table.grow, -band, "right")]
    slow |= (f[0] != f[1]) | (g[0] != g[1])
    f, g = f[0], g[0]
    grows = g < np.minimum(s, f)
    settles = (s <= cap) & (s <= f + 2)
    ends = (s > cap) & (f > cap)
    slow |= ~(grows | settles | ends) | table.exact
    return np.where(grows, g, np.minimum(s, cap)), ~grows & (s <= cap), slow


def _sum_to(x: np.ndarray, table: _Table, stop: np.ndarray) -> np.ndarray:
    """Partial sums to the term t_stop at each node, stop >= 1.

    The nodes are sorted by stop, so those still summing at row k are a
    shrinking suffix.  While at least ``_WIDE`` of them are, row k is one
    step across that suffix: ``p *= x``, ``t = p * d[k]``, ``s += t``, and
    a node whose stop is k keeps its s.  The fewer than ``_WIDE`` nodes
    left finish in one block as tall as their largest stop, from their
    carried p and s: one forward ``multiply.accumulate`` for the powers,
    one multiply by ``d`` and one ``add.accumulate``.  Either way each
    term and partial sum is formed by the scalar loop's operations in its
    order, so every sum rounds as it would.  Rows of the block past a
    node's stop may overflow; they are never read.
    """
    d = table.d
    total = np.empty(x.size)
    order = np.argsort(stop)
    xs, ns = x[order], stop[order]
    top, s = 0, d[0]
    if x.size >= _WIDE:
        top = int(ns[-_WIDE])
        # the first node still summing at each row k = 1..top
        live = np.searchsorted(ns, np.arange(1, top + 1)).tolist()
        p, s, t = np.ones(x.size), np.full(x.size, s), np.empty(x.size)
        first = -1
        for k, c in enumerate(d[1 : top + 1].tolist()):
            if live[k] != first:
                first = live[k]
                xv, pv, tv, sv = xs[first:], p[first:], t[first:], s[first:]
            pv *= xv
            np.multiply(pv, c, out=tv)
            sv += tv
        lo = int(np.searchsorted(ns, top, "right"))
        total[order[:lo]] = s[:lo]
        order, xs, ns, p, s = order[lo:], xs[lo:], ns[lo:], p[lo:], s[lo:]
    if order.size:
        # row k of sums holds t_k, then the partial sum to t_k; rows below
        # top are not used
        sums = np.empty((ns[-1] + 1, order.size))
        terms = sums[top + 1 :]
        terms[:] = xs
        if top:  # from the powers the rows carried
            terms[0] *= p
        np.multiply.accumulate(terms, axis=0, out=terms)
        terms *= d[top + 1 : ns[-1] + 1, None]
        sums[top] = s
        np.add.accumulate(sums[top:], axis=0, out=sums[top:])
        total[order] = sums[ns, np.arange(order.size)]
    return total


def _rule(x: float, d: list[float]) -> tuple[float, int, bool]:
    """The stopping rule at one node, term by term.

    ``d`` is a series table as a list, each term t_k = x^k d_k built as
    :func:`_sum_to` builds it.  Returns the partial sum at the stop (else
    at the table's end), the terms used and ``converged``.  The reference
    that the thresholds stand in for; it runs where they cannot decide.
    """
    total = d[0]
    p, prev, below, grown = 1.0, abs(total), 0, 0
    for k in range(1, len(d)):
        p *= x
        t = p * d[k]
        total += t
        if abs(t) < _ABS_TOL:
            below += 1
            if below == _STOP_STREAK:
                return total, k + 1, True
            continue
        below = 0
        # a growth streak counts the non-negligible terms that outgrow the
        # previous one from _GROW_MIN_K on; any other restarts it
        grown = grown + 1 if abs(t) > prev and k >= _GROW_MIN_K else 0
        if grown == _GROW_STREAK:
            return total, k + 1, False
        prev = abs(t)
    return total, len(d), False


def _sum_terms(x: np.ndarray, table: _Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial sums, terms used and ``converged`` flags at the nodes ``x``.

    The terms of one series table (:class:`_Table`): at most ``len(d)``,
    and the divergence rule applies.  Each node's stop comes from the
    table's thresholds (:func:`_classify`) where they decide it, and its
    sum from :func:`_sum_to`.  Every other node, and every node whose sum
    is not finite (inf or nan terms break the comparisons the thresholds
    stand for), takes one call of :func:`_rule` over the table as a list,
    converted once per call here.  The results are those of the rule at
    every node, bit for bit.
    """
    d = table.d
    cap = len(d) - 1
    total = np.full(x.size, d[0])
    if not (cap and x.size):
        return total, np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        stop, converged, slow = _classify(x, table, cap)
        fast = np.flatnonzero(~slow)
        total[fast] = _sum_to(x[fast], table, stop[fast])
        used = stop + 1
        slow = np.flatnonzero(slow | ~np.isfinite(total))
        if slow.size:
            coeffs = d.tolist()
            for i, v in zip(slow.tolist(), x[slow].tolist()):
                total[i], used[i], converged[i] = _rule(v, coeffs)
    return total, used, converged


#: steps on each half of E_alpha's contour (:func:`_contour_nodes`).  Its
#: nodes reach Re s = 0.1309 N, so e^s, and the rounding of the sum, grow
#: like e^(0.13 N): N = 64 and 128 were less accurate than 32
_CONTOUR_N = 32


def _contour_nodes(n: int, start: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes s_k = s(u_k) of the parabola s(u) = n (0.1309 - 0.1194 u^2
    + 0.25 i u) at u_k = (k + start) h in [0, 3], h = 3/n, and the
    alpha-free part of their weights, h/(2 pi i) e^(s_k) s'(u_k), doubled
    where u_k > 0 to stand for the conjugate node s(-u_k).  ``start`` 0
    gives the trapezoidal rule's n + 1 nodes, 1/2 the midpoint rule's n."""
    h = 3.0 / n
    u = np.arange(start, n + 1 - start) * h
    s = n * (0.1309 - 0.1194 * u**2 + 0.25j * u)
    w = h / (2j * math.pi) * np.exp(s) * (n * (-0.2388 * u + 0.25j))
    w[u > 0] *= 2.0
    return s, w


_NODES, _WEIGHTS = _contour_nodes(_CONTOUR_N, 0.0)
#: the midpoint rule has no node on the real axis, where a pole z^(1/alpha)
#: near the trapezoidal rule's apex 0.1309 N would cancel its subtraction
_MID_NODES, _MID_WEIGHTS = _contour_nodes(_CONTOUR_N, 0.5)
#: past this |z|, D^2 below would overflow; for z < 0 the contour sum is,
#: to binary64, its limit sum_k Re w_k / -z, as |s_k^alpha| < 40, and for
#: z > 0 E_alpha is past binary64
_FAR_Z = 1e150


def _re_terms(c: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re c_k / (v_k - x) for complex c_k, v_k and real x, one row per k
    and one column per x, in real arithmetic: with D = Re v_k - x, it is
    (Re c_k D + Im c_k Im v_k) / (D^2 + (Im v_k)^2)."""
    b = v.imag[:, None]
    d = v.real[:, None] - x
    num = d * c.real[:, None]
    num += c.imag[:, None] * b
    d *= d
    d += b * b
    num /= d
    return num


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of each column of ``terms`` over its rows in their order, so
    a z gives the same bits alone or among others."""
    if terms.shape[1] == 1:
        # numpy sums a lone column in another order than it sums several
        return _node_sum(np.repeat(terms, 2, axis=1))[:1]
    return terms.sum(axis=0)


def _contour(alpha: float, z: np.ndarray) -> np.ndarray:
    """E_alpha(z) at each z < 0 of a 1-d array, 0 < alpha < 1.

    E_alpha(z) is the inverse Laplace transform at t = 1 of
    F(s) = s^(alpha-1) / (s^alpha - z), which for z < 0 has no pole on the
    principal sheet.  The trapezoidal rule on the contour of
    :func:`_contour_nodes` gives E = Re sum_k w_k / (a_k - z), with
    a_k = s_k^alpha and w_k the weights times s_k^(alpha-1), formed by
    :func:`_re_terms` for all z at once and summed over the nodes in their
    order, k = 0..N.
    """
    a = _NODES**alpha
    w = _WEIGHTS * a / _NODES
    total = _node_sum(_re_terms(w, a, np.maximum(z, -_FAR_Z)))
    far = z < -_FAR_Z
    if far.any():
        total[far] = w.real.sum() / -z[far]
    return total


def _residue_contour(alpha: float, z: np.ndarray) -> np.ndarray:
    """E_alpha(z) at each z > 0 of a 1-d array, 0 < alpha < 1.

    For z > 0, F(s) = s^(alpha-1) / (s^alpha - z) has a pole at
    p = z^(1/alpha) with residue e^p / alpha.  So has
    R(s) = (1/(s - p) - 1/s) / alpha, whose inverse transform at t = 1 is
    (e^p - 1) / alpha, and F - R has no pole off the cut, so whichever
    side of the contour p lies on,

        E = (e^p - 1) / alpha + Re sum_k w_k (F(s_k) - R(s_k))

    by the midpoint rule (the weights of ``_MID_WEIGHTS``): w_k F(s_k)
    and w_k R(s_k) = p (w_k / (alpha s_k)) / (s_k - p) each by
    :func:`_re_terms`, subtracted node by node and summed as
    :func:`_contour` sums.  R, not the bare principal part
    1/(alpha (s - p)), whose transform e^p / alpha the sum would then
    cancel, keeps both parts small where E is: for z <= 0.5 the rounding
    stays within 9 ulp of E for alpha down to 0.01, not about 4/alpha ulp.
    Where p is past ``_FAR_Z`` so is E, and e^p is inf.
    """
    y = 1.0 / alpha
    # y = 1/alpha rounded puts up to 2^-53 log p of relative error into
    # z^y, which e^p multiplies by p; so p = z^y (1 + y_lo log z), with
    # y_lo = 1/alpha - y exact
    y_lo = float(1 / Fraction(alpha) - Fraction(y))
    z = np.minimum(z, _FAR_Z)
    with np.errstate(over="ignore"):
        p = np.minimum(z**y, _FAR_Z)
        p += p * (y_lo * np.log(z))
        a = _MID_NODES**alpha
        terms = _re_terms(_MID_WEIGHTS * a / _MID_NODES, a, z)
        pole = _re_terms(_MID_WEIGHTS / (alpha * _MID_NODES), _MID_NODES, p)
        pole *= p
        terms -= pole
        return np.expm1(p) / alpha + _node_sum(terms)


def mittag_leffler(alpha: float, z) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function E_alpha(z), alpha in (0, 1].

    Each z takes one of four routes, split by sign in one vectorised pass:

    * alpha == 1: ``np.exp(z)``, bit for bit;
    * z == 0: 1.0 exactly;
    * z < 0, alpha < 1: the fixed 33-node contour of :func:`_contour`, of the same
      cost for every z.  Against a 40-digit Talbot inversion its error is
      at most 1e-12 relative for alpha in [0.01, 0.99] and z in [-50, 0),
      and out to z = -1e8 for alpha <= 0.95.  For alpha in (0.99, 1)
      E_alpha falls to its algebraic tail -1/(z Gamma(1 - alpha)), which
      vanishes as alpha -> 1, and the error is at most 1e-12 relative or
      1e-15 absolute, whichever is larger (E_0.999999(-50) is 1e-8 off
      relative, 2e-16 absolute);
    * z > 0, alpha < 1: (e^p - 1) / alpha for the pole at p = z^(1/alpha)
      plus a 32-node contour sum (:func:`_residue_contour`), of the same
      cost for every z.  Against a 40-digit Talbot inversion of
      F - 1/(alpha (s - p)), plus e^p / alpha, its error is at most 1e-12
      relative for alpha in [0.01, 1) and p <= 50, and 4e-16 (1 + p)
      relative beyond, where e^p turns p's rounding into p ulp.

    Where E_alpha(z) is past binary64 the result is ``inf``, as
    ``np.exp`` gives it, to within that accuracy of the edge, and never
    nan: E_0.5(20) is 1.0e174 and E_0.5(27) inf.  ``z`` is a float
    (giving a float) or an array, with one contour pass for all its z < 0
    and one for all its z > 0.  Besides its work per z (about 0.25-0.5 us
    for z < 0 and 0.7 us for z > 0, 2-vCPU Xeon), a call costs a fixed few dozen numpy calls,
    tens of microseconds, so pass many points as one array.  Raises
    :class:`DomainError`, naming the first non-finite z, before any sum.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=float)
    bad = np.flatnonzero(~np.isfinite(zs))
    if bad.size:
        raise DomainError(f"mittag_leffler requires a finite z, got z={float(zs.flat[bad[0]])}")
    x = zs.ravel()
    if alpha == 1:
        with np.errstate(over="ignore"):
            total = np.exp(x)
    else:
        total = np.ones(x.size)
        for side, route in ((x < 0, _contour), (x > 0, _residue_contour)):
            if side.any():
                total[side] = route(alpha, x[side])
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
