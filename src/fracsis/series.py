"""Evaluation of the explicit fractional power-series solutions.

A :class:`SeriesSolution` packages a normalised coefficient table
``d_k = c_k / Gamma(alpha k + 1)`` with two scales so that every solution
in the family reads

    value(t) = scale_c * sum_k d_k x^k,    x = arg_scale * t^alpha.

* carrying-capacity case (c != 0, b^(1/alpha) < 1):  I(t) with
  ``scale_c = c`` and ``arg_scale = b`` over the alpha-Euler table, i.e.
  the k-th term is E_k b^k t^(alpha k) / Gamma(alpha k + 1).  The initial
  datum is pinned to I(0) = c/2 by the table entry d_0 = E_0 = 1/2.
* zero-capacity case (sigma = 1):  I(t) with ``scale_c = 1/beta`` and
  ``arg_scale = 1`` over the A-table; I(0) = 1/(2 beta).
* rescaled decay solution: the A-series with initial datum a0 in (0, 1)
  dilated in time by 2^q, extending its guaranteed interval of validity
  to (0, 2^q a0^(1/alpha)).

:func:`sample_trajectory` evaluates a series on a grid and records the
series' radius in the trajectory meta, so each run builds its series
once.  It reads the nodes' t^alpha from the per-(alpha, grid) cache of
:func:`fracsis.solvers.node_powers`, which ``harness.population_curve``
shares, so a grid sampled again at a repeated alpha forms no power.
A series whose ``arg_scale`` is 1, the zero-capacity one, sums the same
terms for every beta, which enters only through ``scale_c``: its
unscaled node sums, terms used and ``converged`` flags are cached per
(coefficient table, grid) under the package's one cache policy
(:mod:`fracsis._cache`).  Each sample scales them by 1/beta and builds
its meta lists afresh.  The carrying-capacity series
scales its argument by the run's own b, so a cache keyed by table would
rarely hit and would evict the entries that do: it is summed on every
sample.

The stopping rule
-----------------
Every series sums its terms ``d_k x^k`` in increasing k; the table
already carries the Gamma(alpha k + 1) normalisation, and its order
(``MAX_ORDER + 1`` entries at most, see :mod:`fracsis.coeffs`) truncates
the series, as in the paper.  The rule is four module constants: a sum
is accepted once ``_STOP_STREAK`` consecutive terms fall below
``_ABS_TOL`` in absolute value, and flagged divergent (``converged``
off, never an exception) once ``_GROW_STREAK`` consecutive
non-negligible terms grow after ``_GROW_MIN_K`` terms are summed.  A sum
that does neither runs to the table's end, unconverged.  t = 0 gives
d_0 from one term, converged.  :func:`_rule` applies the rule as
written, one Python loop over the terms of one node; :func:`evaluate`
calls it, and so does the node sum below wherever it cannot decide.

The node sum
------------
:func:`_sum_nodes` sums a grid's nodes at once.  For a fixed table both
rules are thresholds in |x|.  Term k is negligible exactly when
|x| < theta_k = (_ABS_TOL / |d_k|)^(1/k), and it outgrows the term of
the previous non-zero entry p when |x| > |d_p / d_k|^(1/(k - p)).  Each
table's kernel form (:class:`_Table`) carries the running extrema of
these thresholds over the rules' windows, built once per coefficient
table and kept in an LRU cache of ``_CACHE_SIZE`` entries keyed by the
table, so a node's stop is one ``np.searchsorted`` per rule, and
:func:`_classify` sorts the nodes into three classes:

* (a) the stop rule fires, or the table ends, before any growth streak
  can complete: the stop is the stop rule's index (or the table's end);
* (b) the growth rule fires at G while every earlier term of a non-zero
  entry is non-negligible: the stop is G;
* (c) everything else, each node by :func:`_rule`: nodes within
  ``_MARGIN`` (1e-9 relative) of a threshold, where a computed term's
  rounding could flip a test; nodes with a negligible term of a non-zero
  entry before the stop rule's last window, or before the end of a table
  that never stops them, whose later terms the thresholds do not follow
  (a few near a table's end or its radius); tables with an entry past
  ``_MAX_FAST_D``; and every node whose partial sum is not finite.  The
  loop ends at the node's stop, at 0.2-0.3 us per term (2-vCPU Xeon):
  cheap for the few nodes of a real grid (0.4 per ``series_stress`` op,
  none on ``paper_sweep``), slower than a vectorised pass where a caller
  packs many nodes at thresholds.

Classes (a) and (b) are summed to their stops by :func:`_sum_to`, with
the nodes sorted by stop.  While at least ``_WIDE`` nodes are still
summing, a row is one vectorised step across them; the fewer left finish
in one block as tall as their largest stop: one forward
``multiply.accumulate``, ``* d`` and ``add.accumulate`` from each node's
carried power and sum.  Both take the rule's operations in its order.
So every term is built once per node, and every sum, terms used and
``converged`` flag is the rule's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._cache import _CACHE_SIZE, _per_grid, _read_only
from .coeffs import (
    CoeffKind,
    CoeffTable,
    RadiusEstimate,
    empirical_radius,
    radius_carrying_capacity,
    radius_zero_capacity,
)
from .errors import DomainError, HypothesisError, InsufficientDataError
from .model import DerivedParams
from .solvers import Method, TimeGrid, Trajectory, node_powers

__all__ = [
    "SeriesSolution",
    "EvalResult",
    "carrying_capacity_series",
    "zero_capacity_series",
    "rescaled_zero_capacity_series",
    "evaluate",
    "sample_trajectory",
]


#: the meta ``"kind"`` of a series, named by the family of its table
_KIND_NAMES = {
    CoeffKind.EULER_ALPHA: "carrying-capacity",
    CoeffKind.A_COEFF: "zero-capacity",
}


@dataclass(frozen=True)
class SeriesSolution:
    """An evaluatable truncated series solution."""

    alpha: float
    coeffs: CoeffTable
    scale_c: float
    arg_scale: float
    radius: RadiusEstimate


@dataclass(frozen=True)
class EvalResult:
    """Point evaluation with truncation/diagnostic flags.

    ``converged`` is False both when the stopping rule never fired within
    the available terms and when sustained term growth was detected; in
    either case ``value_i`` carries the last partial sum.
    """

    value_i: float
    terms_used: int
    converged: bool
    beyond_theoretical_radius: bool


def _radius_for(table: CoeffTable, b_scale: float, theoretical: float) -> RadiusEstimate:
    """Guaranteed + empirical radius pair; empirical omitted for short tables."""
    try:
        return replace(empirical_radius(table, b_scale), theoretical=theoretical)
    except InsufficientDataError:
        return RadiusEstimate(theoretical, None, 0)


def _dilated(ln_radius: float, q: float) -> float:
    """A radius exp(ln_radius) dilated by 2^q, by logs: ``math.inf`` past binary64."""
    try:
        return math.exp(q * math.log(2.0) + ln_radius)
    except OverflowError:
        return math.inf


def _check_table(table: CoeffTable, kind: CoeffKind, alpha: float) -> None:
    if table.kind is not kind:
        raise HypothesisError(f"series needs a {kind.value} table, got {table.kind.value}")
    if table.alpha != alpha:
        raise HypothesisError(
            f"table was built for alpha={table.alpha}, series requested alpha={alpha}"
        )


def carrying_capacity_series(
    derived: DerivedParams, alpha: float, coeff_table: CoeffTable
) -> SeriesSolution:
    """Series solution I(t) for the endemic case c > 0.

    Hypotheses: c > 0 and b^(1/alpha) < 1, with initial datum I(0) = c/2;
    :func:`~fracsis.coeffs.radius_carrying_capacity` raises
    :class:`HypothesisError` where they fail.
    """
    _check_table(coeff_table, CoeffKind.EULER_ALPHA, alpha)
    theoretical = radius_carrying_capacity(alpha, derived.b)
    return SeriesSolution(
        alpha=alpha,
        coeffs=coeff_table,
        scale_c=derived.c,
        arg_scale=derived.b,
        radius=_radius_for(coeff_table, derived.b, theoretical),
    )


def zero_capacity_series(beta: float, alpha: float, coeff_table: CoeffTable) -> SeriesSolution:
    """Series solution I(t) for the sigma = 1 case (c = 0).

    The construction fixes the initial datum I(0) = 1/(2 beta), i.e. the
    table must be the canonical A-table with A_0 = 1/2.
    """
    _check_table(coeff_table, CoeffKind.A_COEFF, alpha)
    if not beta > 0:
        raise HypothesisError(f"zero-capacity series requires beta > 0, got {beta}")
    if coeff_table.d[0] != 0.5:
        raise HypothesisError(
            f"zero-capacity epidemic series requires A_0 = 1/2, "
            f"got {coeff_table.d[0]}"
        )
    theoretical = radius_zero_capacity(alpha)
    return SeriesSolution(
        alpha=alpha,
        coeffs=coeff_table,
        scale_c=1.0 / beta,
        arg_scale=1.0,
        radius=_radius_for(coeff_table, 1.0, theoretical),
    )


def rescaled_zero_capacity_series(
    a0: float, alpha: float, coeff_table: CoeffTable
) -> SeriesSolution:
    """Decay-series solution v with arbitrary initial datum a0 in (0, 1).

    The A-series for u(0) = a0 is dilated in time, v(t) = u(t / 2^q) with

        q = 1/a0                      if a0 < 1/2,
        q = 4 + (1/a0 - 4) / 2        otherwise,

    which stretches the guaranteed radius to 2^q * a0^(1/alpha) (inf past binary64).
    """
    if not 0 < a0 < 1:
        raise DomainError(f"rescaled series requires a0 in (0, 1), got {a0}")
    _check_table(coeff_table, CoeffKind.A_COEFF, alpha)
    if coeff_table.d[0] != a0:
        raise HypothesisError(
            f"table initial datum {coeff_table.d[0]} does not match a0={a0}"
        )
    q = 1.0 / a0 if a0 < 0.5 else 4.0 + 0.5 * (1.0 / a0 - 4.0)
    # 2^(-q alpha) = (2^-h)^alpha 2^-rest: 2^-h is normal and rest = (q - h) alpha
    # is exact, 0 while q <= 1022, so the scale holds where (2^-q)^alpha underflows
    h = min(q, 1022.0)
    try:
        rest = Fraction(q - h) * Fraction(alpha)
        arg_scale = math.ldexp((2.0**-h) ** alpha * 2.0 ** -float(rest % 1), -math.floor(rest))
    except OverflowError:  # q = 1/a0 past binary64
        arg_scale = 0.0
    # the undilated series' radii times 2^q (empirical: None for a short table,
    # 0.0 where it underflowed undilated)
    radius = _radius_for(coeff_table, 1.0, _dilated(math.log(a0) / alpha, q))
    if radius.empirical:
        radius = replace(radius, empirical=_dilated(math.log(radius.empirical), q))
    return SeriesSolution(
        alpha=alpha,
        coeffs=coeff_table,
        scale_c=1.0,
        arg_scale=arg_scale,
        radius=radius,
    )


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


def _rule(x: float, d: tuple[float, ...]) -> tuple[float, int, bool]:
    """The stopping rule at one node, term by term.

    ``d`` is a series table, each term t_k = x^k d_k built as
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


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_table(table: CoeffTable) -> _Table:
    """The kernel form of ``table``, built once per table and cached by it:
    a lookup hashes through the table's cached hash."""
    return _series_table(table.d)


def _sum_nodes(
    table: CoeffTable, arg_scale: float, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled sums ``sum_k d_k x^k``, terms used and ``converged`` flags at
    the nodes t >= 0 whose libm powers t**alpha are ``powers``
    (:func:`~fracsis.solvers.node_powers`), with ``x = arg_scale * t**alpha``.

    Each node's stop comes from the thresholds of the table's kernel form
    (:func:`_classify`) where they decide it, and its sum from
    :func:`_sum_to`.  Every other node, and every node whose sum is not
    finite (inf or nan terms break the comparisons the thresholds stand
    for), takes one call of :func:`_rule`.  t = 0 gives d_0 from one term,
    converged; the thresholds' sum there is d_0 + 0 d_1 + ..., which a
    non-finite entry makes nan.  The results are the rule's at every
    node, bit for bit.
    """
    x = arg_scale * powers
    kernel = _kernel_table(table)
    cap = table.order
    total = np.full(x.size, table.d[0])
    used, converged = np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool)
    if cap and x.size:
        with np.errstate(over="ignore", invalid="ignore"):
            stop, converged, slow = _classify(x, kernel, cap)
            fast = np.flatnonzero(~slow)
            total[fast] = _sum_to(x[fast], kernel, stop[fast])
            used = stop + 1
            slow = np.flatnonzero(slow | ~np.isfinite(total))
            for i, v in zip(slow.tolist(), x[slow].tolist()):
                total[i], used[i], converged[i] = _rule(v, table.d)
    at0 = powers == 0.0
    total[at0], used[at0], converged[at0] = table.d[0], 1, True
    return total, used, converged


@_per_grid
def _unit_scale_sums(
    table: CoeffTable, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only :func:`_sum_nodes` of a series with ``arg_scale = 1`` on a
    grid, cached per (table, grid): the zero-capacity series, whose beta
    enters only through ``scale_c``."""
    return tuple(map(_read_only, _sum_nodes(table, 1.0, node_powers(table.alpha, grid))))


def evaluate(series: SeriesSolution, t: float) -> EvalResult:
    """Evaluate the truncated series at a single finite time t >= 0.

    The sum is accumulated in increasing k (fixed order, deterministic)
    over at most the whole table, under the stopping rule of the module
    docstring.  Divergence is never an exception: past-radius evaluation
    is flagged via ``beyond_theoretical_radius`` and sustained growth
    clears ``converged``.

    The one node is summed by :func:`_rule`, at 0.2-0.3 us per term
    (2-vCPU Xeon), with the bits :func:`sample_trajectory` gives at the
    same node: a caller with many points should still pass them as one
    grid.
    """
    if not math.isfinite(t):
        raise DomainError(f"series evaluation requires a finite t, got t={t}")
    if t < 0:
        raise DomainError(f"series evaluation requires t >= 0, got {t}")
    theo = series.radius.theoretical
    d = series.coeffs.d
    power = float(t) ** series.alpha
    total, used, converged = (
        _rule(series.arg_scale * power, d) if power != 0.0 else (d[0], 1, True)
    )
    return EvalResult(
        float(series.scale_c * total), used, converged, theo is not None and t > theo
    )


def sample_trajectory(series: SeriesSolution, grid: TimeGrid) -> Trajectory:
    """Evaluate the series on every grid node, aggregating the flags.

    The meta also records the series' convergence radius under
    ``"radius"`` (``theoretical``, ``empirical``, ``k_used``), so that
    consumers such as the run manifest need not rebuild the series.
    With ``arg_scale`` 1 the sums come from the per-(table, grid) cache,
    at the table's alpha, which the series constructors check is the
    series' own.
    """
    nodes = grid.nodes()
    if series.arg_scale == 1.0:
        total, terms, converged = _unit_scale_sums(series.coeffs, grid)
    else:
        total, terms, converged = _sum_nodes(
            series.coeffs, series.arg_scale, node_powers(series.alpha, grid)
        )
    u = series.scale_c * total
    theo = series.radius.theoretical
    beyond = nodes > theo if theo is not None else np.zeros(nodes.size, dtype=bool)
    converged = converged.tolist()
    meta = {
        "alpha": series.alpha,
        "kind": _KIND_NAMES[series.coeffs.kind],
        "converged": converged,
        "beyond_theoretical_radius": beyond.tolist(),
        "terms_used": terms.tolist(),
        "all_converged": all(converged),
        "radius": asdict(series.radius),
    }
    return Trajectory(grid, u, Method.SERIES, meta)
