"""Evaluation of the explicit fractional power-series solutions.

A :class:`SeriesSolution` packages a normalised coefficient table
``d_k = c_k / Gamma(alpha k + 1)`` with two scales so that every solution
in the family reads

    value(t) = scale_c * sum_k d_k x^k,    x = arg_scale * t^alpha,

which is ``inf`` where the product is past binary64 (a zero-capacity
series of a small beta, whose scale_c is 1/beta).

* carrying-capacity case (c != 0, b^(1/alpha) < 1):  I(t) with
  ``scale_c = c`` and ``arg_scale = b`` over the alpha-Euler table, i.e.
  the k-th term is E_k b^k t^(alpha k) / Gamma(alpha k + 1).  The initial
  datum is pinned to I(0) = c/2 by the table entry d_0 = E_0 = 1/2.
* zero-capacity case (sigma = 1):  I(t) with ``scale_c = 1/beta`` and
  ``arg_scale = 1`` over the A-table; I(0) = 1/(2 beta).
* rescaled decay solution: the A-series with initial datum a0 in (0, 1)
  dilated in time by 2^q, extending its guaranteed interval of validity
  to (0, 2^q a0^(1/alpha)).

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
that does neither runs to the table's end, unconverged, and one whose
next term or partial sum is not finite stops before it, unconverged.
t = 0 gives d_0 from one term, converged.

:func:`_rule` applies the rule as written, one Python loop over the
terms of one node; :func:`evaluate` calls it.  :func:`_sum_nodes` sums a
grid's nodes at once with the rule's bits: :func:`_series_table` turns a
table into thresholds in |x| (:class:`_Table`), :func:`_classify` reads
each node's stop off them or sends the node to :func:`_rule`, and
:func:`_sum_to` sums the nodes it read to their stops.
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

    ``converged`` is False when the stopping rule never fired within the
    available terms, when sustained term growth was detected and when the
    next term or partial sum was not finite; in each case ``value_i``
    carries the last finite partial sum.
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
    table must be the canonical A-table with A_0 = 1/2, and beta must be
    positive with beta and the scale 1/beta finite.
    """
    _check_table(coeff_table, CoeffKind.A_COEFF, alpha)
    if not (0 < beta < math.inf and 1.0 / beta < math.inf):
        raise HypothesisError(
            f"zero-capacity series requires a finite beta > 0 with 1/beta finite, got beta={beta}"
        )
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

    which stretches the guaranteed radius to 2^q * a0^(1/alpha) (inf past
    binary64).  Where 2^q and a0^(1/alpha) are both past binary64, a
    subnormal a0 at an alpha below about 4e-306, the radius is refused.
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
    ln_radius = math.log(a0) / alpha
    if math.isinf(q) and math.isinf(ln_radius):
        raise DomainError(f"rescaled series radius is inf * 0 at a0={a0}, alpha={alpha}")
    # the undilated series' radii times 2^q (empirical: None for a short table,
    # 0.0 where it underflowed undilated)
    radius = _radius_for(coeff_table, 1.0, _dilated(ln_radius, q))
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
#: step across them; the fewer left finish in accumulate blocks.  A row
#: costs three numpy calls whatever its width, and a block's accumulate
#: works cell by cell (along axis 0 numpy does not vectorise across
#: columns), so rows win on wide suffixes and blocks on the narrow rest;
#: the sweep is in CHANGES.md ("sums its wide rows across nodes")
_WIDE = 128
#: nodes per accumulate block: a block is only as tall as its last node's
#: stop, so it holds at most 201 x 64 float64, 100 KiB, under malloc's
#: 128 KiB mmap threshold (as ``specfn._Z_BLOCK``; ``BENCH_36.json``).
#: Every step of a block is elementwise down a column, so a node's sum
#: does not depend on the block it shares
_TAIL = 64
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
      ``_MAX_FAST_D``, or not finite, or d_0 = -0.0, the one start whose
      sum a zero term can change).
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


def _windows(x: np.ndarray, n: int, pick, out: np.ndarray) -> np.ndarray:
    """``out[i]`` = ``pick`` (``np.minimum`` or ``np.maximum``) over the
    n-term window x[i - n + 1..i], for each i >= n - 1; ``out[:n - 1]``
    is left as it is.  Returns ``out``."""
    w = out[n - 1 :]
    w[:] = x[n - 1 :]
    for j in range(1, n):
        pick(w, x[n - 1 - j :][: w.size], out=w)
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def _series_table(table: CoeffTable) -> _Table:
    """The kernel form of ``table``, with its thresholds, built once per
    table and cached by it: a lookup hashes through the table's cached hash."""
    a = np.array(table.d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(a))
        theta = _thetas(log_abs)
        nonzero = np.flatnonzero(a[1:]) + 1
        prev = np.concatenate(([0], nonzero))[:-1]
        g = np.exp((log_abs[prev] - log_abs[nonzero]) / (nonzero - prev))
    late = nonzero >= _GROW_MIN_K
    g, ks = g[late], nonzero[late]
    # the minimum of theta over each stop window (0 for the first windows,
    # which hold t_0), and the maximum of g over each growth window, by its
    # last entry
    settle = _windows(theta, _STOP_STREAK, np.minimum, np.zeros(theta.size))
    grow = _windows(g, _GROW_STREAK, np.maximum, np.empty(g.size))[_GROW_STREAK - 1 :]
    return _Table(
        d=_read_only(a),
        settle=_read_only(np.maximum.accumulate(settle)),
        quiet=_read_only(np.maximum.accumulate(np.where(a != 0.0, theta, 0.0))),
        grow=_read_only(-np.minimum.accumulate(grow)),
        grow_at=_read_only(np.append(ks[_GROW_STREAK - 1 :], a.size)),
        exact=not np.abs(a).max() <= _MAX_FAST_D
        or (table.d[0] == 0.0 and math.copysign(1.0, table.d[0]) < 0),
    )


def _classify(x: np.ndarray, table: _Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's stop index (1..K, the table's order), ``converged`` flag
    and whether it must take the exact rule, from the thresholds of ``table``.

    Every threshold test runs at |x| (1 -+ ``_MARGIN``), and a node whose
    answers differ takes the exact rule.  A node is read off the
    thresholds in three cases; every other one, a few near a table's end
    or its radius on a real grid, takes the exact rule:

    * it grows: the growth rule fires at G before the first negligible
      term F of a non-zero entry and before the stop rule's S: stop G;
    * it settles: no growth fires before min(S, F), and S <= F + 2, so
      that the terms F..S are all in the stop rule's final window, and
      negligible: stop S, converged;
    * it runs to the end: none of S, F, G falls in the table.
    """
    K = table.d.size - 1
    # row 0 at |x| (1 - _MARGIN), row 1 at |x| (1 + _MARGIN)
    band = np.abs(x) * np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]])
    s = np.searchsorted(table.settle, band, "right")
    slow = s[0] != s[1]
    s = s[0]
    f = np.searchsorted(table.quiet, band, "right")
    g = table.grow_at[np.searchsorted(table.grow, -band, "right")]
    slow |= (f[0] != f[1]) | (g[0] != g[1])
    f, g = f[0], g[0]
    grows = g < np.minimum(s, f)
    settles = (s <= K) & (s <= f + 2)
    ends = (s > K) & (f > K)
    slow |= ~(grows | settles | ends) | table.exact
    return np.where(grows, g, np.minimum(s, K)), ~grows & (s <= K), slow


def _sum_to(x: np.ndarray, table: _Table, stop: np.ndarray) -> np.ndarray:
    """Partial sums to the term t_stop at each node, stop >= 1.

    The nodes are sorted by stop, so those still summing at row k are a
    shrinking suffix.  While at least ``_WIDE`` of them are, row k is one
    step across that suffix: ``p *= x``, ``t = p * d[k]``, ``s += t``, and
    a node whose stop is k keeps its s.  Where d_k = 0 the row only
    advances p: the term is a zero, which leaves every s but -0.0 as it is
    (a table whose d_0 is -0.0 takes the exact rule), and a node whose p
    is not finite at its stop gets the sum nan, as the loop's inf * 0
    would give it.  The fewer than ``_WIDE`` nodes left finish in blocks
    of ``_TAIL``, each as tall as its largest stop, from their
    carried p and s: one forward ``multiply.accumulate`` for the powers,
    one multiply by ``d`` and one ``add.accumulate``.  Either way each
    term and partial sum is formed by the scalar loop's operations in its
    order, so every sum rounds as it would.  Rows of a block past a
    node's stop may overflow; they are never read.
    """
    d = table.d
    total = np.empty(x.size)
    order = np.argsort(stop, kind="stable")
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
            if c:
                np.multiply(pv, c, out=tv)
                sv += tv
        lo = int(np.searchsorted(ns, top, "right"))
        # past a power that overflowed, the loop's next term p * d_k is
        # non-finite even where d_k = 0, and so is its sum
        total[order[:lo]] = np.where(np.isfinite(p[:lo]), s[:lo], np.nan)
        order, xs, ns, p, s = order[lo:], xs[lo:], ns[lo:], p[lo:], s[lo:]
    for i in range(0, order.size, _TAIL):
        cols = slice(i, i + _TAIL)
        stops = ns[cols]
        # row k - top of sums holds t_k, then the partial sum to t_k
        sums = np.empty((stops[-1] + 1 - top, stops.size))
        terms = sums[1:]
        terms[:] = xs[cols]
        if top:  # from the powers the rows carried
            terms[0] *= p[cols]
        np.multiply.accumulate(terms, axis=0, out=terms)
        terms *= d[top + 1 : stops[-1] + 1, None]
        sums[0] = s[cols] if top else s
        np.add.accumulate(sums, axis=0, out=sums)
        total[order[cols]] = sums[stops - top, np.arange(stops.size)]
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
        if abs(t) < _ABS_TOL:
            total += t
            below += 1
            if below == _STOP_STREAK:
                return total, k + 1, True
            continue
        # inf and nan terms land here, and a negligible one leaves a finite sum finite
        if not math.isfinite(total + t):
            return total, k, False
        total += t
        below = 0
        # a growth streak counts the non-negligible terms that outgrow the
        # previous one from _GROW_MIN_K on; any other restarts it
        grown = grown + 1 if abs(t) > prev and k >= _GROW_MIN_K else 0
        if grown == _GROW_STREAK:
            return total, k + 1, False
        prev = abs(t)
    return total, len(d), False


def _sum_nodes(
    table: CoeffTable, arg_scale: float, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled sums ``sum_k d_k x^k``, terms used and ``converged`` flags at
    the nodes t >= 0 whose libm powers t**alpha are ``powers``
    (:func:`~fracsis.solvers.node_powers`), with ``x = arg_scale * t**alpha``.

    Every node the thresholds leave undecided, and every node whose sum is
    not finite (inf or nan terms break the comparisons the thresholds
    stand for), takes one call of :func:`_rule`.  t = 0 is set apart: the
    thresholds' sum there is d_0 + 0 d_1 + ..., which a non-finite entry
    makes nan.  The results are the rule's at every node, bit for bit.
    """
    x = arg_scale * powers
    kernel = _series_table(table)
    total = np.full(x.size, table.d[0])
    used, converged = np.ones(x.size, dtype=int), np.zeros(x.size, dtype=bool)
    if table.order and x.size:
        with np.errstate(over="ignore", invalid="ignore"):
            stop, converged, slow = _classify(x, kernel)
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
    enters only through ``scale_c``.  A series whose argument carries a
    scale (the carrying-capacity one with its run's own b, the rescaled
    one) is summed on every sample: a cache keyed by table would rarely
    hit and would evict the entries that do."""
    return tuple(map(_read_only, _sum_nodes(table, 1.0, node_powers(table.alpha, grid))))


def evaluate(series: SeriesSolution, t: float) -> EvalResult:
    """Evaluate the truncated series at a single finite time t >= 0.

    The sum follows the stopping rule of the module docstring, and
    past-radius evaluation is flagged via ``beyond_theoretical_radius``.
    The one node is summed by :func:`_rule`, one Python loop over its
    terms, with the bits :func:`sample_trajectory` gives at the same node:
    a caller with many points should pass them as one grid.
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
    consumers such as the run manifest need not rebuild the series.  The
    nodes' t^alpha come from :func:`~fracsis.solvers.node_powers`, which
    ``harness.population_curve`` shares.  With ``arg_scale`` 1 the sums
    come from :func:`_unit_scale_sums`, at the table's alpha, which the
    series constructors check is the series' own.
    """
    nodes = grid.nodes()
    if series.arg_scale == 1.0:
        total, terms, converged = _unit_scale_sums(series.coeffs, grid)
    else:
        total, terms, converged = _sum_nodes(
            series.coeffs, series.arg_scale, node_powers(series.alpha, grid)
        )
    with np.errstate(over="ignore"):
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
