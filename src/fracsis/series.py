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
once.

Evaluation sums the terms ``d_k x^k`` in increasing k; the table already
carries the Gamma(alpha k + 1) normalisation.  Truncation follows
:class:`~fracsis.specfn.EvalPolicy`; values past the guaranteed radius
are permitted but flagged, and sustained term growth flips ``converged``
off in-band instead of raising, a rule the entire E_alpha of
:func:`~fracsis.specfn.mittag_leffler` cannot share.

One kernel, :func:`_sum_terms`, applies that rule for :func:`evaluate`
(one node) and :func:`sample_trajectory` (every node).  It lays a chunk of
nodes out as a term matrix, terms down the rows and nodes across the
columns, and forms ``x^k`` and the partial sums with sequential
accumulates down the rows, so each column rounds exactly as a scalar
loop ``xk *= x; total += term`` would.  The stopping rule is evaluated on
every column at once.  The growth test compares a term with the previous
non-negligible one; before any stop no ``_STOP_STREAK`` consecutive terms
are negligible, so that term lies at most ``_STOP_STREAK`` rows back, and
a lookback of that depth is exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

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
from .solvers import Method, TimeGrid, Trajectory
from .specfn import _STOP_STREAK, DEFAULT_POLICY, EvalPolicy

__all__ = [
    "SeriesKind",
    "SeriesSolution",
    "EvalResult",
    "carrying_capacity_series",
    "zero_capacity_series",
    "rescaled_zero_capacity_series",
    "evaluate",
    "sample_trajectory",
]

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


class SeriesKind(enum.Enum):
    CARRYING_CAPACITY = "carrying-capacity"
    ZERO_CAPACITY = "zero-capacity"


@dataclass(frozen=True)
class SeriesSolution:
    """An evaluatable truncated series solution."""

    alpha: float
    kind: SeriesKind
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
    """Empirical + guaranteed radius pair; empirical omitted for short tables."""
    try:
        est = empirical_radius(table, b_scale)
        return RadiusEstimate(theoretical, est.empirical, est.k_used)
    except InsufficientDataError:
        return RadiusEstimate(theoretical, None, 0)


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
        kind=SeriesKind.CARRYING_CAPACITY,
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
        kind=SeriesKind.ZERO_CAPACITY,
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

    which stretches the guaranteed radius to 2^q * a0^(1/alpha).
    """
    if not 0 < a0 < 1:
        raise DomainError(f"rescaled series requires a0 in (0, 1), got {a0}")
    _check_table(coeff_table, CoeffKind.A_COEFF, alpha)
    if coeff_table.d[0] != a0:
        raise HypothesisError(
            f"table initial datum {coeff_table.d[0]} does not match a0={a0}"
        )
    q = 1.0 / a0 if a0 < 0.5 else 4.0 + 0.5 * (1.0 / a0 - 4.0)
    arg_scale = (2.0**-q) ** alpha
    theoretical = 2.0**q * a0 ** (1.0 / alpha)
    return SeriesSolution(
        alpha=alpha,
        kind=SeriesKind.ZERO_CAPACITY,
        coeffs=coeff_table,
        scale_c=1.0,
        arg_scale=arg_scale,
        radius=_radius_for(coeff_table, arg_scale, theoretical),
    )


def _term_matrix(
    d: np.ndarray, x: np.ndarray, abs_tol: float, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum the first ``rows`` terms for the nodes ``x`` and find each stop.

    Row ``k - 1`` holds the term ``d_k x^k``.  Returns, per column,
    whether the stopping rule fired within the rows, the terms used, the
    ``converged`` flag and the partial sum at the stop; a column that did
    not stop reports all ``rows + 1`` terms, unconverged.  Rows past a
    column's stop may overflow; they are never read.
    """
    terms = np.empty((rows, x.size))
    terms[:] = x
    np.multiply.accumulate(terms, axis=0, out=terms)
    terms *= d[1 : rows + 1, None]
    totals = np.empty((rows + 1, x.size))
    totals[0] = d[0]
    totals[1:] = terms
    np.add.accumulate(totals, axis=0, out=totals)

    # |term| and negligibility, padded above by _STOP_STREAK rows that
    # stand for d_0: it opens the growth comparison as a non-negligible term
    pad = _STOP_STREAK
    mag = np.empty((pad + rows, x.size))
    mag[:pad] = abs(d[0])
    np.abs(terms, out=mag[pad:])
    neg = np.zeros((pad + rows, x.size), dtype=bool)
    np.less(mag[pad:], abs_tol, out=neg[pad:])
    # converged: the row ends a run of _STOP_STREAK negligible terms.
    # prev: the previous non-negligible |term|, found within pad rows back
    # because no earlier row ended such a run
    converged = neg[pad:].copy()
    prev = mag[:rows].copy()
    for lo in range(1, pad):
        converged &= neg[lo : lo + rows]
        np.copyto(prev, mag[lo : lo + rows], where=~neg[lo : lo + rows])
    mag, neg = mag[pad:], neg[pad:]

    up = ~neg & (mag > prev)
    up[: _GROW_MIN_K - 1] = False
    # the growth streak restarts at each non-negligible term that does not
    # grow; the count of growing terms never decreases, so its running
    # maximum over those rows is its value at the latest one
    count = np.cumsum(up, axis=0)
    restart = np.where(neg | up, 0, count)
    np.maximum.accumulate(restart, axis=0, out=restart)
    stop = converged | (count - restart >= _GROW_STREAK)

    stopped = stop.any(axis=0)
    last = np.where(stopped, stop.argmax(axis=0), rows - 1)
    cols = np.arange(x.size)
    return stopped, last + 2, converged[last, cols], totals[last + 1, cols]


def _sum_terms(
    series: SeriesSolution, ts: np.ndarray, policy: EvalPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, terms used and ``converged`` flags at the nodes ``ts >= 0``.

    t = 0 gives ``scale_c d_0`` from one term, converged.  The other nodes
    go through :func:`_term_matrix` in chunks of ``_CHUNK``; those that
    have not stopped retry with twice the rows, up to the table depth the
    policy allows.
    """
    d = np.asarray(series.coeffs.d)
    cap = min(d.size, policy.max_terms) - 1
    # libm pow on Python floats, as a scalar loop would form x; numpy's
    # vectorised pow may differ by one ulp
    x = np.array([series.arg_scale * t**series.alpha for t in ts.tolist()])
    total = np.full(ts.size, d[0])
    used = np.ones(ts.size, dtype=int)
    converged = ts == 0.0
    later = np.flatnonzero(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, later.size if cap else 0, _CHUNK):
            cols = later[start : start + _CHUNK]
            rows = min(_FIRST_ROWS, cap)
            while cols.size:
                stopped, n, ok, s = _term_matrix(d, x[cols], policy.abs_tol, rows)
                done = stopped | (rows == cap)
                at = cols[done]
                total[at], used[at], converged[at] = s[done], n[done], ok[done]
                cols, rows = cols[~done], min(2 * rows, cap)
    return series.scale_c * total, used, converged


def evaluate(series: SeriesSolution, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> EvalResult:
    """Evaluate the truncated series at a single finite time t >= 0.

    The sum is accumulated in increasing k (fixed order, deterministic);
    it stops early once three consecutive terms drop below
    ``policy.abs_tol``.  Divergence is never an exception: past-radius
    evaluation is flagged via ``beyond_theoretical_radius`` and sustained
    growth (five consecutive growing terms after k >= 10) clears
    ``converged``.
    """
    if not math.isfinite(t):
        raise DomainError(f"series evaluation requires a finite t, got t={t}")
    if t < 0:
        raise DomainError(f"series evaluation requires t >= 0, got {t}")
    theo = series.radius.theoretical
    u, used, converged = _sum_terms(series, np.array([float(t)]), policy)
    return EvalResult(
        float(u[0]), int(used[0]), bool(converged[0]), theo is not None and t > theo
    )


def sample_trajectory(
    series: SeriesSolution, grid: TimeGrid, policy: EvalPolicy = DEFAULT_POLICY
) -> Trajectory:
    """Evaluate the series on every grid node, aggregating the flags.

    The meta also records the series' convergence radius under
    ``"radius"`` (``theoretical``, ``empirical``, ``k_used``), so that
    consumers such as the run manifest need not rebuild the series.
    """
    nodes = grid.nodes()
    u, terms, converged = _sum_terms(series, nodes, policy)
    theo = series.radius.theoretical
    beyond = nodes > theo if theo is not None else np.zeros(nodes.size, dtype=bool)
    converged = converged.tolist()
    meta = {
        "alpha": series.alpha,
        "kind": series.kind.value,
        "converged": converged,
        "beyond_theoretical_radius": beyond.tolist(),
        "terms_used": terms.tolist(),
        "all_converged": all(converged),
        "radius": asdict(series.radius),
    }
    return Trajectory(grid, u, Method.SERIES, meta)
