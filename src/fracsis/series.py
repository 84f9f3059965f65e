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

Evaluation sums the terms ``d_k x^k`` in increasing k; the table already
carries the Gamma(alpha k + 1) normalisation.  Truncation is set by the
table order and by the stopping rule's constants in :mod:`fracsis.specfn`
(``_ABS_TOL``, ``_STOP_STREAK``, ``_MAX_TERMS``); values past the
guaranteed radius are permitted but flagged, and sustained term growth
(``_GROW_STREAK``, ``_GROW_MIN_K``) flips ``converged`` off in-band
instead of raising.  The sums and both rules live in the package's one
power-series kernel, ``fracsis.specfn._sum_terms``, called once per
:func:`evaluate` or :func:`sample_trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

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
from .solvers import Method, TimeGrid, Trajectory, node_powers
from .specfn import _sum_terms

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


def _sum_nodes(
    series: SeriesSolution, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, terms used and ``converged`` flags at the nodes t >= 0 whose
    libm powers t**alpha are ``powers`` (:func:`~fracsis.solvers.node_powers`).

    t = 0 gives ``scale_c d_0`` from one term, converged.
    """
    d = np.asarray(series.coeffs.d)
    total, used, converged, _ = _sum_terms(series.arg_scale * powers, d)
    at0 = powers == 0.0
    total[at0], used[at0], converged[at0] = d[0], 1, True
    return series.scale_c * total, used, converged


def evaluate(series: SeriesSolution, t: float) -> EvalResult:
    """Evaluate the truncated series at a single finite time t >= 0.

    The sum is accumulated in increasing k (fixed order, deterministic)
    over the table, and at most ``specfn._MAX_TERMS`` terms; it stops
    early once three consecutive terms drop below ``specfn._ABS_TOL``
    (1e-14).  Divergence is never an exception: past-radius
    evaluation is flagged via ``beyond_theoretical_radius`` and sustained
    growth (five consecutive growing terms after k >= 10) clears
    ``converged``.

    The call is one kernel call with a single column, which costs tens
    of microseconds: a caller with many points should pass them as one
    grid to :func:`sample_trajectory`.
    """
    if not math.isfinite(t):
        raise DomainError(f"series evaluation requires a finite t, got t={t}")
    if t < 0:
        raise DomainError(f"series evaluation requires t >= 0, got {t}")
    theo = series.radius.theoretical
    u, used, converged = _sum_nodes(series, np.array([float(t) ** series.alpha]))
    return EvalResult(
        float(u[0]), int(used[0]), bool(converged[0]), theo is not None and t > theo
    )


def sample_trajectory(series: SeriesSolution, grid: TimeGrid) -> Trajectory:
    """Evaluate the series on every grid node, aggregating the flags.

    The meta also records the series' convergence radius under
    ``"radius"`` (``theoretical``, ``empirical``, ``k_used``), so that
    consumers such as the run manifest need not rebuild the series.
    """
    nodes = grid.nodes()
    u, terms, converged = _sum_nodes(series, node_powers(series.alpha, grid))
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
