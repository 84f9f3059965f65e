"""SIS model parameters, derived quantities, and classical oracles.

The constant-population SIS system in fractions I + S = 1 reduces to a
scalar logistic equation for the infected fraction,

    D^alpha I = beta * c * I - beta * I**2,

with basic reproduction number ``sigma = beta / (gamma + mu)`` and
carrying capacity ``c = (sigma - 1) / sigma``.  This module owns the
parameter containers, the derivation of (sigma, c, b, M, radius) and the
alpha = 1 closed forms used as oracles.  The population curve
N(t) = N0 E_alpha((lambda - mu) t^alpha) of the non-constant-population
variant is :func:`fracsis.harness.population_curve`; the birth rate
lambda appears only there, since the constant-population model has
lambda = mu.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import coeffs
from .errors import DomainError, ValidationError, check_alpha

__all__ = [
    "SIGMA_ONE_TOL",
    "ModelParams",
    "DerivedParams",
    "derive",
    "classical_sis",
    "logistic_rhs",
]


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates plus the fractional order."""

    beta: float
    gamma: float
    mu: float
    alpha: float
    i0: float

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.beta > 0:
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if self.gamma < 0 or self.mu < 0:
            raise ValidationError("gamma and mu must be >= 0")
        if not self.gamma + self.mu > 0:
            raise ValidationError("gamma + mu must be > 0")
        # derive forms c = (sigma - 1) / sigma: refuse rates whose sigma
        # under- or overflows, or whose c overflows
        sigma = self.beta / (self.gamma + self.mu)
        if not (0 < sigma < math.inf and math.isfinite((sigma - 1.0) / sigma)):
            raise ValidationError(
                f"sigma = beta / (gamma + mu) = {sigma} from beta={self.beta}, "
                f"gamma={self.gamma}, mu={self.mu} leaves no finite carrying "
                f"capacity c = (sigma - 1) / sigma"
            )
        check_alpha(self.alpha, "alpha must be")
        if not 0 <= self.i0 <= 1:
            raise ValidationError(f"i0 must be in [0, 1], got {self.i0}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`ModelParams`.

    ``M = b**(-1/alpha)`` is populated for c > 0; the guaranteed series
    radius ``r_alpha`` additionally needs ``b**(1/alpha) < 1``.  Where M or
    ``r_alpha`` lies past binary64 (small alpha and small b) it is
    ``math.inf``, not an ``OverflowError``.
    """

    sigma: float
    c: float
    b: float
    M: Optional[float] = None
    r_alpha: Optional[float] = None


#: |sigma - 1| at or below which :func:`derive` takes sigma = 1 exactly:
#: four ulps of 1, about 8.9e-16.  Rates typed as decimals with
#: beta = gamma + mu, such as (0.6, 0.05, 0.55), land within one ulp of
#: sigma = 1 in binary64; a real carrying capacity is never that small.
SIGMA_ONE_TOL = 4 * sys.float_info.epsilon


def derive(params: ModelParams) -> DerivedParams:
    """Compute sigma, c, b and (when defined) M and the series radius.

    This is the one place that decides the regime.  When sigma is within
    ``SIGMA_ONE_TOL`` (8.9e-16) of 1 it returns ``sigma = 1.0`` and
    ``c = b = 0.0`` exactly, so that rates which misround around
    sigma = 1 take the zero-capacity route instead of a carrying
    capacity of +-1e-16.  It also decides the carrying-capacity series
    hypothesis (:func:`~fracsis.coeffs.carrying_capacity_hypothesis`):
    ``r_alpha`` is None exactly where it fails.
    """
    sigma = params.beta / (params.gamma + params.mu)
    if abs(sigma - 1.0) <= SIGMA_ONE_TOL:
        return DerivedParams(sigma=1.0, c=0.0, b=0.0)
    c = (sigma - 1.0) / sigma
    b = params.beta * c
    M = coeffs._inverse_root(b, params.alpha) if c > 0 else None
    r_alpha = None
    if coeffs.carrying_capacity_hypothesis(b):
        r_alpha = coeffs.radius_carrying_capacity(params.alpha, b)
    return DerivedParams(sigma=sigma, c=c, b=b, M=M, r_alpha=r_alpha)


def classical_sis(params: ModelParams, t):
    """Closed-form alpha = 1 solution (I, S) at time(s) t >= 0.

    For c != 0 this is the logistic curve
    ``I = c / (1 + (c/I0 - 1) e^{-b t})``; for c == 0 the separable
    solution ``I = I0 / (1 + beta I0 t)``.  Accepts scalars or arrays.
    A negative or NaN t is refused; t = inf gives the limit (c, or 0 at
    c = 0).
    """
    t = np.asarray(t, dtype=float)
    bad = t[~(t >= 0)]
    if bad.size:
        raise DomainError(f"classical_sis requires t >= 0, got t={float(bad[0])}")
    d = derive(params)
    i0 = params.i0
    # where a product overflows to inf at long t (beta i0 t at c = 0, and
    # e^{-b t} with its product for c < 0), I is its limit 0.0
    with np.errstate(over="ignore"):
        if i0 == 0.0:
            i = np.zeros_like(t)
        elif d.c == 0.0:
            i = i0 / (1.0 + params.beta * i0 * t)
        elif math.isfinite(lead := d.c / i0 - 1.0):
            i = d.c / (1.0 + lead * np.exp(-d.b * t))
        else:
            # c / i0 overflows at a subnormal i0: with the product
            # (c/i0 - 1) e^{-b t} = sign(c) e^L formed in logs,
            # I = c / (1 + sign(c) e^L), scaled by e^-L where L > 0
            lg = math.log(abs(d.c - i0)) - math.log(i0) - d.b * t
            e, sign = np.exp(-np.abs(lg)), math.copysign(1.0, d.c)
            i = np.where(lg > 0, d.c * e / (e + sign), d.c / (1.0 + sign * e))
    if i.ndim == 0:
        i = float(i)
    return i, 1.0 - i


def logistic_rhs(params: ModelParams, derived: DerivedParams) -> Callable[[float], float]:
    """Right-hand side f(I) = beta*c*I - beta*I^2 of the reduced model.

    The single formula covers both the endemic (c > 0) and the
    sigma = 1 (c = 0) regimes; its roots are the equilibria {0, c}.
    """
    beta = params.beta
    bc = derived.b

    def f(i: float) -> float:
        return bc * i - beta * i * i

    return f
