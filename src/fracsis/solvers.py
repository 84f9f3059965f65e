"""Time-stepping schemes for scalar Caputo initial value problems.

Both schemes solve ``D^alpha u = f(u)``, ``u(0) = u0`` on a uniform grid
and are nonlocal in time: step n + 1 uses the entire history u_0..u_n.
On a uniform grid the memory weights depend only on the lag m = n - j,
so each routine builds its lag kernel once per call.  The marches then
run in blocks of :data:`BLOCK` steps: at the start of a block, one
``np.convolve`` per kernel prices the history before the block for
every step in it (the far history); inside the block each step adds the
at most BLOCK lags that fall in the block (the near history) as a sum of
Python floats.  The work stays O(N^2) multiply-adds, but no step makes
a numpy call of its own: at the grid sizes used here, that call cost
more than the step's arithmetic.

* :func:`solve_pece` — fractional Adams-Bashforth-Moulton in PECE form.
  The predictor integrates the memory kernel with a product rectangle
  rule, the single corrector pass with a product trapezoidal rule; both
  sets of weights come from :func:`pece_kernels`.  Valid for alpha in
  (0, 1]; at alpha = 1 it degenerates to a Heun-type one-step
  Adams-Moulton method applied to the integrated equation.

* :func:`solve_l1` — explicit scheme built on the piecewise-linear (L1)
  discretisation of the Caputo derivative, which weights the increments
  u_{i+1} - u_i by the kernel of :func:`l1_kernel`.
  :func:`discrete_caputo_l1` applies the same operator to given data as
  one FFT product.  Valid for alpha in (0, 1) with the endpoints
  excluded; as alpha -> 1 it collapses to forward Euler.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable

import numpy as np

from .errors import DomainError, NumericOverflowError, ValidationError

__all__ = [
    "TimeGrid",
    "Method",
    "Trajectory",
    "pece_kernels",
    "solve_pece",
    "l1_kernel",
    "solve_l1",
    "discrete_caputo_l1",
]

# Steps per block of the marches.  A numpy call costs about as much as a
# few dozen scalar multiply-adds in Python, so the far history is priced
# once per block and the near lags per step; on the long_horizon op stream
# 16 was the fastest of 8, 16, 24, 32 and 48.
BLOCK = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt, n = 0..N, with N = round(T/dt).

    (T, dt) must divide evenly: construction fails if
    |N*dt - T| > 1e-9 * max(1, |T|).
    """

    T: float
    dt: float
    N: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.T > 0 or not self.dt > 0:
            raise ValidationError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        n = round(self.T / self.dt)
        # rounding alone guarantees |n*dt - T| <= dt/2, so evenness has to
        # be enforced at rounding-noise scale instead
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * max(1.0, abs(self.T)):
            raise ValidationError(
                f"dt={self.dt} does not evenly divide T={self.T}"
            )
        object.__setattr__(self, "N", n)

    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt


class Method(enum.Enum):
    """Provenance tag for a trajectory."""

    SERIES = "series"
    PECE = "pece"
    L1 = "l1"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution u_0..u_N on a grid, tagged with its method."""

    grid: TimeGrid
    u: np.ndarray
    method: Method
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.grid.N + 1,):
            raise ValidationError(
                f"trajectory length {u.shape} does not match grid N={self.grid.N}"
            )
        object.__setattr__(self, "u", u)


def pece_kernels(alpha: float, N: int, dt: float) -> tuple[np.ndarray, ...]:
    """PECE memory weights for N steps, by lag m = n - j, m = 0..N-1.

    b[m]  = (dt^alpha / alpha) * ((m+1)^alpha - m^alpha)
    a[m]  = k * ((m+2)^(alpha+1) - 2 (m+1)^(alpha+1) + m^(alpha+1))
    a0[n] = k * (n^(alpha+1) - (n - alpha) (n+1)^alpha)
    with k = dt^alpha / (alpha (alpha + 1)).  Step n + 1 weights f(u_j)
    by b[n-j] in the rectangle-rule predictor and, in the trapezoidal
    corrector, f(u_0) by a0[n], f(u_j) by a[n-j] for j = 1..n and the
    predicted value by k.  b is positive, decreasing in the lag, and
    identically dt at alpha = 1.  Every PECE routine builds these first,
    so this is where alpha outside (0, 1] is refused.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"the PECE scheme requires alpha in (0, 1], got {alpha}")
    k = dt**alpha / (alpha * (alpha + 1.0))
    m = np.arange(N, dtype=float)
    b = dt**alpha / alpha * ((m + 1.0) ** alpha - m**alpha)
    a = k * (
        (m + 2.0) ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0) + m ** (alpha + 1.0)
    )
    # a0 cancels about log10(n) digits, so it keeps the scalar libm pow:
    # on AVX-512 hardware numpy's vectorised pow differs from libm by one
    # ulp on 206 of 4001 nodes, and the cancellation turns that into up to
    # 6e-13 on a logistic PECE trajectory at N = 4000
    a0 = k * np.array(
        [n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha for n in range(N)]
    )
    return b, a, a0


def solve_pece(
    f: Callable[[float], float], u0: float, grid: TimeGrid, alpha: float
) -> Trajectory:
    """March the PECE scheme over the grid.

    Per step: predict with the rectangle rule over the stored history,
    evaluate f there, correct once with the trapezoidal rule (the
    endpoint weight applied to the predicted value), evaluate f at the
    corrected value.  f is called with Python floats only.  Raises
    :class:`NumericOverflowError` naming the step at which the iterate
    left the representable range.
    """
    N = grid.N
    b, a, a0 = pece_kernels(alpha, N, grid.dt)
    k = grid.dt**alpha / (alpha * (alpha + 1.0))  # the k of pece_kernels
    # the first BLOCK lags, reversed: within the block at s, step n pairs
    # the tail b[n-s..0] of rb with fu[s..n], and a[n-lo..0] of ra with fu[lo..n]
    rb, ra = b[:BLOCK][::-1].tolist(), a[:BLOCK][::-1].tolist()
    a0 = a0.tolist()
    inv_gamma = 1.0 / math.gamma(alpha)
    u0 = float(u0)
    u = [u0]
    fu = [f(u0)]
    fa = np.empty(N + 1)  # fu, mirrored once per block for the far sums
    fa[0] = fu[0]
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        # f(u_0) takes the weight a0[n], so the a sums start at j = 1
        if s:
            far_b = np.convolve(fa[:s], b[1:e], "valid").tolist()
            far_a = np.convolve(fa[1:s], a[1 : e - 1], "valid").tolist()
        else:
            far_b = far_a = [0.0] * e
        lo = s or 1
        tb, ta = len(rb) - 1 + s, len(ra) - 1 + lo
        for n in range(s, e):
            pred = u0 + inv_gamma * (far_b[n - s] + sum(map(mul, rb[tb - n :], fu[s : n + 1])))
            hist = a0[n] * fu[0] + (far_a[n - s] + sum(map(mul, ra[ta - n :], fu[lo : n + 1])))
            nxt = u0 + inv_gamma * (hist + k * f(pred))
            if not math.isfinite(nxt):
                raise NumericOverflowError(f"PECE iterate overflowed at step {n + 1}")
            u.append(nxt)
            fu.append(f(nxt))
        fa[s + 1 : e + 1] = fu[s + 1 : e + 1]
    return Trajectory(grid, np.array(u), Method.PECE, {"alpha": alpha, "u0": u0})


def l1_kernel(alpha: float, N: int) -> np.ndarray:
    """L1 weights g[m] = (m+1)^(1-alpha) - m^(1-alpha), m = 0..N-1.

    The L1 discrete Caputo derivative at t_n is
    sum_{m=0}^{n-1} g[m] (u_{n-m} - u_{n-m-1}) / (Gamma(2-alpha) dt^alpha):
    it weights increments, so it annihilates constants exactly.  g[0] = 1,
    g decreases in m, and sum_{m<N} g[m] telescopes to N^(1-alpha).  Every
    L1 routine builds it first, so this is where alpha outside (0, 1) is
    refused.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"the L1 scheme requires alpha in (0, 1), got {alpha}")
    m = np.arange(N, dtype=float)
    g = (m + 1.0) ** (1.0 - alpha) - m ** (1.0 - alpha)
    g[:1] = 1.0
    return g


def solve_l1(
    f: Callable[[float], float], u0: float, grid: TimeGrid, alpha: float
) -> Trajectory:
    """March the explicit L1 scheme over the grid.

    Sets the L1 discrete Caputo derivative at t_{n+1} equal to f(u_n):

        u_{n+1} = u_n - sum_{m=1}^{n} g_m (u_{n+1-m} - u_{n-m})
                  + Gamma(2-alpha) dt^alpha f(u_n),

    so the first step is u_1 = u_0 + Gamma(2-alpha) dt^alpha f(u_0).  f is
    called with Python floats only.  Raises :class:`NumericOverflowError`
    naming the step at which the iterate left the representable range.
    """
    N = grid.N
    g = l1_kernel(alpha, N)
    # lags 1..BLOCK-1, reversed: within the block at s, step n pairs the
    # tail g[n-s..1] of rg with du[s..n-1]
    rg = g[1:BLOCK][::-1].tolist()
    gain = math.gamma(2.0 - alpha) * grid.dt**alpha
    u0 = float(u0)
    u = [u0]
    du = []
    da = np.empty(N)  # du, mirrored once per block for the far sums
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        far = np.convolve(da[:s], g[1:e], "valid").tolist() if s else [0.0] * e
        t = len(rg) + s
        for n in range(s, e):
            un = u[n]
            nxt = un - (far[n - s] + sum(map(mul, rg[t - n :], du[s:n]))) + gain * f(un)
            if not math.isfinite(nxt):
                raise NumericOverflowError(f"L1 iterate overflowed at step {n + 1}")
            u.append(nxt)
            du.append(nxt - un)
        da[s:e] = du[s:e]
    return Trajectory(grid, np.array(u), Method.L1, {"alpha": alpha, "u0": u0})


def discrete_caputo_l1(u, alpha: float, dt: float) -> np.ndarray:
    """L1 approximation of the Caputo derivative of a sampled sequence.

    Returns the values at the nodes n = 1..len(u)-1:

        D^alpha u_n = sum_{m=0}^{n-1} g_m (u_{n-m} - u_{n-m-1}) / (Gamma(2-alpha) dt^alpha)

    with g from :func:`l1_kernel`, as one FFT product of the increments
    with g, zero-padded to 2n so that the circular product holds the
    linear convolution.  Annihilates constants exactly (zero increments
    transform to zeros) and is linear in u.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("discrete_caputo_l1 needs a 1-D sequence of length >= 2")
    n = u.size - 1
    g = l1_kernel(alpha, n)
    scale = 1.0 / (math.gamma(2.0 - alpha) * dt**alpha)
    m = 2 * n
    return scale * np.fft.irfft(np.fft.rfft(np.diff(u), m) * np.fft.rfft(g, m), m)[:n]
