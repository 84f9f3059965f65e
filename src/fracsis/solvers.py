"""Time-stepping schemes for scalar Caputo initial value problems.

Both schemes solve ``D^alpha u = f(u)``, ``u(0) = u0`` on a uniform grid
and are nonlocal in time: step n + 1 uses the entire history u_0..u_n.
On a uniform grid the memory weights depend only on the lag m = n - j,
so each routine builds its lag kernel once, not per step.  The marches
then run in blocks of :data:`BLOCK` steps: at the start of a block, one
``np.convolve`` per kernel prices the history before the block for
every step in it (the far history).  Inside the block each step adds the
at most BLOCK lags that fall in the block (the near history) with a
straight-line kernel of fixed length from :data:`_DOTS`: each block
starts a fresh near list of the values the lags weight, every step
appends its new value, and step s + j pairs that list with its weight
tail, the weights of the lags it spans in reverse order, held as a
tuple.  The work stays O(N^2) multiply-adds, but no step makes a numpy
call, slices a list or iterates: at the grid sizes used here, any of
them costs more than the step's arithmetic.  The rounding of a march is
fixed by BLOCK, which sets the far/near split, by the argument order of
the ``np.convolve`` calls and by the kernels' left-to-right order.

What a march needs that depends only on alpha and the grid is its plan:
the lag kernel, the weight tails and the scalar constants.  Each scheme
keeps its plans per (alpha, :class:`TimeGrid`), as :func:`node_powers`
keeps the t_n**alpha of a grid, under the package's one cache policy
(:mod:`fracsis._cache`): a sweep that repeats its alphas builds each plan
once.  The public :func:`pece_kernels` and :func:`l1_kernel` are not
cached: each call returns fresh, writable arrays.

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
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from ._cache import _per_grid, _read_only
from .errors import DomainError, NumericOverflowError, ValidationError

__all__ = [
    "TimeGrid",
    "node_powers",
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
# once per block and the near lags per step.  With the straight-line near
# sums below, re-measured on the long_horizon stream (perfbench, seed 4242,
# eight rounds in rotating order, 2-vCPU Xeon): p50 medians of 8.79, 7.87,
# 7.90 and 8.65 ms at 8, 16, 24 and 32; 16 and 24 were each fastest in 4
# of 8 rounds.  BLOCK also sets the far/near split, so changing it changes
# the rounding of every trajectory.
BLOCK = 16

# The near sums: _DOTS[m](w, n) is 0.0 + w[0]*n[0] + ... + w[m-1]*n[m-1],
# added left to right from 0.0, as ``sum(map(mul, w, n))`` adds on Python
# 3.11.  Written out, a sum makes no iterator and no call per term: on 1 to
# 16 terms ``sum(map(mul, ...))`` took 244-718 ns and the kernel 72-420 ns
# (timeit, Python 3.11).  From Python 3.12 on ``sum`` of floats is
# compensated and the kernels are not: they round the same on every
# version, but match the former ``sum`` bit for bit on 3.10 and 3.11 only
# (checked on 3.11).  The weights are arguments, so these BLOCK + 1
# functions are compiled once, at import (about 1 ms), and no plan
# compiles anything.
_DOTS = tuple(
    eval("lambda w, n: 0.0" + "".join(f" + w[{i}] * n[{i}]" for i in range(m)))
    for m in range(BLOCK + 1)
)

#: numpy's largest array, in bytes; read once, as ``np.iinfo`` costs microseconds
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt, n = 0..N, with N = round(T/dt).

    T, dt and T/dt must be positive and finite, the N + 1 float64 nodes must
    fit in one numpy array, and (T, dt) must divide evenly: construction
    fails if |N*dt - T| > 1e-9 * max(1, |T|).
    """

    T: float
    dt: float
    N: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.T > 0 or not self.dt > 0:
            raise ValidationError(f"need T > 0 and dt > 0, got T={self.T}, dt={self.dt}")
        if not all(map(math.isfinite, (self.T, self.dt, self.T / self.dt))):
            raise ValidationError(f"need finite T, dt and T/dt, got T={self.T}, dt={self.dt}")
        n = round(self.T / self.dt)
        if (n + 1) * 8 > _MAX_ARRAY_BYTES:
            raise ValidationError(f"too many nodes for one array, got T={self.T}, dt={self.dt}")
        # rounding alone guarantees |n*dt - T| <= dt/2, so evenness has to
        # be enforced at rounding-noise scale instead
        if n < 1 or abs(n * self.dt - self.T) > 1e-9 * max(1.0, abs(self.T)):
            raise ValidationError(
                f"dt={self.dt} does not evenly divide T={self.T}"
            )
        object.__setattr__(self, "N", n)

    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt


@_per_grid
def node_powers(alpha: float, grid: TimeGrid) -> np.ndarray:
    """Read-only t_n**alpha at the nodes of a grid, cached per (alpha, grid).

    Each power is the libm ``pow`` on a Python float: numpy's vectorised
    pow may differ from it by one ulp.
    """
    return _read_only(np.array([t**alpha for t in grid.nodes().tolist()]))


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


def _pece_k(alpha: float, dt: float) -> float:
    """The PECE corrector's endpoint weight dt^alpha / (alpha (alpha + 1))."""
    return dt**alpha / (alpha * (alpha + 1.0))


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
    k = _pece_k(alpha, dt)
    m = np.arange(N, dtype=float)
    b = dt**alpha / alpha * ((m + 1.0) ** alpha - m**alpha)
    a = k * (
        (m + 2.0) ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0) + m ** (alpha + 1.0)
    )
    # a0 cancels about log10(n) digits, so its powers are the scalar libm
    # pow of Python floats: on AVX-512 hardware numpy's vectorised pow
    # differs from libm by one ulp on 206 of 4001 nodes, and the
    # cancellation turns that into up to 6e-13 on a logistic PECE
    # trajectory at N = 4000.  The products and differences are numpy's,
    # the same IEEE operations in the same order as the scalar expression.
    up = np.fromiter(map(pow, m.tolist(), repeat(alpha + 1.0)), float, N)
    down = np.fromiter(map(pow, (m + 1.0).tolist(), repeat(alpha)), float, N)
    a0 = k * (up - (m - alpha) * down)
    return b, a, a0


class _PecePlan(NamedTuple):
    """What a PECE march needs of (alpha, grid): the kernels of
    :func:`pece_kernels`, their k, 1/Gamma(alpha) and the weight tails."""

    k: float
    inv_gamma: float
    b: np.ndarray
    a: np.ndarray
    a0: np.ndarray
    wb: tuple
    wa: tuple
    wa0: tuple


@_per_grid
def _pece_plan(alpha: float, grid: TimeGrid) -> _PecePlan:
    b, a, a0 = map(_read_only, pece_kernels(alpha, grid.N, grid.dt))
    # weight tails: step s + j of a block pairs b[j..0] and a[j..0] with
    # the near list f(u_s..u_{s+j}); in block 0 f(u_0) takes a0[n] alone,
    # so its a weight is zero: (0.0, a[j-1..0]), or (0.0,) at j = 0
    head = min(BLOCK, grid.N)
    bl, al = b[:head].tolist(), a[:head].tolist()
    wb = tuple(tuple(bl[j::-1]) for j in range(head))
    wa = tuple(tuple(al[j::-1]) for j in range(head))
    wa0 = ((0.0,), *((0.0, *t) for t in wa[:-1]))
    return _PecePlan(_pece_k(alpha, grid.dt), 1.0 / math.gamma(alpha), b, a, a0, wb, wa, wa0)


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
    k, inv_gamma, b, a, a0, wb, wa, wa0 = _pece_plan(alpha, grid)
    u0 = float(u0)
    u = [u0]
    fn = f(u0)
    a0f = (a0 * fn).tolist()  # f(u_0) weighted by a0[n], for every step n
    fa = np.empty(N + 1)  # f(u_n), mirrored once per block for the far sums
    fa[0] = fn
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        # f(u_0) takes the weight a0[n], so the a sums start at j = 1
        if s:
            far_b = np.convolve(fa[:s], b[1:e], "valid").tolist()
            far_a = np.convolve(fa[1:s], a[1 : e - 1], "valid").tolist()
        else:
            far_b = far_a = [0.0] * e
        near = [fn]
        for dot, wbj, waj, fb, fc, a0fn in zip(
            _DOTS[1:], wb, wa if s else wa0, far_b, far_a, a0f[s:e]
        ):
            pred = u0 + inv_gamma * (fb + dot(wbj, near))
            hist = a0fn + (fc + dot(waj, near))
            nxt = u0 + inv_gamma * (hist + k * f(pred))
            if not math.isfinite(nxt):  # u holds u_0..u_n: this is step n + 1
                raise NumericOverflowError(f"PECE iterate overflowed at step {len(u)}")
            u.append(nxt)
            fn = f(nxt)
            near.append(fn)
        fa[s : e + 1] = near
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


def _l1_gain(alpha: float, dt: float) -> float:
    """The L1 scheme's gain Gamma(2-alpha) dt^alpha."""
    return math.gamma(2.0 - alpha) * dt**alpha


class _L1Plan(NamedTuple):
    """What an L1 march needs of (alpha, grid): the kernel of
    :func:`l1_kernel`, its weight tails and the gain Gamma(2-alpha) dt^alpha."""

    g: np.ndarray
    wg: tuple
    gain: float


@_per_grid
def _l1_plan(alpha: float, grid: TimeGrid) -> _L1Plan:
    g = _read_only(l1_kernel(alpha, grid.N))
    # weight tails: step s + j of a block pairs g[j..1] with the near list
    # of the increments du_s..du_{s+j-1}
    gl = g[: min(BLOCK, grid.N)].tolist()
    wg = tuple(tuple(gl[j:0:-1]) for j in range(len(gl)))
    return _L1Plan(g, wg, _l1_gain(alpha, grid.dt))


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
    g, wg, gain = _l1_plan(alpha, grid)
    u0 = float(u0)
    u = [u0]
    un = u0
    da = np.empty(N)  # the increments du_n, mirrored once per block for the far sums
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        far = np.convolve(da[:s], g[1:e], "valid").tolist() if s else [0.0] * e
        near = []
        for dot, wgj, fg in zip(_DOTS, wg, far):
            nxt = un - (fg + dot(wgj, near)) + gain * f(un)
            if not math.isfinite(nxt):  # u holds u_0..u_n: this is step n + 1
                raise NumericOverflowError(f"L1 iterate overflowed at step {len(u)}")
            u.append(nxt)
            near.append(nxt - un)
            un = nxt
        da[s:e] = near
    return Trajectory(grid, np.array(u), Method.L1, {"alpha": alpha, "u0": u0})


def discrete_caputo_l1(u, alpha: float, dt: float) -> np.ndarray:
    """L1 approximation of the Caputo derivative of a sampled sequence.

    Returns the values at the nodes n = 1..len(u)-1:

        D^alpha u_n = sum_{m=0}^{n-1} g_m (u_{n-m} - u_{n-m-1}) / (Gamma(2-alpha) dt^alpha)

    with g from :func:`l1_kernel`, as one FFT product of the increments
    with g, zero-padded to 2n so that the circular product holds the
    linear convolution.  Annihilates constants exactly (zero increments
    transform to zeros) and is linear in u.  A step dt that is not
    positive and finite is refused.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("discrete_caputo_l1 needs a 1-D sequence of length >= 2")
    if not (dt > 0 and math.isfinite(dt)):
        raise DomainError(f"discrete_caputo_l1 requires a positive, finite dt, got dt={dt}")
    n = u.size - 1
    g = l1_kernel(alpha, n)
    scale = 1.0 / _l1_gain(alpha, dt)
    m = 2 * n
    return scale * np.fft.irfft(np.fft.rfft(np.diff(u), m) * np.fft.rfft(g, m), m)[:n]
