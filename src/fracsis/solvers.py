"""Time-stepping schemes for scalar Caputo initial value problems.

Both schemes solve ``D^alpha u = f(u)``, ``u(0) = u0`` on a uniform grid
and are nonlocal in time: step n + 1 uses the entire history u_0..u_n.
On a uniform grid the memory weights depend only on the lag m = n - j,
so a march's lag kernel is part of its plan (:func:`_pece_plan`,
:func:`_l1_plan`), not built per step.  A march runs in blocks of
:data:`BLOCK` steps: one ``np.correlate`` per kernel prices the
history before a block for every step in it (:func:`_far`), and one call
of a generated block function adds the lags inside it
(:func:`_pece_block_source`, :func:`_l1_block_source`).  The work stays
O(N^2) multiply-adds, but no step makes a numpy call, indexes a weight,
appends to a list or iterates: at the grid sizes used here, any of them
costs more than the step's arithmetic.  The rounding of a march is fixed
by BLOCK, which sets the far/near split, by the pairing of :func:`_far`
and by the block functions' left-to-right near sums.

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

from ._cache import _compiled, _per_grid, _read_only
from .errors import DomainError, ValidationError, check_alpha

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

#: steps per block of the marches.  A numpy call costs about as much as a
#: few dozen scalar multiply-adds in Python, so the far history is priced
#: once per block and the near lags per step; 16 and 24 tied on
#: ``long_horizon``, and 8 and 32 were slower (CHANGES.md, "sum their
#: near history with straight-line kernels").  BLOCK also sets the
#: far/near split, so changing it changes the rounding of every trajectory
BLOCK = 16

#: the imports of both block functions' sources
_BLOCK_IMPORTS = ["from math import isfinite", "from fracsis.errors import NumericOverflowError"]


def _pece_block_source() -> str:
    """Source of ``_pece_block(m, s, f, u0, inv_gamma, k, w, F0, H0, fb,
    fa, a0f)``, steps s + 1 to s + m of a PECE march given the block's far
    sums fb and fa.

    w holds the block's lag weights B0..B{BLOCK-1}, A0..A{BLOCK-1}: an
    argument, so one compiled function serves every plan.  Step j
    predicts with the b weights over F0..F{j} (the f(u) of the block so
    far), corrects with the a weights over H0, F1..F{j}, where H0 is F0,
    or 0.0 in block 0, whose f(u_0) takes a0[n] alone, and evaluates f at
    both points.  Each near sum is ``0.0 + W{j}*V0 + ... + W0*V{j}``.
    """
    bs = ", ".join(f"B{i}" for i in range(BLOCK))
    As = ", ".join(f"A{i}" for i in range(BLOCK))
    lines = [
        *_BLOCK_IMPORTS,
        "def _pece_block(m, s, f, u0, inv_gamma, k, w, F0, H0, fb, fa, a0f):",
        f"    {bs}, {As} = w",
    ]
    for j in range(BLOCK):
        n = j + 1
        nb = "".join(f" + B{j - i} * F{i}" for i in range(n))
        na = f" + A{j} * H0" + "".join(f" + A{j - i} * F{i}" for i in range(1, n))
        lines += [
            f"    P = u0 + inv_gamma * (fb[{j}] + (0.0{nb}))",
            f"    U{n} = u0 + inv_gamma * (a0f[{j}] + (fa[{j}] + (0.0{na})) + k * f(P))",
            f"    if not isfinite(U{n}):",
            f'        raise NumericOverflowError(f"PECE iterate overflowed at step {{s + {n}}}")',
            f"    F{n} = f(U{n})",
            *_block_return(n, [f"F{i}" for i in range(n, 0, -1)]),
        ]
    return "\n".join(lines) + "\n"


def _l1_block_source() -> str:
    """Source of ``_l1_block(m, s, f, U0, gain, w, fg)``, steps s + 1 to
    s + m of an L1 march given the block's far sums fg.

    w holds the block's lag weights G1..G{BLOCK-1}.  Step j takes U{j}
    (U0 the last iterate before the block) to U{j+1} with the g weights
    over the block's increments D0..D{j-1}, summed as in
    :func:`_pece_block_source`, and forms D{j} = U{j+1} - U{j}.
    """
    gs = ", ".join(f"G{i}" for i in range(1, BLOCK))
    lines = [*_BLOCK_IMPORTS, "def _l1_block(m, s, f, U0, gain, w, fg):", f"    {gs} = w"]
    for j in range(BLOCK):
        near = "".join(f" + G{j - i} * D{i}" for i in range(j))
        lines += [
            f"    U{j + 1} = U{j} - (fg[{j}] + (0.0{near})) + gain * f(U{j})",
            f"    if not isfinite(U{j + 1}):",
            f'        raise NumericOverflowError(f"L1 iterate overflowed at step {{s + {j + 1}}}")',
            f"    D{j} = U{j + 1} - U{j}",
            *_block_return(j + 1, [f"D{i}" for i in range(j, -1, -1)]),
        ]
    return "\n".join(lines) + "\n"


def _block_return(n: int, values: list[str]) -> list[str]:
    """The return after step n, the last of a block of n <= BLOCK steps:
    the iterates U1..U{n}, then the new history values newest first, as
    the reversed history array stores them."""
    ret = "return (%s,), (%s,)" % (", ".join(f"U{i}" for i in range(1, n + 1)), ", ".join(values))
    return [f"    {ret}"] if n == BLOCK else [f"    if m == {n}:", f"        {ret}"]


#: the far sums of block 0, which has no history before it
_ZEROS = (0.0,) * BLOCK


def _far(w: np.ndarray, h: np.ndarray) -> list:
    """The far sums of a block, ``np.convolve(h[::-1], w, "valid")``, as a
    list; w is the kernel slice, h the history before the block, stored
    reversed.

    ``np.convolve`` puts its longer argument first and correlates it with
    the other reversed, which copies the other.  While w is the longer,
    that is ``np.correlate(w, h)`` on the stored order, with no copy.  At
    equal lengths, in a one-step last block, convolve keeps h[::-1] first
    and so does this: the other pairing adds the products in another
    order.
    """
    if w.size > h.size:
        return np.correlate(w, h, "valid").tolist()
    return np.convolve(h[::-1], w, "valid").tolist()


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

    Each power is the libm ``pow`` of ``math.pow``: numpy's vectorised
    pow may differ from it by one ulp.
    """
    return _read_only(np.fromiter(map(math.pow, grid.nodes().tolist(), repeat(alpha)), float))


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
    so this is where alpha outside (0, 1] is refused.  Each call returns
    fresh, writable arrays.
    """
    check_alpha(alpha, "the PECE scheme requires alpha")
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
    :func:`pece_kernels`, their k, 1/Gamma(alpha) and the block weights."""

    k: float
    inv_gamma: float
    b: np.ndarray
    a: np.ndarray
    a0: np.ndarray
    w: tuple


@_per_grid
def _pece_plan(alpha: float, grid: TimeGrid) -> _PecePlan:
    b, a, a0 = map(_read_only, pece_kernels(alpha, grid.N, grid.dt))
    # the block weights b[0..BLOCK-1], a[0..BLOCK-1], zero past the last
    # lag of a shorter grid, which no step reads
    pad = [0.0] * (BLOCK - min(BLOCK, grid.N))
    w = (*b[:BLOCK].tolist(), *pad, *a[:BLOCK].tolist(), *pad)
    return _PecePlan(_pece_k(alpha, grid.dt), 1.0 / math.gamma(alpha), b, a, a0, w)


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
    k, inv_gamma, b, a, a0, w = _pece_plan(alpha, grid)
    block = _compiled(_pece_block_source)
    u0 = float(u0)
    u = [u0]
    fn = f(u0)
    a0f = (a0 * fn).tolist()  # f(u_0) weighted by a0[n], for every step n
    R = np.empty(N + 1)  # R[N - n] = f(u_n): the history reversed, for the far sums
    R[N] = fn
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        if s:
            # f(u_0) takes the weight a0[n], so the a sums start at u_1
            far_b = _far(b[1:e], R[N - s + 1 :])
            far_a = _far(a[1 : e - 1], R[N - s + 1 : N])
            us, fs = block(e - s, s, f, u0, inv_gamma, k, w, fn, fn, far_b, far_a, a0f[s:e])
        else:  # and in block 0 f(u_0) takes no a weight: H0 is 0.0
            us, fs = block(e, 0, f, u0, inv_gamma, k, w, fn, 0.0, _ZEROS, _ZEROS, a0f)
        u += us
        R[N - e : N - s] = fs
        fn = fs[0]
    return Trajectory(grid, np.array(u), Method.PECE, {"alpha": alpha, "u0": u0})


def l1_kernel(alpha: float, N: int) -> np.ndarray:
    """L1 weights g[m] = (m+1)^(1-alpha) - m^(1-alpha), m = 0..N-1.

    The L1 discrete Caputo derivative at t_n is
    sum_{m=0}^{n-1} g[m] (u_{n-m} - u_{n-m-1}) / (Gamma(2-alpha) dt^alpha):
    it weights increments, so it annihilates constants exactly.  g[0] = 1,
    g decreases in m, and sum_{m<N} g[m] telescopes to N^(1-alpha).  Every
    L1 routine builds it first, so this is where alpha outside (0, 1) is
    refused.  Each call returns a fresh, writable array.
    """
    check_alpha(alpha, "the L1 scheme requires alpha", closed=False)
    m = np.arange(N, dtype=float)
    g = (m + 1.0) ** (1.0 - alpha) - m ** (1.0 - alpha)
    g[:1] = 1.0
    return g


def _l1_gain(alpha: float, dt: float) -> float:
    """The L1 scheme's gain Gamma(2-alpha) dt^alpha."""
    return math.gamma(2.0 - alpha) * dt**alpha


class _L1Plan(NamedTuple):
    """What an L1 march needs of (alpha, grid): the kernel of
    :func:`l1_kernel`, its block weights and the gain Gamma(2-alpha) dt^alpha."""

    g: np.ndarray
    w: tuple
    gain: float


@_per_grid
def _l1_plan(alpha: float, grid: TimeGrid) -> _L1Plan:
    g = _read_only(l1_kernel(alpha, grid.N))
    # the block weights g[1..BLOCK-1], zero past the last lag of a shorter
    # grid, which no step reads
    w = (*g[1:BLOCK].tolist(), *[0.0] * (BLOCK - min(BLOCK, grid.N)))
    return _L1Plan(g, w, _l1_gain(alpha, grid.dt))


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
    g, w, gain = _l1_plan(alpha, grid)
    block = _compiled(_l1_block_source)
    u0 = float(u0)
    u = [u0]
    R = np.empty(N + 1)  # R[N - n] = u_{n+1} - u_n: the increments reversed, for the far sums
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        far = _far(g[1:e], R[N - s + 1 :]) if s else _ZEROS
        us, ds = block(e - s, s, f, u[-1], gain, w, far)
        u += us
        R[N - e + 1 : N - s + 1] = ds
    return Trajectory(grid, np.array(u), Method.L1, {"alpha": alpha, "u0": u0})


def discrete_caputo_l1(u, alpha: float, dt: float) -> np.ndarray:
    """L1 approximation of the Caputo derivative of a sampled sequence.

    Returns the values at the nodes n = 1..len(u)-1:

        D^alpha u_n = sum_{m=0}^{n-1} g_m (u_{n-m} - u_{n-m-1}) / (Gamma(2-alpha) dt^alpha)

    with g from :func:`l1_kernel`, as one FFT product of the increments
    with g, zero-padded to 2n so that the circular product holds the
    linear convolution.  Annihilates constants exactly (zero increments
    transform to zeros) and is linear in u.  A step dt that is not
    positive and finite, or a u with a non-finite entry, is refused.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("discrete_caputo_l1 needs a 1-D sequence of length >= 2")
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise DomainError(
            f"discrete_caputo_l1 requires a finite u, got u[{bad[0]}]={u[bad[0]]}"
        )
    if not (dt > 0 and math.isfinite(dt)):
        raise DomainError(f"discrete_caputo_l1 requires a positive, finite dt, got dt={dt}")
    n = u.size - 1
    g = l1_kernel(alpha, n)
    scale = 1.0 / _l1_gain(alpha, dt)
    m = 2 * n
    return scale * np.fft.irfft(np.fft.rfft(np.diff(u), m) * np.fft.rfft(g, m), m)[:n]
