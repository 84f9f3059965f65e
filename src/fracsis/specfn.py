"""The one-parameter Mittag-Leffler function E_alpha.

    E_a(z) = sum_{k>=0} z^k / Gamma(a k + 1)

:func:`mittag_leffler` does not sum the series: for 0 < a < 1 and
z != 0 it inverts E_a's Laplace transform by a fixed rule on the
parabolic contour of Weideman & Trefethen (2007, Math. Comp.
76:1341-1356), which costs the same for every z and does not cancel
(:func:`_contour` for z < 0, :func:`_residue_contour` for z > 0), each
over :data:`_Z_BLOCK` z at a time (:func:`_block_sums`).  All functions
are pure and operate in binary64.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_alpha

__all__ = ["mittag_leffler"]


#: steps on each half of E_alpha's contour (:func:`_contour_nodes`).  Its
#: nodes reach Re s = 0.1309 N, so e^s, and the rounding of the sum, grow
#: like e^(0.13 N): N = 64 and 128 were less accurate than 32
_CONTOUR_N = 32


def _contour_nodes(start: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes s_k = s(u_k) of the parabola s(u) = n (0.1309 - 0.1194 u^2
    + 0.25 i u), n = ``_CONTOUR_N``, at u_k = (k + start) h in [0, 3],
    h = 3/n, and the alpha-free part of their weights,
    h/(2 pi i) e^(s_k) s'(u_k), doubled where u_k > 0 to stand for the
    conjugate node s(-u_k).  ``start`` 0 gives the trapezoidal rule's
    n + 1 nodes, 1/2 the midpoint rule's n."""
    n = _CONTOUR_N
    h = 3.0 / n
    u = np.arange(start, n + 1 - start) * h
    s = n * (0.1309 - 0.1194 * u**2 + 0.25j * u)
    w = h / (2j * math.pi) * np.exp(s) * (n * (-0.2388 * u + 0.25j))
    w[u > 0] *= 2.0
    return s, w


_NODES, _WEIGHTS = _contour_nodes(0.0)
#: the midpoint rule has no node on the real axis, where a pole z^(1/alpha)
#: near the trapezoidal rule's apex 0.1309 N would cancel its subtraction
_MID_NODES, _MID_WEIGHTS = _contour_nodes(0.5)
#: past this |z|, D^2 below would overflow; for z < 0 the contour sum is,
#: to binary64, its limit sum_k Re w_k / -z, as |s_k^alpha| < 40, and for
#: z > 0 E_alpha is past binary64
_FAR_Z = 1e150
#: alpha E_alpha(1) as alpha -> 0, the integral of 1/Gamma(1 + x) over x > 0
#: (2.2665345076998488): :func:`_residue_contour`'s sum at z = 1 with
#: s^alpha - 1 = alpha log s, by the same rule
_E1_LIMIT = math.expm1(1.0) + float(
    (_MID_WEIGHTS / _MID_NODES * (1 / np.log(_MID_NODES) - 1 / (_MID_NODES - 1))).real.sum()
)


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


#: z per block of a contour sum: a temporary of :func:`_re_terms` holds at
#: most 33 x 256 float64, 66 KiB, under glibc malloc's 128 KiB mmap
#: threshold, so it is reused from the heap; 1001 z in one pass make
#: 264 KiB ones, which malloc maps and unmaps on every call, faulting
#: their pages in anew (``BENCH_36.json``).  A column's sum depends on
#: its own z alone (:func:`_node_sum`), so blocks give one pass's bits
_Z_BLOCK = 256


def _block_sums(n: int, terms_of) -> np.ndarray:
    """:func:`_node_sum` of ``terms_of(cols)`` over the n columns, ``_Z_BLOCK`` at a time."""
    total = np.empty(n)
    for i in range(0, n, _Z_BLOCK):
        cols = slice(i, i + _Z_BLOCK)
        total[cols] = _node_sum(terms_of(cols))
    return total


def _contour(alpha: float, z: np.ndarray) -> np.ndarray:
    """E_alpha(z) at each z < 0 of a 1-d array, 0 < alpha < 1.

    E_alpha(z) is the inverse Laplace transform at t = 1 of
    F(s) = s^(alpha-1) / (s^alpha - z), which for z < 0 has no pole on the
    principal sheet.  The trapezoidal rule on the contour of
    :func:`_contour_nodes` gives E = Re sum_k w_k / (a_k - z), with
    a_k = s_k^alpha and w_k the weights times s_k^(alpha-1), formed by
    :func:`_re_terms` for a block of z at a time and summed over the nodes
    in their order, k = 0..N.
    """
    a = _NODES**alpha
    w = _WEIGHTS * a / _NODES
    x = np.maximum(z, -_FAR_Z)
    total = _block_sums(x.size, lambda cols: _re_terms(w, a, x[cols]))
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
    Where p is capped at ``_FAR_Z`` so is E: e^p is inf, and the sum,
    finite, leaves it so.

    Where every Re s_k^alpha rounds to 1 (alpha below about 3.06e-17)
    the rule cannot resolve alpha log|s_k|, and E takes the order-zero
    limit of :func:`mittag_leffler` before any contour work
    (``_E1_LIMIT`` / alpha at z = 1, inf below alpha of about 1.26e-308).
    The limit is within about alpha / (1 - z) relative of E below z = 1
    and alpha relative at z = 1.
    """
    a = _MID_NODES**alpha
    if (a.real == 1.0).all():
        with np.errstate(divide="ignore", over="ignore"):
            at_one = np.where(z == 1.0, _E1_LIMIT / np.float64(alpha), np.inf)
            return np.where(z < 1.0, 1.0 / (1.0 - z), at_one)
    y = 1.0 / alpha
    # y = 1/alpha rounded puts up to 2^-53 log p of relative error into
    # z^y, which e^p multiplies by p; so p = z^y (1 + y_lo log z), with
    # y_lo = 1/alpha - y exact
    y_lo = float(1 / Fraction(alpha) - Fraction(y))
    z = np.minimum(z, _FAR_Z)
    with np.errstate(over="ignore"):
        p = np.minimum(z**y, _FAR_Z)
        # a capped p stays capped: there y_lo log z can be 1e84 or more
        near = p < _FAR_Z
        p[near] += p[near] * (y_lo * np.log(z[near]))
        w, wp = _MID_WEIGHTS * a / _MID_NODES, _MID_WEIGHTS / (alpha * _MID_NODES)

        def terms_of(cols):
            terms = _re_terms(w, a, z[cols])
            pole = _re_terms(wp, _MID_NODES, p[cols])
            pole *= p[cols]
            terms -= pole
            return terms

        return np.expm1(p) / alpha + _block_sums(z.size, terms_of)


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
      relative beyond, where e^p turns p's rounding into p ulp.  Below
      alpha of about 3.06e-17 it is the order-zero limit instead:
      1/(1 - z) below z = 1, 2.2665... / alpha at z = 1 and inf above.

    Where E_alpha(z) is past binary64 the result is ``inf``, as
    ``np.exp`` gives it, to within that accuracy of the edge, and never
    nan: E_0.5(20) is 1.0e174 and E_0.5(27) inf.  ``z`` is a float
    (giving a float) or an array.  Besides its work per z a call costs a
    fixed few dozen numpy calls, so pass many points as one array.  Raises
    :class:`DomainError`, naming the first non-finite z, before any sum.
    """
    check_alpha(alpha, "mittag_leffler requires alpha")
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

