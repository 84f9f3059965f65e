"""Scheme kernels, marches, discrete-operator properties, limits and orders."""

import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsis import _cache, coeffs, series, solvers
from fracsis.errors import DomainError, NumericOverflowError, ValidationError
from fracsis.harness import preset_config, run_methods, solve_method
from fracsis.model import ModelParams, classical_sis, derive, logistic_rhs
from fracsis.specfn import mittag_leffler
from fracsis.solvers import (
    BLOCK,
    Method,
    TimeGrid,
    Trajectory,
    discrete_caputo_l1,
    l1_kernel,
    node_powers,
    pece_kernels,
    solve_l1,
    solve_pece,
)

ENDEMIC = dict(beta=0.7, gamma=0.05, mu=0.12)
SIGMA1 = dict(beta=0.7, gamma=0.07, mu=0.63)
SUBCRITICAL = dict(beta=0.3, gamma=0.2, mu=0.3)

# ---------------------------------------------------------------------------
# reference: the weights of one step n, built from their textbook formulas,
# and the marches built on them (O(N^2) weight evaluations per run)


def libm_powers(n, p):
    """m**p for m = 0..n, each the libm pow of ``math.pow``: the package's
    power rule for the PECE weights, which numpy's vectorised pow can
    miss by an ulp."""
    return np.fromiter(map(math.pow, np.arange(n + 1.0).tolist(), itertools.repeat(p)), float, n + 1)


def pece_weights_b(alpha, n, dt):
    """Rectangle-rule weights b_{j,n+1}, j = 0..n."""
    P = libm_powers(n + 1, alpha)  # P[m] = m^alpha
    j = np.arange(n + 1)
    return dt**alpha / alpha * (P[n + 1 - j] - P[n - j])


def pece_weights_a(alpha, n, dt):
    """Trapezoidal weights a_{j,n+1}, j = 0..n+1."""
    k = dt**alpha / (alpha * (alpha + 1.0))
    Q = libm_powers(n + 2, alpha + 1.0)  # Q[m] = m^(alpha+1)
    a = np.empty(n + 2)
    a[0] = k * (Q[n] - (n - alpha) * math.pow(n + 1, alpha))
    j = np.arange(1, n + 1)
    a[1 : n + 1] = k * (Q[n - j + 2] - 2.0 * Q[n - j + 1] + Q[n - j])
    a[n + 1] = k
    return a


def l1_coeffs(alpha, n):
    """L1 weights C_{n,j}, j = 0..n-1, of u_j in the derivative at t_n.

    With g(r) = r^(1-alpha) - (r-1)^(1-alpha): C_{n,0} = g(n) and
    C_{n,j} = g(n-j) - g(n-j+1) for j >= 1.
    """
    r = np.arange(1, n + 1, dtype=float)
    g = r ** (1.0 - alpha) - (r - 1.0) ** (1.0 - alpha)
    c = np.empty(n)
    c[0] = g[n - 1]
    if n >= 2:
        j = np.arange(1, n)
        c[1:] = g[n - j - 1] - g[n - j]
    return c


def reference_pece(f, u0, grid, alpha):
    inv_gamma = 1.0 / math.gamma(alpha)
    u = np.empty(grid.N + 1)
    fu = np.empty(grid.N + 1)
    u[0], fu[0] = u0, f(u0)
    for n in range(grid.N):
        pred = u0 + inv_gamma * (pece_weights_b(alpha, n, grid.dt) @ fu[: n + 1])
        aw = pece_weights_a(alpha, n, grid.dt)
        u[n + 1] = u0 + inv_gamma * (aw[: n + 1] @ fu[: n + 1] + aw[n + 1] * f(pred))
        fu[n + 1] = f(u[n + 1])
    return u


def reference_l1(f, u0, grid, alpha):
    """u_{n+1} = sum_j C_{n+1,j} u_j + Gamma(2-alpha) dt^alpha f(u_n).

    The history sum is taken as u_n + sum_j C_j (u_j - u_n) (the weights
    sum to one), which avoids cancelling the full values.
    """
    gain = math.gamma(2.0 - alpha) * grid.dt**alpha
    u = np.empty(grid.N + 1)
    u[0] = u0
    for n in range(grid.N):
        hist = u[n] + l1_coeffs(alpha, n + 1) @ (u[: n + 1] - u[n])
        u[n + 1] = hist + gain * f(u[n])
    return u


def reference_caputo(u, alpha, dt):
    """sum_{j<n} C_{n,j} (u_n - u_j) / (Gamma(2-alpha) dt^alpha), n = 1..len(u)-1."""
    scale = 1.0 / (math.gamma(2.0 - alpha) * dt**alpha)
    return np.array([scale * (l1_coeffs(alpha, n) @ (u[n] - u[:n])) for n in range(1, u.size)])


def l1_weights_on_values(g, n):
    """C_{n,j}, j = 0..n-1, from the increment kernel: g[n-1], then g[n-j-1] - g[n-j]."""
    j = np.arange(1, n)
    return np.concatenate([[g[n - 1]], g[n - j - 1] - g[n - j]])


def endemic_problem(alpha):
    d = derive(ModelParams(alpha=alpha, i0=0.5, **ENDEMIC))
    p = ModelParams(alpha=alpha, i0=d.c / 2.0, **ENDEMIC)
    return p, d, logistic_rhs(p, d)


class TestTimeGrid:
    def test_reference_grids(self):
        g = TimeGrid(5.0, 0.05)
        assert g.N == 100
        assert g.nodes()[0] == 0.0
        assert g.nodes()[-1] == pytest.approx(5.0, abs=1e-12)
        assert TimeGrid(1.0, 0.01).N == 100

    def test_uneven_division_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 0.3)
        with pytest.raises(ValidationError):
            TimeGrid(-1.0, 0.1)

    @pytest.mark.parametrize(
        "T, dt",
        [(math.inf, 0.1), (1.0, math.inf), (math.inf, math.inf), (1e300, 1e-300)],
        ids=["T", "dt", "both", "ratio"],
    )
    def test_non_finite_grid_rejected(self, T, dt):
        with pytest.raises(ValidationError, match=r"finite T, dt and T/dt.*T=.*dt="):
            TimeGrid(T, dt)

    @pytest.mark.parametrize(
        "T, dt", [(1e200, 1e-100), (2.0**61, 1.0)], ids=["N-1e300", "N-2**61"]
    )
    def test_grid_too_large_for_an_array_rejected(self, T, dt):
        # only N above the bound: any N below it would ask numpy for petabytes
        with pytest.raises(ValidationError, match=r"one array.*T=.*dt="):
            TimeGrid(T, dt)

    def test_trajectory_shape_checked(self):
        g = TimeGrid(1.0, 0.5)
        with pytest.raises(ValidationError):
            Trajectory(g, np.zeros(5), Method.PECE)


class TestPeceWeights:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_kernels_match_per_step_formulas(self, alpha):
        dt = 0.05
        b, a, a0 = pece_kernels(alpha, 200, dt)
        k = dt**alpha / (alpha * (alpha + 1.0))
        for n in range(200):
            assert np.array_equal(b[n::-1], pece_weights_b(alpha, n, dt))
            want = np.concatenate([[a0[n]], a[:n][::-1], [k]])
            assert np.array_equal(want, pece_weights_a(alpha, n, dt))

    @pytest.mark.parametrize("N", [1, 17, 100, 4000])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0])
    def test_kernels_equal_the_scalar_libm_formulas(self, alpha, N):
        # every power is one math.pow call, as in pece_kernels' power
        # rule; numpy's vectorised pow misses libm by an ulp on some
        # entries on AVX-512 hardware
        dt = 0.025
        k = dt**alpha / (alpha * (alpha + 1.0))
        p, q = alpha, alpha + 1.0
        want = (
            [dt**alpha / alpha * (math.pow(m + 1, p) - math.pow(m, p)) for m in range(N)],
            [k * (math.pow(m + 2, q) - 2.0 * math.pow(m + 1, q) + math.pow(m, q)) for m in range(N)],
            [k * (math.pow(n, q) - (n - alpha) * math.pow(n + 1, p)) for n in range(N)],
        )
        for got, w in zip(pece_kernels(alpha, N, dt), want):
            assert np.array_equal(got, w)

    def test_rectangle_weights_alpha_one(self):
        b, _, _ = pece_kernels(1.0, 8, 0.05)
        np.testing.assert_allclose(b, 0.05, rtol=0, atol=0)

    def test_rectangle_weight_half_order(self):
        assert pece_kernels(0.5, 1, 1.0)[0][0] == pytest.approx(2.0, rel=1e-15)

    def test_rectangle_weights_positive_decreasing(self):
        for alpha in (0.3, 0.7, 1.0):
            b, _, _ = pece_kernels(alpha, 51, 0.05)
            assert np.all(b > 0)
            # weight decreases with the lag n - j
            assert np.all(np.diff(b) <= 0)

    def test_trapezoid_weights_alpha_one(self):
        # first-node weight dt/2, inner weights dt; the endpoint weight
        # k = dt/2 on the predicted value is checked by the AM1 oracle of
        # TestSolvePece
        dt = 0.05
        _, a, a0 = pece_kernels(1.0, 7, dt)
        np.testing.assert_allclose(a0, dt / 2.0, rtol=1e-14)
        np.testing.assert_allclose(a, dt, rtol=1e-14)

    def test_trapezoid_first_step(self):
        assert pece_kernels(1.0, 1, 0.05)[2][0] == pytest.approx(0.025, rel=1e-14)

    def test_trapezoid_weights_nonnegative_brute(self):
        for alpha in np.linspace(0.05, 1.0, 20):
            for w in pece_kernels(float(alpha), 10_000, 0.1):
                assert np.all(w >= 0)

    def test_endpoints(self):
        with pytest.raises(DomainError):
            pece_kernels(0.0, 5, 0.1)
        with pytest.raises(DomainError):
            pece_kernels(1.5, 5, 0.1)


class TestSolvePece:
    def test_preserves_constants(self):
        g = TimeGrid(2.0, 0.1)
        traj = solve_pece(lambda u: 0.0, 0.37, g, 0.6)
        np.testing.assert_array_equal(traj.u, 0.37)

    def test_linear_decay_alpha_one(self):
        g = TimeGrid(1.0, 0.01)
        traj = solve_pece(lambda u: -u, 1.0, g, 1.0)
        assert traj.u[-1] == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_alpha_one_equals_am1_on_integrated_form(self):
        # independent oracle: Heun-type one-step Adams-Moulton applied to
        # u = u0 + integral of f, coded directly without the fractional
        # weight formulas
        g = TimeGrid(1.0, 0.01)
        f = lambda u: -u
        u = np.empty(g.N + 1)
        fu = np.empty(g.N + 1)
        u[0], fu[0] = 1.0, f(1.0)
        for n in range(g.N):
            pred = u[0] + g.dt * fu[: n + 1].sum()
            u[n + 1] = u[0] + g.dt * (0.5 * fu[0] + fu[1 : n + 1].sum() + 0.5 * f(pred))
            fu[n + 1] = f(u[n + 1])
        traj = solve_pece(f, 1.0, g, 1.0)
        np.testing.assert_allclose(traj.u, u, rtol=0, atol=1e-10)

    def test_fig1_continuity_to_classical(self):
        p, d, f = endemic_problem(0.99)
        g = TimeGrid(5.0, 0.05)
        ic, _ = classical_sis(p, g.nodes())
        traj = solve_pece(f, p.i0, g, 0.99)
        assert np.max(np.abs(traj.u - ic)) <= 1e-2

    def test_overflow_reports_step(self):
        g = TimeGrid(1.0, 0.1)
        with pytest.raises(NumericOverflowError, match="step"):
            solve_pece(lambda u: u * u, 1e200, g, 0.5)

    def test_domain(self):
        g = TimeGrid(1.0, 0.1)
        with pytest.raises(DomainError):
            solve_pece(lambda u: 0.0, 1.0, g, 0.0)


class TestL1Coeffs:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_kernel_matches_per_step_formula(self, alpha):
        g = l1_kernel(alpha, 200)
        for n in range(1, 201):
            assert np.array_equal(l1_weights_on_values(g, n), l1_coeffs(alpha, n))

    @pytest.mark.parametrize("alpha,n", [(0.3, 50), (0.5, 1), (0.7, 7), (0.95, 200)])
    def test_weights_sum_to_one(self, alpha, n):
        # the increment weights telescope to n^(1-alpha), so the weights
        # on the values u_j sum to g[0] = 1
        g = l1_kernel(alpha, n)
        assert g.sum() == pytest.approx(n ** (1.0 - alpha), rel=1e-12)
        assert l1_weights_on_values(g, n).sum() == pytest.approx(1.0, abs=1e-12)

    def test_first_step_weight_is_one(self):
        for alpha in (0.1, 0.5, 0.9):
            assert l1_kernel(alpha, 5)[0] == 1.0

    def test_alpha_to_one_degenerates_to_last_value(self):
        g = l1_kernel(1.0 - 1e-12, 25)
        assert np.max(np.abs(g[1:])) < 1e-9
        c = l1_weights_on_values(g, 25)
        assert c[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(c[:-1])) < 1e-9

    def test_endpoints_excluded(self):
        with pytest.raises(DomainError):
            l1_kernel(1.0, 5)
        with pytest.raises(DomainError):
            l1_kernel(0.0, 5)


class TestSolveL1:
    def test_preserves_constants(self):
        g = TimeGrid(2.0, 0.1)
        traj = solve_l1(lambda u: 0.0, 0.37, g, 0.6)
        np.testing.assert_allclose(traj.u, 0.37, rtol=0, atol=1e-15)

    def test_first_step_formula(self):
        g = TimeGrid(1.0, 0.1)
        alpha = 0.6
        f = lambda u: -(u**2)
        traj = solve_l1(f, 0.5, g, alpha)
        want = 0.5 + math.gamma(2.0 - alpha) * 0.1**alpha * f(0.5)
        assert traj.u[1] == pytest.approx(want, rel=1e-14)

    def test_near_one_matches_forward_euler(self):
        g = TimeGrid(1.0, 0.01)
        f = lambda u: -u
        traj = solve_l1(f, 1.0, g, 0.999)
        u = np.empty(g.N + 1)
        u[0] = 1.0
        for n in range(g.N):
            u[n + 1] = u[n] + g.dt * f(u[n])
        assert np.max(np.abs(traj.u - u)) <= 1e-3

    def test_cross_scheme_agreement_at_07(self):
        p, d, f = endemic_problem(0.7)
        g = TimeGrid(5.0, 0.05)
        dist = np.max(np.abs(solve_l1(f, p.i0, g, 0.7).u - solve_pece(f, p.i0, g, 0.7).u))
        # reference magnitude ~2e-3 for this grid; require the same decade
        assert 2e-4 <= dist <= 2e-2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_reports_step(self):
        # u_1 = 1e100 + gain * 1e200 is finite; f(u_1) overflows
        with pytest.raises(NumericOverflowError, match="at step 2$"):
            solve_l1(lambda u: u * u, 1e100, TimeGrid(1.0, 0.1), 0.5)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            solve_l1(lambda u: 0.0, 1.0, TimeGrid(1.0, 0.1), 1.0)


class TestDiscreteCaputo:
    def test_domain(self):
        for alpha in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError, match="alpha"):
                discrete_caputo_l1(np.arange(5.0), alpha, 0.1)
        with pytest.raises(DomainError):
            discrete_caputo_l1([1.0], 0.5, 0.1)

    @pytest.mark.parametrize("dt", [-0.1, 0.0, math.nan, math.inf])
    def test_refuses_a_bad_step(self, dt):
        with pytest.raises(DomainError, match=rf"dt={dt}$"):
            discrete_caputo_l1(np.arange(5.0), 0.5, dt)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "u, at", [([0.0, 1.0, math.inf, 2.0], "u[2]=inf"), ([0.0, math.nan, 1.0], "u[1]=nan")]
    )
    def test_refuses_a_non_finite_u(self, u, at):
        with pytest.raises(DomainError, match=rf"finite u, got {re.escape(at)}$"):
            discrete_caputo_l1(u, 0.5, 0.1)

    def test_annihilates_constants(self):
        # zero increments transform to zeros, so the FFT product is exact
        for size in (2, 80, 4001):
            u = np.full(size, 0.73)
            got = discrete_caputo_l1(u, 0.5, 0.05)
            assert np.max(np.abs(got)) == 0.0
            assert np.array_equal(got, reference_caputo(u, 0.5, 0.05))

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, c, d):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(40)
        v = rng.standard_normal(40)
        lhs = discrete_caputo_l1(c * u + d * v, 0.4, 0.02)
        rhs = c * discrete_caputo_l1(u, 0.4, 0.02) + d * discrete_caputo_l1(v, 0.4, 0.02)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)

    def test_derivative_of_identity_map(self):
        # Caputo derivative of u(t) = t is t^(1-alpha)/Gamma(2-alpha);
        # the L1 stencil reproduces it exactly for piecewise-linear input
        dt = 0.01
        t = np.arange(101) * dt
        dc = discrete_caputo_l1(t, 0.5, dt)
        want = t[1:] ** 0.5 / math.gamma(1.5)
        assert dc[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-2)
        np.testing.assert_allclose(dc, want, atol=1e-12)


class TestLimitsAndConsistency:
    def test_monotone_approach_to_classical(self):
        # both schemes drift toward the classical solution as alpha -> 1
        # (grid fine enough that the alpha-gap dominates scheme error)
        g = TimeGrid(2.0, 0.002)
        p, d, f = endemic_problem(1.0)
        ic, _ = classical_sis(p, g.nodes())
        devs = {}
        for alpha in (0.999, 0.9999):
            devs[alpha] = (
                np.max(np.abs(solve_pece(f, p.i0, g, alpha).u - ic)),
                np.max(np.abs(solve_l1(f, p.i0, g, alpha).u - ic)),
            )
        assert devs[0.9999][0] < devs[0.999][0]
        assert devs[0.9999][1] < devs[0.999][1]

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_refinement_self_consistency(self, alpha):
        p, d, f = endemic_problem(alpha)
        for solver in (solve_pece, solve_l1):
            ref = solver(f, p.i0, TimeGrid(5.0, 0.05 / 8), alpha).u[::8]
            e_coarse = np.max(np.abs(solver(f, p.i0, TimeGrid(5.0, 0.05), alpha).u - ref))
            e_fine = np.max(
                np.abs(solver(f, p.i0, TimeGrid(5.0, 0.025), alpha).u[::2] - ref)
            )
            assert e_fine < e_coarse

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.99])
    def test_bounded_on_reference_grids(self, alpha):
        p, d, f = endemic_problem(alpha)
        for traj in (
            solve_pece(f, p.i0, TimeGrid(5.0, 0.05), alpha),
            solve_l1(f, p.i0, TimeGrid(5.0, 0.05), alpha),
        ):
            assert np.all((traj.u >= 0.0) & (traj.u <= 1.0))
        p0 = ModelParams(alpha=alpha, i0=1.0 / 1.4, **SIGMA1)
        f0 = logistic_rhs(p0, derive(p0))
        for traj in (
            solve_pece(f0, p0.i0, TimeGrid(1.0, 0.01), alpha),
            solve_l1(f0, p0.i0, TimeGrid(1.0, 0.01), alpha),
        ):
            assert np.all((traj.u >= 0.0) & (traj.u <= 1.0))


REGIMES = {
    "c>0": (ENDEMIC, None),
    "c=0": (SIGMA1, 1.0 / 1.4),
    "c<0": (SUBCRITICAL, 0.4),
}


def regime_problem(regime, alpha):
    rates, i0 = REGIMES[regime]
    p = ModelParams(alpha=alpha, i0=0.5 if i0 is None else i0, **rates)
    d = derive(p)
    if i0 is None:
        p = ModelParams(alpha=alpha, i0=d.c / 2.0, **rates)
    return p, logistic_rhs(p, d)


class TestReferenceMarches:
    """The lag-kernel marches against the per-step-weight marches."""

    GRID = TimeGrid(5.0, 0.0025)  # N = 2000

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_pece(self, regime, alpha):
        p, f = regime_problem(regime, alpha)
        got = solve_pece(f, p.i0, self.GRID, alpha).u
        np.testing.assert_allclose(got, reference_pece(f, p.i0, self.GRID, alpha), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_l1_and_its_discrete_caputo(self, regime, alpha):
        p, f = regime_problem(regime, alpha)
        u = solve_l1(f, p.i0, self.GRID, alpha).u
        np.testing.assert_allclose(u, reference_l1(f, p.i0, self.GRID, alpha), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            discrete_caputo_l1(u, alpha, self.GRID.dt),
            reference_caputo(u, alpha, self.GRID.dt),
            rtol=0,
            atol=1e-14,
        )


def inf_from_call(m, f):
    """f, except that the m-th call and every later one return inf."""
    calls = itertools.count(1)
    return lambda u: math.inf if next(calls) >= m else f(u)


def left_fold(w, v):
    """0.0 + w[0]*v[0] + w[1]*v[1] + ..., added left to right."""
    acc = 0.0
    for x, y in zip(w, v):
        acc = acc + x * y
    return acc


def stepwise_pece(f, u0, grid, alpha):
    """The PECE march one step at a time: each step folds its near lags
    from 0.0 and reads its far sums from one ``np.correlate`` of each
    kernel with the history reversed, per block."""
    N = grid.N
    b, a, a0 = pece_kernels(alpha, N, grid.dt)
    bl, al = b.tolist(), a.tolist()
    k, inv_gamma = grid.dt**alpha / (alpha * (alpha + 1.0)), 1.0 / math.gamma(alpha)
    u0 = float(u0)
    u, F = [u0], [f(u0)]
    a0f = (a0 * F[0]).tolist()
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        if s:
            fr = np.array(F[s - 1 :: -1])  # f(u_{s-1}), ..., f(u_0)
            far_b = np.correlate(b[1:e], fr, "valid").tolist()
            far_a = np.correlate(a[1 : e - 1], fr[:-1], "valid").tolist()
        else:
            far_b = far_a = [0.0] * e
        for n in range(s, e):
            j = n - s
            wb = [bl[j - i] for i in range(j + 1)]
            # in block 0, f(u_0) takes a0[n] alone: its a weight is 0.0
            wa = [0.0 if s == i == 0 else al[j - i] for i in range(j + 1)]
            pred = u0 + inv_gamma * (far_b[j] + left_fold(wb, F[s:]))
            hist = a0f[n] + (far_a[j] + left_fold(wa, F[s:]))
            nxt = u0 + inv_gamma * (hist + k * f(pred))
            if not math.isfinite(nxt):
                raise NumericOverflowError(f"PECE iterate overflowed at step {n + 1}")
            u.append(nxt)
            F.append(f(nxt))
    return np.array(u)


def stepwise_l1(f, u0, grid, alpha):
    """The L1 march one step at a time, as :func:`stepwise_pece`."""
    N = grid.N
    g = l1_kernel(alpha, N)
    gl = g.tolist()
    gain = math.gamma(2.0 - alpha) * grid.dt**alpha
    u0 = float(u0)
    u, du = [u0], []
    for s in range(0, N, BLOCK):
        e = min(s + BLOCK, N)
        far = np.correlate(g[1:e], np.array(du[::-1]), "valid").tolist() if s else [0.0] * e
        for n in range(s, e):
            j = n - s
            near = left_fold([gl[j - i] for i in range(j)], du[s:])
            nxt = u[n] - (far[j] + near) + gain * f(u[n])
            if not math.isfinite(nxt):
                raise NumericOverflowError(f"L1 iterate overflowed at step {n + 1}")
            u.append(nxt)
            du.append(nxt - u[n])
    return np.array(u)


def bits(x):
    # the sign of a nan is not compared: which of two nan operands an
    # addition returns varies between the interpreter's add paths, and a
    # march refuses any non-finite iterate
    return "nan" if math.isnan(x) else np.float64(x).tobytes()


class TestNearKernels:
    """The block functions' near sums against a left fold from 0.0.

    Case m drives the sums of m terms: the last step of an m-step PECE
    block and of an (m + 1)-step L1 block.  The right-hand side is a
    script, so the values the lags weight are chosen, not computed.
    """

    # where the order of the additions matters (1e16 + 1.0 - 1e16 is 0.0,
    # 1e16 - 1e16 + 1.0 is 1.0), signed zeros, and then infinities and nan
    FINITE = [1e16, 1.0, -1e16, 0.0, -0.0, 0.1, -3.0]
    SPECIAL = [math.inf, -math.inf, math.nan]

    def cases(self, m, size):
        rng = np.random.default_rng(m)
        yield [1.0] * BLOCK, [(1e16, 1.0, -1e16)[i % 3] for i in range(size)]
        yield [-0.0] * BLOCK, [1.0] * size
        yield [-0.0] * BLOCK, [-0.0] * size
        for pool in (self.FINITE, self.FINITE + self.SPECIAL):
            for _ in range(100):
                yield rng.choice(pool, BLOCK).tolist(), rng.choice(pool, size).tolist()

    @pytest.mark.parametrize("m", range(BLOCK + 1))
    def test_left_fold_from_zero(self, m):
        if m:
            self.check_pece(m)
        if m < BLOCK:
            self.check_l1(m)

    def check_pece(self, m):
        # with 1/Gamma = 1, k = 0, and u0, the far sums and a0 f(u_0) all
        # -0.0, step j predicts at its b sum and corrects to its a sum, bit
        # for bit, sign of zero included; the script returns -0.0 at each
        # prediction and the next value at each iterate
        zeros = [-0.0] * BLOCK
        for (w, v), first in itertools.product(self.cases(m, m + 1), (True, False)):
            wb, wa = w, w[::-1]
            h0 = v[0] if first else 0.0
            calls, values = [], iter(v[1:])

            def f(x):
                calls.append(x)
                return -0.0 if len(calls) % 2 else next(values)

            try:
                got = _cache._compiled(solvers._pece_block_source)(
                    m, 0, f, -0.0, 1.0, 0.0, (*wb, *wa), v[0], h0, zeros, zeros, zeros
                )
            except NumericOverflowError as exc:
                got = str(exc)
            preds = [left_fold(wb[j::-1], v) for j in range(m)]
            iterates = [left_fold(wa[j::-1], [h0, *v[1:]]) for j in range(m)]
            assert [bits(x) for x in calls[::2]] == [bits(x) for x in preds[: len(calls[::2])]]
            assert [bits(x) for x in calls[1::2]] == [bits(x) for x in iterates[: len(calls[1::2])]]
            bad = [j for j, x in enumerate(iterates) if not math.isfinite(x)]
            if bad:
                assert got == f"PECE iterate overflowed at step {bad[0] + 1}", (w, v, first)
            else:
                us, fs = got
                assert [bits(x) for x in us] == [bits(x) for x in iterates], (w, v, first)
                assert [bits(x) for x in fs] == [bits(x) for x in v[m:0:-1]]

    def check_l1(self, m):
        # with a gain of 1, step j takes U_j to U_j - (far + near sum) +
        # f(U_j), and the script chooses f(U_j); U_0 and the far sums are
        # -0.0, so that a near sum of -0.0 would show
        zeros = [-0.0] * BLOCK
        for w, v in self.cases(m, m + 1):
            values = iter(v)
            try:
                got = _cache._compiled(solvers._l1_block_source)(
                    m + 1, 0, lambda x: next(values), -0.0, 1.0, tuple(w[1:]), zeros
                )
            except NumericOverflowError as exc:
                got = str(exc)
            U, D = [-0.0], []
            for j in range(m + 1):
                nxt = U[j] - (-0.0 + left_fold(w[j:0:-1], D)) + v[j]
                if not math.isfinite(nxt):
                    assert got == f"L1 iterate overflowed at step {j + 1}", (w, v)
                    break
                U.append(nxt)
                D.append(nxt - U[j])
            else:
                us, ds = got
                assert [bits(x) for x in us] == [bits(x) for x in U[1:]], (w, v)
                assert [bits(x) for x in ds] == [bits(x) for x in D[::-1]], (w, v)


class TestStepwiseMarches:
    """The block functions against the step-by-step march, byte for byte."""

    NS = [*range(1, 2 * BLOCK + 9), *(k * BLOCK + d for k in (3, 4) for d in (-1, 1)), 2000, 2001]

    @staticmethod
    def problems(alpha):
        """The logistic right-hand sides of the three regimes, one whose
        history is all signed zeros, and one whose sums depend on the
        order of their additions."""
        for regime in sorted(REGIMES):
            p, f = regime_problem(regime, alpha)
            yield regime, f, p.i0
        yield "-0", lambda u: -0.0 * u, 0.25
        yield "order", lambda u: math.sin(1e16 * u) * 1e16 + 1.0, 0.5

    @staticmethod
    def outcome(solver, f, u0, grid, alpha):
        try:
            u = solver(f, u0, grid, alpha)
        except NumericOverflowError as exc:
            return str(exc)
        return getattr(u, "u", u).tobytes()  # a Trajectory or the stepwise array

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_pece(self, alpha):
        for (name, f, u0), N in itertools.product(self.problems(alpha), self.NS):
            g = TimeGrid(N * 0.05, 0.05)
            want = self.outcome(stepwise_pece, f, u0, g, alpha)
            assert self.outcome(solve_pece, f, u0, g, alpha) == want, (name, N)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_l1(self, alpha):
        for (name, f, u0), N in itertools.product(self.problems(alpha), self.NS):
            g = TimeGrid(N * 0.05, 0.05)
            want = self.outcome(stepwise_l1, f, u0, g, alpha)
            assert self.outcome(solve_l1, f, u0, g, alpha) == want, (name, N)


class TestBlockedMarches:
    """The block-by-block marches at and around the block boundaries."""

    # every N through two blocks and eight steps into the third, then both
    # sides of the third and fourth block ends
    NS = [*range(1, 2 * BLOCK + 9), *(k * BLOCK + d for k in (3, 4) for d in (-1, 0, 1))]

    @staticmethod
    def grid(N):
        return TimeGrid(N * 0.05, 0.05)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_pece(self, alpha):
        p, _, f = endemic_problem(alpha)
        for N in self.NS:
            g = self.grid(N)
            np.testing.assert_allclose(
                solve_pece(f, p.i0, g, alpha).u,
                reference_pece(f, p.i0, g, alpha),
                rtol=0,
                atol=1e-14,
                err_msg=f"N={N}",
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_l1_and_its_discrete_caputo(self, alpha):
        p, _, f = endemic_problem(alpha)
        for N in self.NS:
            g = self.grid(N)
            u = solve_l1(f, p.i0, g, alpha).u
            np.testing.assert_allclose(
                u, reference_l1(f, p.i0, g, alpha), rtol=0, atol=1e-14, err_msg=f"N={N}"
            )
            np.testing.assert_allclose(
                discrete_caputo_l1(u, alpha, g.dt),
                reference_caputo(u, alpha, g.dt),
                rtol=0,
                atol=1e-14,
                err_msg=f"N={N}",
            )

    @pytest.mark.parametrize("solver", [solve_pece, solve_l1])
    def test_rhs_called_with_python_floats(self, solver):
        p, _, f = endemic_problem(0.6)
        seen = set()

        def rhs(u):
            seen.add(type(u))
            return f(u)

        solver(rhs, np.float64(p.i0), self.grid(3 * BLOCK + 5), 0.6)
        assert seen == {float}

    @pytest.mark.parametrize("solver", [solve_pece, solve_l1])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_zero_initial_value_stays_zero(self, solver, alpha):
        # f(u_0) = 0 at u_0 = 0, so every history term, a0[n] f(u_0) among
        # them, is an exact zero
        _, _, f = endemic_problem(alpha)
        u = solver(f, 0.0, self.grid(3 * BLOCK + 5), alpha).u
        assert not np.any(u) and not np.any(np.signbit(u))

    # PECE calls f at u_0, then at the predicted and at the corrected value
    # of each step: call 2 * BLOCK + 10 is the prediction of step BLOCK + 5,
    # call 4 * BLOCK + 1 the corrected u_{2 BLOCK}, whose inf reaches step
    # 2 * BLOCK + 1, the first of the third block.  L1 calls f once per
    # step, at u_n for step n + 1.
    @pytest.mark.parametrize(
        "solver,reference,m",
        [
            (solve_pece, reference_pece, 2 * BLOCK + 10),
            (solve_pece, reference_pece, 4 * BLOCK + 1),
            (solve_l1, reference_l1, BLOCK + 4),
            (solve_l1, reference_l1, 2 * BLOCK + 1),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_step_in_later_blocks(self, solver, reference, m):
        p, _, f = endemic_problem(0.6)
        g = self.grid(5 * BLOCK)
        with np.errstate(all="ignore"):
            ref = reference(inf_from_call(m, f), p.i0, g, 0.6)
        step = int(np.argmax(~np.isfinite(ref)))
        assert (step - 1) // BLOCK in (1, 2)
        with pytest.raises(NumericOverflowError, match=f"at step {step}$"):
            solver(inf_from_call(m, f), p.i0, g, 0.6)

    # block 0 pairs f(u_0) with a zero corrector weight, as f(u_0) takes
    # a0[n] on its own: call 1 is f(u_0) itself, call 2 the prediction of
    # step 1, call BLOCK the prediction of step BLOCK / 2
    @pytest.mark.parametrize("m", [1, 2, BLOCK])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pece_overflow_step_in_block_zero(self, m):
        p, _, f = endemic_problem(0.6)
        g = self.grid(5 * BLOCK)
        with np.errstate(all="ignore"):
            ref = reference_pece(inf_from_call(m, f), p.i0, g, 0.6)
        step = int(np.argmax(~np.isfinite(ref)))
        assert (step - 1) // BLOCK == 0
        with pytest.raises(NumericOverflowError, match=f"at step {step}$"):
            solve_pece(inf_from_call(m, f), p.i0, g, 0.6)


class TestConvergenceOrder:
    """Observed orders against the converged carrying-capacity series.

    Error at t = 1 on the c-nonzero preset, dt halved from 0.01 to
    0.000625; PECE converges like dt^(1+alpha), explicit L1 like dt.  (The
    maximum over all nodes is dominated by the t^alpha start and shows
    order alpha for L1.)
    """

    DTS = [0.01 / 2**i for i in range(5)]

    def orders(self, solver, alpha):
        cfg = preset_config("c-nonzero", alpha, T=1.0, dt=self.DTS[-1], terms=200)
        ref = solve_method(cfg, Method.SERIES)
        assert ref.meta["all_converged"]
        p = cfg.params
        f = logistic_rhs(p, derive(p))
        err = [abs(solver(f, p.i0, TimeGrid(1.0, dt), alpha).u[-1] - ref.u[-1]) for dt in self.DTS]
        return np.log2(np.array(err[:-1]) / err[1:])

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_pece(self, alpha):
        assert np.all(np.abs(self.orders(solve_pece, alpha) - (1.0 + alpha)) <= 0.1)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_l1(self, alpha):
        p = self.orders(solve_l1, alpha)
        assert np.all((p >= 0.8) & (p <= 1.1))


class TestExactLinearSolution:
    """Both marches against the exact solution of D^alpha u = lam u,
    u(0) = 1: u = E_alpha(lam t^alpha), which :func:`mittag_leffler` gives
    within 1e-12 of a Talbot oracle, out to ``long_horizon``'s T = 100.

    At t = T the error falls like N^-p, about p = 1 + alpha for PECE and
    p = 1 for L1, and each observed p is pinned within 0.02 of its
    measured value.  The max error sits at the first nodes, where u has a
    t^alpha term, and falls far more slowly; it is pinned at or below
    its measured value plus 10%.
    """

    # scheme, alpha, lam, T, the grid sizes N, the observed order at t = T
    # and the max error at each N, as measured
    CASES = [
        (solve_pece, 0.3, -1.0, 100.0, (2000, 4000), 1.46, (2.44e-2, 1.12e-2)),
        (solve_pece, 0.6, -1.0, 100.0, (2000, 4000), 1.66, (9.46e-4, 7.58e-4)),
        (solve_pece, 0.9, -1.0, 100.0, (2000, 4000), 1.93, (1.91e-4, 5.00e-5)),
        (solve_pece, 0.6, 0.5, 5.0, (2000, 4000), 1.59, (1.15e-4, 3.81e-5)),
        (solve_l1, 0.3, -1.0, 100.0, (2000, 4000, 16000), 1.0, (5.03e-2, 2.53e-2, 1.46e-3)),
        (solve_l1, 0.6, -1.0, 100.0, (2000, 4000, 16000), 1.0, (1.60e-2, 1.53e-2, 9.05e-3)),
        (solve_l1, 0.9, -1.0, 100.0, (2000, 4000, 16000), 1.0, (7.84e-3, 3.92e-3, 1.01e-3)),
        (solve_l1, 0.6, 0.5, 5.0, (2000, 4000, 16000), 0.99, (2.35e-2, 1.18e-2, 2.98e-3)),
    ]

    @pytest.mark.parametrize(
        "solver, alpha, lam, T, Ns, order, worst", CASES,
        ids=[f"{c[0].__name__[6:]}-{c[1]}-lam{c[2]:g}" for c in CASES],
    )
    def test_order_at_T_and_max_error(self, solver, alpha, lam, T, Ns, order, worst):
        worst_seen, at_T = [], []
        for N in Ns:
            grid = TimeGrid(T, T / N)
            u = solver(lambda v: lam * v, 1.0, grid, alpha).u
            err = np.abs(u - mittag_leffler(alpha, lam * node_powers(alpha, grid)))
            worst_seen.append(err.max())
            at_T.append(err[-1])
        orders = np.log(np.divide(at_T[:-1], at_T[1:])) / np.log(np.divide(Ns[1:], Ns[:-1]))
        assert np.all(np.abs(orders - order) <= 0.02), orders
        assert np.all(np.array(worst_seen) <= 1.1 * np.array(worst)), worst_seen


def test_block_functions_compile_on_the_first_march():
    # in a fresh interpreter, importing the package and computing N(t)
    # compiles no generated function; the first table compiles the
    # recursion's block alone, and each scheme's first march its own, once
    code = "\n".join([
        "import fracsis, fracsis.solvers as s",
        "from fracsis._cache import _compiled as c",
        "sizes = [c.cache_info().currsize]",
        "grid = s.TimeGrid(1.0, 0.05)",
        "fracsis.population_curve(0.5, 0.1, 0.3, 1.0, grid)",
        "sizes.append(c.cache_info().currsize)",
        "for build in (fracsis.euler_alpha, fracsis.a_coeffs):",
        "    build(0.5, 40)",
        "    sizes.append(c.cache_info().currsize)",
        "for solve in (s.solve_l1, s.solve_l1, s.solve_pece, s.solve_pece):",
        "    solve(lambda u: -u, 1.0, grid, 0.5)",
        "    sizes.append(c.cache_info().currsize)",
        "print(sizes, c.cache_info().misses)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(solvers.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "1,", "1,", "2,", "2,", "3,", "3]", "3"]


def test_generated_functions_show_their_source():
    # an overflow's traceback ends in the generated block, and shows its line
    with pytest.raises(NumericOverflowError) as info:
        solve_pece(lambda u: u * u, 1e100, TimeGrid(1.0, 0.25), 0.7)
    last = traceback.format_tb(info.value.__traceback__)[-1]
    assert '"<fracsis.solvers._pece_block>"' in last
    assert "raise NumericOverflowError(" in last
    for source, name in ((solvers._pece_block_source, "_pece_block"),
                         (solvers._l1_block_source, "_l1_block"),
                         (coeffs._sq_block_source, "_sq_block")):
        assert inspect.getsource(_cache._compiled(source)).startswith(f"def {name}(")


class TestPlanCache:
    """Per-grid plans and node powers: read-only, keyed by alpha and grid, bounded."""

    @pytest.fixture(autouse=True)
    def cold(self):
        for cache in (solvers._pece_plan, solvers._l1_plan, node_powers):
            cache.cache_clear()

    def test_cached_arrays_refuse_writes(self):
        grid = TimeGrid(5.0, 0.05)
        pece, l1 = solvers._pece_plan(0.7, grid), solvers._l1_plan(0.7, grid)
        for x in (pece.b, pece.a, pece.a0, l1.g, node_powers(0.7, grid)):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        for w in (pece.w, l1.w):
            assert type(w) is tuple and all(type(x) is float for x in w)

    def test_public_kernels_are_fresh_and_writable(self):
        grid = TimeGrid(5.0, 0.05)
        b, _, _ = pece_kernels(0.7, grid.N, grid.dt)
        g = l1_kernel(0.7, grid.N)
        b[0] = g[0] = -1.0
        assert solvers._pece_plan(0.7, grid).b[0] > 0 and solvers._l1_plan(0.7, grid).g[0] == 1.0

    def test_plan_is_the_uncached_build(self):
        grid = TimeGrid(1.0, 1.0 / 37)
        for plan in (solvers._pece_plan, solvers._l1_plan):
            got, want = plan(0.45, grid), plan.__wrapped__(0.45, grid)
            for x, y in zip(got, want):
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes()
                else:
                    assert x == y

    def test_tails_are_the_kernel_slices(self):
        # the block weights: lags 0..BLOCK-1 of b and a, lags 1..BLOCK-1
        # of g, each padded with zeros past the grid's last lag
        for N in (1, BLOCK - 1, BLOCK, 40):
            grid = TimeGrid(N * 0.025, 0.025)
            b, a, _ = pece_kernels(0.45, N, grid.dt)
            g = l1_kernel(0.45, N)
            pad = [0.0] * max(0, BLOCK - N)
            w = (*b[:BLOCK].tolist(), *pad, *a[:BLOCK].tolist(), *pad)
            assert solvers._pece_plan(0.45, grid).w == w
            assert solvers._l1_plan(0.45, grid).w == (*g[1:BLOCK].tolist(), *pad)

    # against T = 5, dt = 0.05 (N = 100): only dt differs, in its 13th digit
    # (T and N are the same), or only N (dt is the same)
    @pytest.mark.parametrize(
        "other", [TimeGrid(5.0, 0.05 + 1e-14), TimeGrid(2.5, 0.05)], ids=["dt", "N"]
    )
    @pytest.mark.parametrize("solver", [solve_pece, solve_l1])
    def test_grids_differing_in_one_of_N_and_dt_equal_uncached_runs(
        self, solver, other, monkeypatch
    ):
        p, _, f = endemic_problem(0.6)
        grids = (TimeGrid(5.0, 0.05), other)
        got = [solver(f, p.i0, g, 0.6).u for g in grids + grids]  # miss, miss, hit, hit
        monkeypatch.setattr(_cache, "_CACHE_MAX_N", 0)  # no grid is cached
        want = [solver(f, p.i0, g, 0.6).u for g in grids + grids]
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]

    def test_twenty_paper_ops_build_eight_plans_per_scheme(self, monkeypatch):
        # every cache holds the paper sweep's working set: each value is
        # built once, so a bound cut below it fails here
        for cache in (coeffs._table, coeffs.log_gamma_orders, series._series_table,
                      series._unit_scale_sums):
            cache.cache_clear()
        built = {"pece": 0, "l1": 0, "table": 0, "root": 0}
        sums = {"unit": 0, "scaled": 0}

        def spy(name, build):
            def counted(*args):
                built[name] += 1
                return build(*args)
            return counted

        def summed(table, arg_scale, powers):
            sums["unit" if arg_scale == 1.0 else "scaled"] += 1
            return sum_nodes(table, arg_scale, powers)

        sum_nodes = series._sum_nodes
        monkeypatch.setattr(solvers, "pece_kernels", spy("pece", pece_kernels))
        monkeypatch.setattr(solvers, "l1_kernel", spy("l1", l1_kernel))
        monkeypatch.setattr(coeffs, "_recurse", spy("table", coeffs._recurse))
        monkeypatch.setattr(coeffs, "_root_test", spy("root", coeffs._root_test))
        monkeypatch.setattr(series, "_sum_nodes", summed)
        for i in range(20):  # 4 alphas x 2 preset grids, each seen 2 or 3 times
            alpha, preset = (0.99, 0.7, 0.5, 0.3)[i % 4], ("c-nonzero", "c-zero")[i // 4 % 2]
            cfg = preset_config(preset, alpha, methods=("series", "pece", "l1"))
            assert cfg.grid.N <= _cache._CACHE_MAX_N
            assert run_methods(cfg)[Method.PECE].u.size == cfg.grid.N + 1
        # one table of each kind, with its root test and thresholds; per
        # alpha the tables' log-Gammas (K = 120), formed once (the
        # carrying-capacity radius forms its own three, in model)
        assert built == {"pece": 8, "l1": 8, "table": 8, "root": 8}
        assert series._series_table.cache_info().misses == 8
        lgammas = coeffs.log_gamma_orders.cache_info()
        assert (lgammas.misses, lgammas.currsize) == (4, 4)
        # every grid is within the bound, so each miss is one build
        assert node_powers.cache_info().misses == 8
        # one zero-capacity sum per alpha; the 12 carrying samples are never cached
        assert sums == {"unit": 4, "scaled": 12}

    def test_bounded_and_equal_after_eviction(self):
        p, _, f = endemic_problem(0.6)
        grid = TimeGrid(5.0, 0.05)
        alphas = [0.3 + 0.05 * i for i in range(_cache._CACHE_SIZE + 4)]
        first = solve_pece(f, p.i0, grid, alphas[0]).u
        for alpha in alphas:
            solve_pece(f, p.i0, grid, alpha)
        assert solvers._pece_plan.cache_info().currsize == _cache._CACHE_SIZE
        assert solve_pece(f, p.i0, grid, alphas[0]).u.tobytes() == first.tobytes()

    def test_grids_past_the_bound_keep_nothing(self):
        p, _, f = endemic_problem(0.6)
        grid = TimeGrid(1.0, 1.0 / (_cache._CACHE_MAX_N + 1))
        for _ in range(2):
            solve_pece(f, p.i0, grid, 0.6)
            solve_l1(f, p.i0, grid, 0.6)
            node_powers(0.6, grid)
        for cache in (solvers._pece_plan, solvers._l1_plan, node_powers):
            assert cache.cache_info().currsize == 0

    @pytest.mark.parametrize("T, dt", [(5.0, 0.05), (1.0, 1.0 / (_cache._CACHE_MAX_N + 1))])
    def test_node_powers_are_libm_powers(self, T, dt):
        grid = TimeGrid(T, dt)
        want = np.array([t**0.7 for t in grid.nodes().tolist()])
        assert node_powers(0.7, grid).tobytes() == want.tobytes()
