"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fracsis.coeffs import a_coeffs, empirical_radius, euler_alpha
from fracsis.harness import (
    population_curve,
    preset_config,
    run_c0_suite,
    run_methods,
    run_table1,
)
from fracsis.model import ModelParams, classical_sis, derive, radius_zero_capacity
from fracsis.solvers import TimeGrid, discrete_caputo_l1, solve_l1, solve_pece
from fracsis.specfn import mittag_leffler

mpmath.mp.dps = 40

# printed one-significant-digit reference distances (series vs pece,
# series vs l1, pece vs l1) per alpha; the (0.7, pece vs l1) entry is
# handled separately -- see test_criterion_1_inconsistent_entry
TABLE1_TARGETS = {
    0.99: (1e-5, 9e-4, 9e-4),
    0.7: (1e-5, 2e-3, 2e-4),
    0.3: (3e-5, 8e-3, 8e-3),
}


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {desc}")


def check(num: int, ok: bool, desc: str) -> None:
    _line(num, ok, desc)
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def table1_reports():
    start = time.perf_counter()
    reports = {r.alpha: r for r in run_table1()}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def c0_entries():
    return {e.alpha: e for e in run_c0_suite()}


def test_criterion_1_table1_within_factor_10(table1_reports):
    reports, elapsed = table1_reports
    ok = elapsed < 5.0
    detail = [f"runtime {elapsed:.2f}s"]
    for alpha, (t_sp, t_sl, t_pl) in TABLE1_TARGETS.items():
        r = reports[alpha]
        for pair, target in (
            (("series", "pece"), t_sp),
            (("series", "l1"), t_sl),
            (("pece", "l1"), t_pl),
        ):
            if alpha == 0.7 and pair == ("pece", "l1"):
                continue  # internally inconsistent target, tested separately
            d = r.distance(*pair)
            ok &= target / 10.0 <= d <= target * 10.0
            detail.append(f"a={alpha} {pair[0]}|{pair[1]}={d:.1e} (target {target:.0e})")
    check(1, ok, "error-table distances within x10 of references; " + "; ".join(detail))


@pytest.mark.xfail(
    strict=True,
    reason="the 2e-4 reference for (alpha=0.7, pece vs l1) contradicts its own row: "
    "max-norm distances satisfy |S-L| <= |S-P| + |P-L|, and the row's other "
    "references (1e-5, 2e-3) force |P-L| ~ 2e-3.  The measured ~2.5e-3 equals "
    "the series-vs-l1 distance, as the triangle inequality requires.",
)
def test_criterion_1_inconsistent_entry(table1_reports):
    reports, _ = table1_reports
    d = reports[0.7].distance("pece", "l1")
    assert 2e-5 <= d <= 2e-3


def test_criterion_2_alpha_to_one_continuity():
    cfg = preset_config("c-nonzero", 0.99, methods=("series", "pece", "l1"))
    trajs = run_methods(cfg)
    ic, _ = classical_sis(cfg.params, cfg.grid.nodes())
    devs = {m.value: float(np.max(np.abs(t.u - ic))) for m, t in trajs.items()}
    ok = all(d <= 1e-2 for d in devs.values())
    check(2, ok, f"alpha=0.99 methods within 1e-2 of the classical solution: {devs}")


def test_criterion_3_blowup_detection(c0_entries):
    e = c0_entries[0.5]
    ok = e.series_diverged_at is not None and e.series_diverged_at <= 1.0
    ok &= e.schemes_bounded
    check(
        3,
        ok,
        f"c=0, alpha=0.5: series divergence flagged at t="
        f"{e.series_diverged_at} <= 1 while both schemes stay in [0, 1]",
    )


def _sigmoid_taylor(K):
    # exact rational recursion for s' = s(1 - s), s(0) = 1/2
    c = [Fraction(1, 2)]
    for n in range(K):
        conv = sum(c[i] * c[n - i] for i in range(n + 1))
        c.append((c[n] - conv) / (n + 1))
    return [math.factorial(k) * ck for k, ck in enumerate(c)]


def test_criterion_4_coefficient_oracles():
    euler = euler_alpha(1.0, 9).values
    sig = _sigmoid_taylor(9)
    dev_e = max(abs(e - float(s)) for e, s in zip(euler, sig))
    a_near = a_coeffs(1.0 - 1e-12, 8).values
    dev_a = max(
        abs(a - (-1) ** k * math.factorial(k) / 2 ** (k + 1))
        for k, a in enumerate(a_near)
    )
    ok = dev_e <= 1e-10 and dev_a <= 1e-8
    check(
        4,
        ok,
        f"alpha=1 Euler prefix vs sigmoid Taylor (dev {dev_e:.1e} <= 1e-10); "
        f"alpha->1 A-table vs (-1)^k k!/2^(k+1) (dev {dev_a:.1e} <= 1e-8)",
    )


def test_criterion_5_even_vanishing():
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.99):
        table = euler_alpha(alpha, 21)
        worst = max(worst, max(abs(table.values[2 * k]) for k in range(1, 11)))
    check(5, worst < 1e-10, f"|E_2k| < 1e-10 for k <= 10 (worst {worst:.1e})")


def test_criterion_6_radius_ordering():
    ok = True
    detail = []
    for alpha in (0.3, 0.5, 0.7):
        est = empirical_radius(a_coeffs(alpha, 60), 1.0)
        bound = radius_zero_capacity(alpha)
        ok &= est.empirical >= 0.95 * bound
        detail.append(f"a={alpha}: {est.empirical:.3f} >= 0.95*{bound:.3f}")
    b = derive(ModelParams(alpha=1.0, i0=0.5, beta=0.7, gamma=0.05, mu=0.12)).b
    est = empirical_radius(euler_alpha(1.0, 60), b)
    ok &= abs(est.empirical - math.pi / b) <= 0.10 * (math.pi / b)
    detail.append(f"alpha=1: {est.empirical:.3f} within 10% of pi/b={math.pi / b:.3f}")
    check(6, ok, "root-test radii dominate guaranteed bounds; " + "; ".join(detail))


def test_criterion_7_discrete_operator_properties():
    const = discrete_caputo_l1(np.full(60, 0.42), 0.6, 0.05)
    dev_const = float(np.max(np.abs(const)))
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal(50), rng.standard_normal(50)
    lin = discrete_caputo_l1(1.7 * u - 0.3 * v, 0.6, 0.05)
    lin -= 1.7 * discrete_caputo_l1(u, 0.6, 0.05) - 0.3 * discrete_caputo_l1(v, 0.6, 0.05)
    dev_lin = float(np.max(np.abs(lin)))
    g = TimeGrid(2.0, 0.05)
    exact_pece = bool(np.all(solve_pece(lambda x: 0.0, 0.37, g, 0.6).u == 0.37))
    exact_l1 = bool(np.all(solve_l1(lambda x: 0.0, 0.37, g, 0.6).u == 0.37))
    ok = dev_const <= 1e-12 and dev_lin <= 1e-12 and exact_pece and exact_l1
    check(
        7,
        ok,
        f"discrete Caputo: constants {dev_const:.1e} <= 1e-12, linearity "
        f"{dev_lin:.1e} <= 1e-12; constants exact under f=0 "
        f"(pece={exact_pece}, l1={exact_l1})",
    )


def test_criterion_8_scheme_limits():
    g = TimeGrid(1.0, 0.01)
    f = lambda u: -u
    euler = np.empty(g.N + 1)
    euler[0] = 1.0
    for n in range(g.N):
        euler[n + 1] = euler[n] + g.dt * f(euler[n])
    dev_l1 = float(np.max(np.abs(solve_l1(f, 1.0, g, 0.999).u - euler)))

    am1 = np.empty(g.N + 1)
    fu = np.empty(g.N + 1)
    am1[0], fu[0] = 1.0, f(1.0)
    for n in range(g.N):
        pred = am1[0] + g.dt * fu[: n + 1].sum()
        am1[n + 1] = am1[0] + g.dt * (0.5 * fu[0] + fu[1 : n + 1].sum() + 0.5 * f(pred))
        fu[n + 1] = f(am1[n + 1])
    dev_pece = float(np.max(np.abs(solve_pece(f, 1.0, g, 1.0).u - am1)))
    ok = dev_l1 <= 1e-3 and dev_pece <= 1e-10
    check(
        8,
        ok,
        f"L1(0.999) vs forward Euler {dev_l1:.1e} <= 1e-3; "
        f"PECE(1) vs AM1 oracle {dev_pece:.1e} <= 1e-10",
    )


def test_criterion_9_mittag_leffler():
    dev_exp = max(
        abs(mittag_leffler(1.0, float(z)) - math.exp(float(z)))
        for z in np.linspace(-5.0, 5.0, 41)
    )
    exact_one = all(
        mittag_leffler(alpha, 0.0) == 1.0 for alpha in (0.2, 0.5, 0.8, 1.0)
    )
    erfc_dev = abs(mittag_leffler(0.5, -1.0) - float(mpmath.e * mpmath.erfc(1)))
    # the grid holds t = 0, 1 and 7.5
    const_n = bool(np.all(population_curve(0.6, 0.12, 0.12, 3.0, TimeGrid(7.5, 0.5)) == 3.0))
    ok = dev_exp <= 1e-10 and exact_one and erfc_dev <= 1e-8 and const_n
    check(
        9,
        ok,
        f"E_1 vs exp {dev_exp:.1e} <= 1e-10; E_alpha(0)=1 exact; erfc identity "
        f"{erfc_dev:.1e} <= 1e-8; N(t) constant at lambda=mu",
    )


def test_criterion_10_determinism(tmp_path):
    run_table1(out=tmp_path / "r1")
    run_table1(out=tmp_path / "r2")
    names = ["table1.csv"] + [
        f"alpha-{a:g}/{f}"
        for a in (0.99, 0.7, 0.3)
        for f in ("series.csv", "pece.csv", "l1.csv", "comparison.csv")
    ]
    ok = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in names
    )
    check(10, ok, f"repeated table1 runs byte-identical across {len(names)} CSV files")
