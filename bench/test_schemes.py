"""Scheme-layer timings: PECE, L1 and the discrete Caputo operator.

Each case runs on the logistic right-hand side of the endemic reference
rates (beta = 0.7, gamma = 0.05, mu = 0.12, I0 = c/2) at alpha = 0.6 and
dt = 0.025, with N = 100 (the paper's grid size), 1000 and 4000 steps.
The directory lies outside the test paths, so the tier-1 suite does not
run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import pytest

from fracsis.model import ModelParams, derive, logistic_rhs
from fracsis.solvers import TimeGrid, discrete_caputo_l1, solve_l1, solve_pece

ALPHA = 0.6
DT = 0.025
SIZES = [100, 1000, 4000]


def logistic_problem():
    rates = dict(beta=0.7, gamma=0.05, mu=0.12, alpha=ALPHA)
    c = derive(ModelParams(i0=0.5, **rates)).c
    p = ModelParams(i0=c / 2.0, **rates)
    return p.i0, logistic_rhs(p, derive(p))


@pytest.mark.parametrize("N", SIZES)
def test_solve_pece(benchmark, N):
    u0, f = logistic_problem()
    traj = benchmark(solve_pece, f, u0, TimeGrid(N * DT, DT), ALPHA)
    assert traj.u.size == N + 1


@pytest.mark.parametrize("N", SIZES)
def test_solve_l1(benchmark, N):
    u0, f = logistic_problem()
    traj = benchmark(solve_l1, f, u0, TimeGrid(N * DT, DT), ALPHA)
    assert traj.u.size == N + 1


@pytest.mark.parametrize("N", SIZES)
def test_discrete_caputo_l1(benchmark, N):
    u0, f = logistic_problem()
    u = solve_l1(f, u0, TimeGrid(N * DT, DT), ALPHA).u
    d = benchmark(discrete_caputo_l1, u, ALPHA, DT)
    assert d.size == N
