"""Scheme-layer timings: PECE, L1 and the discrete Caputo operator.

Each case runs on the logistic right-hand side of the endemic reference
rates (beta = 0.7, gamma = 0.05, mu = 0.12, I0 = c/2) at alpha = 0.6 and
dt = 0.025, with N = 100 (the paper's grid size), 1000, 2000 (the grid
of most ``long_horizon`` perfbench ops) and 4000 steps.  Plans (lag
kernel, block weights, constants) are cached per alpha and grid up to
N = 1000, so ``test_solve_pece`` and ``test_solve_l1`` time the march
alone there; the ``_cold`` cases clear the plan cache before every
round, so each round also builds its plan, as a fresh alpha does.  At
N = 2000 and 4000 no plan is cached, and both kinds of case build it.
``test_pece_kernels`` and ``test_l1_kernel`` time the kernel builds
alone, at the ``long_horizon`` grid sizes.
The directory lies outside the test paths, so the tier-1 suite does not
run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import pytest

from fracsis import solvers
from fracsis.model import ModelParams, derive, logistic_rhs
from fracsis.solvers import (
    TimeGrid,
    discrete_caputo_l1,
    l1_kernel,
    pece_kernels,
    solve_l1,
    solve_pece,
)

ALPHA = 0.6
DT = 0.025
SIZES = [100, 1000, 2000, 4000]
#: rounds of the cold cases: each case takes under a second
ROUNDS = {100: 2000, 1000: 200, 2000: 50, 4000: 20}


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
def test_solve_pece_cold(benchmark, N):
    u0, f = logistic_problem()
    traj = benchmark.pedantic(
        solve_pece, (f, u0, TimeGrid(N * DT, DT), ALPHA),
        setup=solvers._pece_plan.cache_clear, rounds=ROUNDS[N],
    )
    assert traj.u.size == N + 1


@pytest.mark.parametrize("N", SIZES)
def test_solve_l1_cold(benchmark, N):
    u0, f = logistic_problem()
    traj = benchmark.pedantic(
        solve_l1, (f, u0, TimeGrid(N * DT, DT), ALPHA),
        setup=solvers._l1_plan.cache_clear, rounds=ROUNDS[N],
    )
    assert traj.u.size == N + 1


@pytest.mark.parametrize("N", [2000, 4000])
def test_pece_kernels(benchmark, N):
    b, a, a0 = benchmark(pece_kernels, ALPHA, N, DT)
    assert b.size == a.size == a0.size == N


@pytest.mark.parametrize("N", [2000, 4000])
def test_l1_kernel(benchmark, N):
    assert benchmark(l1_kernel, ALPHA, N).size == N


@pytest.mark.parametrize("N", SIZES)
def test_discrete_caputo_l1(benchmark, N):
    u0, f = logistic_problem()
    u = solve_l1(f, u0, TimeGrid(N * DT, DT), ALPHA).u
    d = benchmark(discrete_caputo_l1, u, ALPHA, DT)
    assert d.size == N
