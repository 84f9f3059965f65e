"""Series-layer timings: the coefficient recursions, one series evaluation
and trajectory sampling.

The tables are built at K = MAX_ORDER (200) and alpha = 0.6, cold (the
table cache and the Gamma-ratio cache are cleared before every round, so
each round builds the alpha's 499 ratios and runs the recursion, as at a
fresh alpha) and warm (every call after the first is a cache hit behind
the argument checks).  ``evaluate`` sums one node, t = 3, over K = 200
tables.  Trajectories are sampled on the preset horizon T = 5 at two
shapes: the paper's (N = 100 steps over K = 120 tables) and the stress
shape (N = 1000 over K = 200); the nodes' t^alpha are cached per alpha
and grid, so every round after the first reads them from the cache.  The carrying-capacity series is the
solution of the endemic reference rates (beta = 0.7, gamma = 0.05,
mu = 0.12) over the alpha-Euler table; the zero-capacity series has
beta = 0.7 over the A-table.  The directory lies outside the test paths,
so the tier-1 suite does not run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import pytest

from fracsis import coeffs, specfn
from fracsis.coeffs import MAX_ORDER, a_coeffs, euler_alpha
from fracsis.model import ModelParams, derive
from fracsis.series import (
    carrying_capacity_series,
    evaluate,
    sample_trajectory,
    zero_capacity_series,
)
from fracsis.solvers import TimeGrid

ALPHA = 0.6
T = 5.0


def carrying(K):
    derived = derive(ModelParams(beta=0.7, gamma=0.05, mu=0.12, alpha=ALPHA, i0=0.5))
    return carrying_capacity_series(derived, ALPHA, euler_alpha(ALPHA, K))


def zero_capacity(K):
    return zero_capacity_series(0.7, ALPHA, a_coeffs(ALPHA, K))


def clear_caches():
    coeffs._recurse.cache_clear()
    specfn.gamma_ratios.cache_clear()


@pytest.mark.parametrize("build", [euler_alpha, a_coeffs])
def test_coeff_table(benchmark, build):
    table = benchmark.pedantic(build, (ALPHA, MAX_ORDER), setup=clear_caches, rounds=100)
    assert table.order == MAX_ORDER


@pytest.mark.parametrize("build", [euler_alpha, a_coeffs])
def test_coeff_table_warm(benchmark, build):
    table = benchmark(build, ALPHA, MAX_ORDER)
    assert table.order == MAX_ORDER


@pytest.mark.parametrize("build", [carrying, zero_capacity])
def test_evaluate(benchmark, build):
    result = benchmark(evaluate, build(MAX_ORDER), 3.0)
    assert result.terms_used > 0


@pytest.mark.parametrize("K, N", [(120, 100), (MAX_ORDER, 1000)], ids=["paper", "stress"])
@pytest.mark.parametrize("build", [carrying, zero_capacity])
def test_sample_trajectory(benchmark, build, K, N):
    traj = benchmark(sample_trajectory, build(K), TimeGrid(T, T / N))
    assert traj.u.size == N + 1
