"""Series-layer timings: the coefficient recursions, one series evaluation
and trajectory sampling.

The tables are built at K = MAX_ORDER (200) and alpha = 0.6, cold (the
table cache is cleared before every round, so each round runs the
recursion from the alpha's cached log-Gammas) and warm (every call
after the first is a cache hit behind the argument checks).
``evaluate`` sums one node, t = 3, over K = 200 tables, by the stopping
rule's per-node loop.  Trajectories are sampled on the preset horizon
T = 5 at two shapes: the paper's (N = 100 steps over K = 120 tables) and the stress
shape (N = 1000 over K = 200), the two sides of the kernel's row width
``series._WIDE`` (128): the paper's 101 nodes are summed in accumulate
blocks of ``series._TAIL`` (64) columns, 64 + 37, the stress shape's
1001 by one vectorised step per term row while at least 128 nodes are
still summing, and the rest in blocks of ``_TAIL``.  The nodes' t^alpha are cached per alpha and grid, so every
round after the first reads them from the cache.
The zero-capacity series' node sums are cached per (table, grid) as
well: ``test_sample_trajectory`` clears that cache, and only that one,
before each of its rounds, so it times the summation kernel, and
``test_sample_trajectory_cached`` times the hit, which scales the cached
sums and builds the meta.  Each table's stop thresholds are built at its
first sum and kept in the kernel's cache, keyed by the table, so every
round after the first reads them.
Nearly every node of those samples has its stop read off the
thresholds; ``test_sum_nodes_band`` times the other path, the rule's
Python loop over one node at a time, on 1001 nodes x within 5 ulp of
the x where a term of the K = 200 table reaches 1e-14 (for the Euler
table every 1e-14 crossing of its 100 non-zero entries, for the A-table
the first 100 of its 200).  The carrying-capacity series is the
solution of the endemic reference rates (beta = 0.7, gamma = 0.05,
mu = 0.12) over the alpha-Euler table; the zero-capacity series has
beta = 0.7 over the A-table.  The directory lies outside the test paths,
so the tier-1 suite does not run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import math

import numpy as np
import pytest

from fracsis import coeffs
from fracsis.coeffs import MAX_ORDER, a_coeffs, euler_alpha
from fracsis.model import ModelParams, derive
from fracsis.series import (
    _sum_nodes,
    _unit_scale_sums,
    carrying_capacity_series,
    evaluate,
    sample_trajectory,
    zero_capacity_series,
)
from fracsis.solvers import TimeGrid

ALPHA = 0.6
T = 5.0
#: rounds of the zero-capacity samples that clear the sum cache, by N:
#: each case takes under a second
ROUNDS = {100: 1000, 1000: 200}


def carrying(K):
    derived = derive(ModelParams(beta=0.7, gamma=0.05, mu=0.12, alpha=ALPHA, i0=0.5))
    return carrying_capacity_series(derived, ALPHA, euler_alpha(ALPHA, K))


def zero_capacity(K):
    return zero_capacity_series(0.7, ALPHA, a_coeffs(ALPHA, K))


def clear_caches():
    coeffs._table.cache_clear()


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
    args = (build(K), TimeGrid(T, T / N))
    if build is zero_capacity:
        traj = benchmark.pedantic(
            sample_trajectory, args, setup=_unit_scale_sums.cache_clear, rounds=ROUNDS[N]
        )
    else:
        traj = benchmark(sample_trajectory, *args)
    assert traj.u.size == N + 1


@pytest.mark.parametrize("K, N", [(120, 100), (MAX_ORDER, 1000)], ids=["paper", "stress"])
def test_sample_trajectory_cached(benchmark, K, N):
    traj = benchmark(sample_trajectory, zero_capacity(K), TimeGrid(T, T / N))
    assert traj.u.size == N + 1


def band(d, count=1001):
    """``count`` nodes x within 5 ulp of the x where a term of the table
    ``d`` reaches 1e-14, taken in order of k."""
    xs = []
    for k in range(1, len(d)):
        if d[k] != 0.0:
            theta = math.exp((math.log(1e-14) - math.log(abs(d[k]))) / k)
            xs += [theta * (1 + j * 2.0**-52) for j in range(-5, 5)]
    return np.array(xs[:count])


@pytest.mark.parametrize("build", [carrying, zero_capacity])
def test_sum_nodes_band(benchmark, build):
    table = build(MAX_ORDER).coeffs
    xs = band(table.d)
    total, terms, _ = benchmark(_sum_nodes, table, 1.0, xs)
    assert total.size == xs.size and terms.max() <= MAX_ORDER + 1
