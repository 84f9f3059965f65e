"""Special-function timings: the Mittag-Leffler function and N(t).

``mittag_leffler`` is timed at one z and a repeated alpha = 0.6, so its
cached Gamma ratios and thresholds are warm and each call is one kernel
call over a single column, and cold at z = -1, with that cache cleared
before every round, so each round also builds the alpha's 499 ratios
and their thresholds.  ``population_curve`` runs at the stress shape:
alpha = 0.6, lam - mu = -1, T = 5 and dt = 0.005 (N = 1000 nodes, one
kernel call; the nodes' t^alpha are cached after the first round), and
on the same grid at alpha = 0.3, lam - mu = -4.7, where z = -3.14 at
node 52 is the first past E_alpha's last threshold: the call sums nodes
0..52 and is timed until it raises.  ``test_mittag_leffler_band`` times
E_alpha's kernel call on 2495 z = -x, x within 2 ulp of each of the 499
points where a term of E_0.6 reaches 1e-14: all but the last 10 z take
the rule's Python loop, the path that the thresholds leave to it.
The directory lies outside the test paths, so the tier-1 suite does not
run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import math

import numpy as np
import pytest

from fracsis import specfn
from fracsis.errors import NonConvergenceError
from fracsis.harness import population_curve
from fracsis.solvers import TimeGrid
from fracsis.specfn import mittag_leffler

ALPHA = 0.6


@pytest.mark.parametrize("z", [-1.0, -5.0, 0.5])
def test_mittag_leffler_scalar(benchmark, z):
    value = benchmark(mittag_leffler, ALPHA, z)
    assert isinstance(value, float) and value > 0


def test_mittag_leffler_cold(benchmark):
    value = benchmark.pedantic(
        mittag_leffler, (ALPHA, -1.0), setup=specfn._ml_table.cache_clear, rounds=200
    )
    assert isinstance(value, float) and value > 0


def test_population_curve(benchmark):
    grid = TimeGrid(5.0, 0.005)
    n = benchmark(population_curve, ALPHA, 0.2, 1.2, 1.0, grid)
    assert n.size == grid.N + 1 and n[0] == 1.0


def test_population_curve_failing_grid(benchmark):
    grid = TimeGrid(5.0, 0.005)

    def until_raised():
        with pytest.raises(NonConvergenceError, match=r"z=-3\.13"):
            population_curve(0.3, 0.0, 4.7, 1.0, grid)

    benchmark(until_raised)


def test_mittag_leffler_band(benchmark):
    lg = specfn.log_gamma_orders(ALPHA, specfn._MAX_TERMS - 1)
    zs = np.array([
        -math.exp((math.log(1e-14) + lg[k]) / k) * (1 + j * 2.0**-52)
        for k in range(1, len(lg)) for j in range(-2, 3)
    ])
    total, used, _, _ = benchmark(specfn._sum_terms, zs, specfn._ml_table(ALPHA))
    assert total.size == zs.size == 2495 and used.max() <= specfn._MAX_TERMS
