"""Special-function timings: the Mittag-Leffler function and N(t).

``mittag_leffler`` is timed at one z and a repeated alpha = 0.6: at
z = -1 and -5 it is one pass of the 33-node trapezoidal contour, and at
z = 0.5 one pass of the 32-node residue contour.  It is timed cold, at a
fresh alpha every round, which no route caches anything for: at z = 0.5,
and on 1001 z in [-25, 0) and in (0, 5], the shapes of a
``series_stress`` op's N(t) for lam < mu and lam > mu.
``population_curve`` runs at the stress shape: alpha = 0.6,
lam - mu = -1, T = 5 and dt = 0.005 (N = 1000 nodes, one contour pass;
the nodes' t^alpha are cached after the first round), and on the same
grid at alpha = 0.3, lam - mu = -4.7, a decaying grid on which the power
series cancelled and raised (z = -3.14 at node 52 was past its last
threshold); the result must be finite and falling.
The directory lies outside the test paths, so the tier-1 suite does not
run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import itertools

import numpy as np
import pytest

from fracsis.harness import population_curve
from fracsis.solvers import TimeGrid
from fracsis.specfn import mittag_leffler

ALPHA = 0.6


@pytest.mark.parametrize("z", [-1.0, -5.0, 0.5])
def test_mittag_leffler_scalar(benchmark, z):
    value = benchmark(mittag_leffler, ALPHA, z)
    assert isinstance(value, float) and value > 0


def fresh_alphas(start: float, z):
    """A pedantic ``setup``: the arguments (alpha, z), alpha new every round."""
    count = itertools.count()
    return lambda: ((start + 1e-7 * next(count), z), {})


def test_mittag_leffler_cold(benchmark):
    value = benchmark.pedantic(mittag_leffler, setup=fresh_alphas(ALPHA, 0.5), rounds=200)
    assert isinstance(value, float) and value > 1


def test_mittag_leffler_negative_axis_cold(benchmark):
    zs = -np.linspace(25.0, 0.025, 1001)
    value = benchmark.pedantic(mittag_leffler, setup=fresh_alphas(0.3, zs), rounds=200)
    assert value.shape == zs.shape and np.all((value > 0) & (value < 1))


def test_mittag_leffler_positive_axis_cold(benchmark):
    zs = np.linspace(0.005, 5.0, 1001)
    value = benchmark.pedantic(mittag_leffler, setup=fresh_alphas(0.6, zs), rounds=200)
    assert value.shape == zs.shape and np.all(np.diff(value) > 0) and value[0] > 1


def test_population_curve(benchmark):
    grid = TimeGrid(5.0, 0.005)
    n = benchmark(population_curve, ALPHA, 0.2, 1.2, 1.0, grid)
    assert n.size == grid.N + 1 and n[0] == 1.0


def test_population_curve_failing_grid(benchmark):
    grid = TimeGrid(5.0, 0.005)
    n = benchmark(population_curve, 0.3, 0.0, 4.7, 1.0, grid)
    assert n[0] == 1.0 and np.isfinite(n).all() and np.all(np.diff(n) < 0)

