"""Series-layer timings: the coefficient recursions and trajectory sampling.

The tables are built at K = MAX_ORDER (200) and alpha = 0.6; the sampled
series is the carrying-capacity solution of the endemic reference rates
(beta = 0.7, gamma = 0.05, mu = 0.12) over that alpha-Euler table, on the
preset horizon T = 5 with N = 1000 steps.  The directory lies outside the
test paths, so the tier-1 suite does not run it.  From the root of a
checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import pytest

from fracsis.coeffs import MAX_ORDER, a_coeffs, euler_alpha
from fracsis.model import ModelParams, derive
from fracsis.series import carrying_capacity_series, sample_trajectory
from fracsis.solvers import TimeGrid

ALPHA = 0.6


@pytest.mark.parametrize("build", [euler_alpha, a_coeffs])
def test_coeff_table(benchmark, build):
    table = benchmark(build, ALPHA, MAX_ORDER)
    assert table.order == MAX_ORDER


def test_sample_trajectory(benchmark):
    derived = derive(ModelParams(beta=0.7, gamma=0.05, mu=0.12, alpha=ALPHA, i0=0.5))
    series = carrying_capacity_series(derived, ALPHA, euler_alpha(ALPHA, MAX_ORDER))
    N = 1000
    traj = benchmark(sample_trajectory, series, TimeGrid(5.0, 5.0 / N))
    assert traj.u.size == N + 1
