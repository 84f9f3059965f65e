"""One contract over the public numeric API: a value or a typed refusal.

Every public numeric function, called with arguments drawn from a set of
binary64 specials as well as uniformly, either returns a value with no
nan, with inf only where its docstring allows it, and with no warning,
or raises a :class:`~fracsis.errors.FracsisError`.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsis import (
    DomainError,
    FracsisError,
    HypothesisError,
    ModelParams,
    TimeGrid,
    a_coeffs,
    carrying_capacity_series,
    classical_sis,
    derive,
    discrete_caputo_l1,
    empirical_radius,
    euler_alpha,
    evaluate,
    l1_kernel,
    mittag_leffler,
    pece_kernels,
    population_curve,
    radius_carrying_capacity,
    radius_zero_capacity,
    rescaled_zero_capacity_series,
    sample_trajectory,
    solve_l1,
    solve_pece,
    zero_capacity_series,
)

INF, NAN = math.inf, math.nan
#: binary64 specials: signed zeros, the smallest subnormal, tiny, unit,
#: huge and non-finite values
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0, 2.0, 1e150, 1e300, -1e300, INF, -INF, NAN)
#: alpha's specials add tiny orders, the edge of E_alpha's order-zero
#: route and the float just below 1
ALPHA_SPECIAL = SPECIAL + (1e-88, 3e-17, 1e-16, 1e-4, 1 - 2**-52)


def floats(lo=-1e3, hi=1e3):
    """A special, or a finite float drawn from [lo, hi]."""
    return st.sampled_from(SPECIAL) | st.floats(lo, hi)


alphas = st.sampled_from(ALPHA_SPECIAL) | st.floats(0.0, 1.0)
orders = st.integers(-2, 60)
#: (T, N) of a grid of N steps of T/N: few steps, each possibly huge
grids = st.tuples(floats(0.0, 100.0), st.integers(1, 40))
contract = settings(max_examples=100, deadline=None)


def grid_of(shape):
    """``TimeGrid(T, T/N)``, or None where it is refused."""
    T, n = shape
    try:
        return TimeGrid(T, T / n)
    except FracsisError:
        return None


def leaves(value):
    """Every float that a result holds: in arrays, tuples, lists, dicts and
    dataclass fields."""
    if isinstance(value, (bool, int, str, type(None))) or callable(value):
        return []
    if isinstance(value, float):
        return [value]
    if isinstance(value, np.ndarray):
        assert value.dtype.kind in "biuf", value.dtype  # never complex weights
        return value.ravel().tolist() if value.dtype.kind == "f" else []
    if isinstance(value, dict):
        return [x for v in value.values() for x in leaves(v)]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in leaves(v)]
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in leaves(getattr(value, f.name))]
    return []


def holds(call, inf=False):
    """The contract on one call: a ``FracsisError`` (returns None), or a
    result free of nan (and of inf unless ``inf``), with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except FracsisError:
            return None
    found = leaves(value)
    assert not [x for x in found if math.isnan(x)], value
    if not inf:
        assert all(map(math.isfinite, found)), value
    return value


@contract
@given(alphas, floats(-1e3, 1e3) | st.lists(floats(-1e3, 1e3), max_size=5))
def test_mittag_leffler(alpha, z):
    # past binary64 E_alpha is inf, as its docstring states
    holds(lambda: mittag_leffler(alpha, np.array(z) if isinstance(z, list) else z), inf=True)


@contract
@given(alphas, floats(), floats(), floats(), grids)
def test_population_curve(alpha, lam, mu, n0, shape):
    grid = grid_of(shape)
    if grid is not None:
        holds(lambda: population_curve(alpha, lam, mu, n0, grid))


@contract
@given(alphas, orders, floats(0.0, 1.0))
def test_tables_and_their_values(alpha, K, a0):
    for table in (holds(lambda: euler_alpha(alpha, K)), holds(lambda: a_coeffs(alpha, K, a0))):
        if table is not None:
            holds(lambda: table.values)


@contract
@given(alphas, floats(0.0, 2.0))
def test_radii(alpha, b):
    # a radius past binary64 is inf
    holds(lambda: radius_carrying_capacity(alpha, b), inf=True)
    holds(lambda: radius_zero_capacity(alpha), inf=True)


@contract
@given(alphas, st.integers(0, 60), floats(0.0, 10.0))
def test_empirical_radius(alpha, K, b_scale):
    table = holds(lambda: euler_alpha(alpha, K))
    if table is not None:
        holds(lambda: empirical_radius(table, b_scale), inf=True)


def check_series(build, t, shape):
    """A series constructor, then ``evaluate`` at t and ``sample_trajectory``
    on the grid, each under the contract.  A radius past binary64 is inf,
    and so is a value (the module docstring of ``fracsis.series``)."""
    series = holds(build, inf=True)
    if series is None:
        return
    holds(lambda: evaluate(series, t), inf=True)
    grid = grid_of(shape)
    if grid is not None:
        holds(lambda: sample_trajectory(series, grid), inf=True)


@contract
@given(alphas, floats(0.0, 2.0), floats(0.0, 1.0), orders, floats(0.0, 100.0), grids)
def test_carrying_capacity_series(alpha, beta, mu, K, t, shape):
    rates = holds(lambda: ModelParams(beta, 0.05, mu, alpha, 0.5), inf=True)
    table = holds(lambda: euler_alpha(alpha, K))
    if rates is not None and table is not None:
        check_series(lambda: carrying_capacity_series(derive(rates), alpha, table), t, shape)


@contract
@given(alphas, floats(0.0, 2.0), orders, floats(0.0, 100.0), grids)
@example(0.6, 5e-324, 40, 1.0, (1.0, 4))
@example(1 - 2**-52, 1e-300, 1, 0.0, (1e150, 1))  # 1/beta times a sum past binary64
def test_zero_capacity_series(alpha, beta, K, t, shape):
    table = holds(lambda: a_coeffs(alpha, K))
    if table is not None:
        check_series(lambda: zero_capacity_series(beta, alpha, table), t, shape)


@pytest.mark.parametrize("beta", [INF, 5e-324])
def test_zero_capacity_series_names_a_beta_without_a_finite_scale(beta):
    # beta = inf would give I = 0, and 5e-324 I = inf, at every node
    with pytest.raises(HypothesisError, match=f"got beta={beta}$"):
        zero_capacity_series(beta, 0.6, a_coeffs(0.6, 40))


@contract
@given(alphas, floats(0.0, 1.0), orders, floats(0.0, 100.0), grids)
@example(2.2250738585072014e-308, 5e-324, 0, 0.0, (1.0, 1))  # radius inf * 0
def test_rescaled_zero_capacity_series(alpha, a0, K, t, shape):
    table = holds(lambda: a_coeffs(alpha, K, a0))
    if table is not None:
        check_series(lambda: rescaled_zero_capacity_series(a0, alpha, table), t, shape)


@contract
@given(alphas, orders, floats(0.0, 10.0))
def test_lag_kernels(alpha, N, dt):
    holds(lambda: pece_kernels(alpha, N, dt))
    holds(lambda: l1_kernel(alpha, N))


@pytest.mark.parametrize("call, named", [
    (lambda: pece_kernels(0.5, -1, 0.5), "N=-1"),
    (lambda: l1_kernel(0.5, -1), "N=-1"),
    # complex weights, nan, inf and zeros
    *((lambda dt=dt: pece_kernels(0.5, 3, dt), f"dt={dt}") for dt in (-1.0, NAN, INF, 0.0)),
])
def test_lag_kernels_name_a_negative_N_or_a_bad_dt(call, named):
    with pytest.raises(DomainError, match=f"{named}$"):
        call()


@pytest.mark.parametrize("solve", [solve_pece, solve_l1])
@contract
@given(alpha=alphas, u0=floats(-2.0, 2.0), r=floats(-2.0, 2.0), shape=grids)
# f(u0) times a weight of a0 that is 0 (tiny alpha) or huge (huge dt)
@example(alpha=1e-88, u0=1e300, r=0.0, shape=(1e-300, 2))
@example(alpha=1.0, u0=1e150, r=0.0, shape=(1e150, 1))
def test_schemes(solve, alpha, u0, r, shape):
    grid = grid_of(shape)
    if grid is not None:
        r = r if math.isfinite(r) else 1.0
        holds(lambda: solve(lambda u: r * u - u * u, u0, grid, alpha))


@pytest.mark.parametrize("solve", [solve_pece, solve_l1])
@pytest.mark.parametrize("u0", [NAN, INF, -INF])
def test_schemes_name_a_non_finite_u0(solve, u0):
    # not the step it would first overflow at
    with pytest.raises(DomainError, match=f"requires a finite u0, got u0={u0}$"):
        solve(lambda u: u, u0, TimeGrid(1.0, 0.25), 0.6)


@contract
@given(st.lists(floats(-1e3, 1e3), max_size=6), alphas, floats(0.0, 10.0))
@example([0.0, 1e150], 0.5, 5e-324)  # past binary64 at node 1
def test_discrete_caputo_l1(u, alpha, dt):
    holds(lambda: discrete_caputo_l1(u, alpha, dt))


@contract
@given(floats(0.0, 2.0), floats(0.0, 1.0), floats(0.0, 1.0), alphas, floats(0.0, 1.0),
       floats(0.0, 100.0) | st.lists(floats(0.0, 100.0), max_size=4))
@example(1e300, 1e300, 0.0, 1.0, 1.0, 1e150)  # sigma = 1: beta i0 t overflows
@example(1.0, 0.5, 0.5, 0.5, 0.0, INF)  # sigma = 1: beta i0 t is 0 * inf
def test_model_params_derive_and_classical_sis(beta, gamma, mu, alpha, i0, t):
    params = holds(lambda: ModelParams(beta, gamma, mu, alpha, i0))
    if params is None:
        return
    # M and the radius past binary64 are inf
    holds(lambda: derive(params), inf=True)
    holds(lambda: classical_sis(params, t))


@contract
@given(floats(0.0, 100.0), floats(0.0, 10.0))
def test_time_grid(T, dt):
    grid = holds(lambda: TimeGrid(T, dt))
    if grid is not None and grid.N <= 10**6:
        holds(grid.nodes)
