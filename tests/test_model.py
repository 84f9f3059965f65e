"""Parameter derivation, classical closed forms, and the population curve."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracsis import cli
from fracsis.errors import DomainError, NumericOverflowError, ValidationError
from fracsis.harness import config_from_dict, population_curve, solve_method
from fracsis.model import ModelParams, classical_sis, derive, logistic_rhs
from fracsis.solvers import Method, TimeGrid

# reference experiment parameters
P_ENDEMIC = dict(beta=0.7, gamma=0.05, mu=0.12)
P_SIGMA1 = dict(beta=0.7, gamma=0.07, mu=0.63)


def params(alpha=0.7, i0=0.3, **kw):
    base = dict(P_ENDEMIC)
    base.update(kw)
    return ModelParams(alpha=alpha, i0=i0, **base)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(beta=0.0, gamma=0.1, mu=0.1, alpha=0.5, i0=0.5)
        with pytest.raises(ValidationError):
            ModelParams(beta=1.0, gamma=0.0, mu=0.0, alpha=0.5, i0=0.5)
        with pytest.raises(ValidationError):
            ModelParams(beta=1.0, gamma=0.1, mu=0.1, alpha=1.5, i0=0.5)
        with pytest.raises(ValidationError):
            ModelParams(beta=1.0, gamma=0.1, mu=0.1, alpha=0.5, i0=1.5)

    @pytest.mark.parametrize("rates", [(-0.1, 0.2), (0.2, -0.1)], ids=["gamma", "mu"])
    def test_negative_removal_rate_is_refused(self, rates):
        gamma, mu = rates
        with pytest.raises(ValidationError, match=r"^gamma and mu must be >= 0$"):
            ModelParams(beta=1.0, gamma=gamma, mu=mu, alpha=0.5, i0=0.5)

    @pytest.mark.parametrize("key", ["beta", "gamma", "mu"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rate_is_named(self, key, value):
        rates = {"beta": 1.0, "gamma": 0.1, "mu": 0.1, key: value}
        with pytest.raises(ValidationError, match=f"^{key} must be finite, got {value}$"):
            ModelParams(alpha=0.5, i0=0.5, **rates)


    # sigma = beta / (gamma + mu) underflows to 0.0 (quotient or overflowing
    # sum), overflows to inf, or is so small that c = (sigma - 1) / sigma overflows
    @pytest.mark.parametrize(
        "rates",
        [dict(beta=5e-324, gamma=10.0, mu=0.12), dict(beta=0.7, gamma=1e308, mu=1e308),
         dict(beta=1e308, gamma=1e-300, mu=0.0), dict(beta=5e-324, gamma=0.5, mu=0.0)],
        ids=["quotient-underflows", "sum-overflows", "quotient-overflows", "c-overflows"],
    )
    def test_sigma_without_finite_c_is_refused(self, rates):
        with pytest.raises(ValidationError, match=r"^sigma = beta / \(gamma \+ mu\)") as e:
            ModelParams(alpha=0.5, i0=0.5, **rates)
        for key, value in rates.items():
            assert f"{key}={value}" in str(e.value)


class TestDerive:
    # the smallest and largest sigma ModelParams admits near the refused ones
    @pytest.mark.parametrize(
        "rates",
        [dict(beta=1e-300, gamma=0.5, mu=0.0), dict(beta=1e300, gamma=1e-5, mu=0.0)],
        ids=["tiny-sigma", "huge-sigma"],
    )
    def test_extreme_admitted_sigma_derives_finite_values(self, rates):
        d = derive(ModelParams(alpha=0.5, i0=0.5, **rates))
        assert all(map(math.isfinite, (d.sigma, d.c, d.b)))

    def test_endemic_values(self):
        d = derive(params())
        assert d.sigma == pytest.approx(0.7 / 0.17, rel=1e-14)  # ~4.11765
        assert d.c == pytest.approx(0.53 / 0.7, rel=1e-14)  # ~0.757143
        assert d.b == pytest.approx(0.53, rel=1e-14)
        assert d.M == pytest.approx(0.53 ** (-1.0 / 0.7), rel=1e-13)
        assert d.r_alpha is not None and d.r_alpha > 0

    def test_sigma_one_gives_exact_zero_capacity(self):
        d = derive(ModelParams(alpha=0.7, i0=0.5, **P_SIGMA1))
        assert d.sigma == 1.0
        assert d.c == 0.0
        assert d.b == 0.0
        assert d.M is None and d.r_alpha is None

    def test_beta_equals_gamma_plus_mu(self):
        d = derive(ModelParams(beta=0.4, gamma=0.15, mu=0.25, alpha=0.5, i0=0.5))
        assert d.sigma == 1.0
        assert d.c == 0.0

    def test_subcritical_sigma(self):
        d = derive(ModelParams(beta=0.1, gamma=0.15, mu=0.25, alpha=0.5, i0=0.5))
        assert d.sigma < 1
        assert d.c < 0
        assert d.M is None and d.r_alpha is None

    def test_scale_consistency(self):
        # scaling all rates by a common factor keeps sigma and c, scales b
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta, gamma, mu = rng.uniform(0.05, 2.0, 3)
            k = rng.uniform(0.1, 10.0)
            d1 = derive(ModelParams(beta=beta, gamma=gamma, mu=mu, alpha=0.5, i0=0.5))
            d2 = derive(
                ModelParams(beta=k * beta, gamma=k * gamma, mu=k * mu, alpha=0.5, i0=0.5)
            )
            assert d2.sigma == pytest.approx(d1.sigma, rel=1e-12)
            assert d2.c == pytest.approx(d1.c, rel=1e-12, abs=1e-15)
            assert d2.b == pytest.approx(k * d1.b, rel=1e-12)

    def test_values_past_binary64_are_inf(self):
        # sigma ~ 1.00014, b ~ 1.0e-4: M = b**(-100) ~ 1e400, and so is r_alpha
        d = derive(ModelParams(beta=0.7, gamma=0.69, mu=0.0099, alpha=0.01, i0=0.1))
        assert 0 < d.b < 2e-4
        assert d.M == math.inf and d.r_alpha == math.inf

    def test_hypothesis_forms_no_power(self):
        # b = 2 at alpha = 1e-4: b^(1/alpha) = 2^10000 is past binary64, but
        # the hypothesis fails as b >= 1, and M = 2^-10000 underflows to 0
        d = derive(ModelParams(beta=3.0, gamma=0.5, mu=0.5, alpha=1e-4, i0=0.1))
        assert d.b == 2.0
        assert d.r_alpha is None and d.M == 0.0

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 1.0])
    def test_finite_M_is_the_plain_power(self, alpha):
        d = derive(ModelParams(beta=0.7, gamma=0.69, mu=0.0099, alpha=alpha, i0=0.1))
        assert d.M == d.b ** (-1.0 / alpha) and math.isfinite(d.M)

    def test_c_below_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            beta, gamma, mu = rng.uniform(1e-3, 5.0, 3)
            assert derive(ModelParams(beta=beta, gamma=gamma, mu=mu, alpha=0.5, i0=0.5)).c < 1


def typed(hundredths):
    """A rate as typed with two decimals, parsed the way the CLI parses it."""
    return float(f"{hundredths // 100}.{hundredths % 100:02d}")


def assert_sigma_one(beta, gamma, mu):
    """derive() and a series config both take the zero-capacity route."""
    d = derive(ModelParams(beta=beta, gamma=gamma, mu=mu, alpha=0.7, i0=0.5))
    assert (d.sigma, d.c, d.b) == (1.0, 0.0, 0.0)
    cfg = config_from_dict(
        {"beta": beta, "gamma": gamma, "mu": mu, "alpha": 0.7, "T": 0.5, "dt": 0.25,
         "terms": 20, "methods": "series,pece,l1"}
    )
    assert cfg.params.i0 == 1.0 / (2.0 * beta)
    assert solve_method(cfg, Method.SERIES).meta["kind"] == "zero-capacity"


class TestSigmaOneRegime:
    @pytest.mark.parametrize("rates", [(0.6, 0.05, 0.55), (0.63, 0.06, 0.57)])
    def test_misrounded_rates_are_zero_capacity(self, rates):
        # binary64 gives c = -2.2e-16 and +2.2e-16 for these
        assert_sigma_one(*rates)

    def test_misrounded_rates_with_small_beta(self):
        # c = -1.1e-16 in binary64; 1/(2 beta) > 1 rules out the series here
        d = derive(ModelParams(beta=0.3, gamma=0.1, mu=0.2, alpha=0.7, i0=0.5))
        assert (d.sigma, d.c, d.b) == (1.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 300))
    @example(5, 55)
    def test_typed_decimal_rates_summing_to_beta(self, g, m):
        assume(g + m > 50)  # beta > 1/2 keeps 1/(2 beta) a valid fraction
        assert_sigma_one(typed(g + m), typed(g), typed(m))

    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    def test_small_real_capacity_is_kept(self, eps):
        # far outside SIGMA_ONE_TOL: the regime must not be swallowed
        beta = 0.6 * (1.0 + eps)
        d = derive(ModelParams(beta=beta, gamma=0.05, mu=0.55, alpha=0.7, i0=0.5))
        assert d.sigma != 1.0
        assert d.c == pytest.approx(eps, rel=1e-6)
        if eps > 0:
            cfg = config_from_dict(
                {"beta": beta, "gamma": 0.05, "mu": 0.55, "alpha": 0.7, "T": 0.5,
                 "dt": 0.25, "terms": 20, "methods": "series,pece"}
            )
            assert cfg.params.i0 == d.c / 2.0
            assert solve_method(cfg, Method.SERIES).meta["kind"] == "carrying-capacity"


class TestClassicalSis:
    def test_initial_point(self):
        i, s = classical_sis(params(i0=0.3), 0.0)
        assert (i, s) == (0.3, 0.7)

    def test_logistic_equilibrium(self):
        p = params(i0=derive(params()).c / 2)
        i, _ = classical_sis(p, 1e6)
        assert i == pytest.approx(derive(p).c, rel=1e-12)

    def test_zero_capacity_closed_form(self):
        p = ModelParams(alpha=1.0, i0=1.0 / 1.4, **P_SIGMA1)
        i, s = classical_sis(p, 1.0)
        assert i == pytest.approx((1.0 / 1.4) / 1.5, rel=1e-14)  # ~0.47619
        assert s == pytest.approx(1.0 - i, abs=0.0)

    def test_satisfies_ode_by_finite_differences(self):
        p = params(alpha=1.0, i0=0.4)
        d = derive(p)
        f = logistic_rhs(p, d)
        h = 1e-5
        for t in np.linspace(0.5, 4.0, 15):
            im, _ = classical_sis(p, t - h)
            ip, _ = classical_sis(p, t + h)
            i, _ = classical_sis(p, t)
            assert (ip - im) / (2 * h) == pytest.approx(f(i), abs=5 * h * h + 1e-10)

    def test_vectorised(self):
        p = params()
        ts = np.linspace(0.0, 5.0, 11)
        i, s = classical_sis(p, ts)
        assert i.shape == ts.shape
        np.testing.assert_allclose(i + s, 1.0, rtol=0, atol=0)

    def test_no_infection_stays_zero(self):
        # c != 0 with i0 = 0: the equilibrium I = 0, not c / (1 + inf)
        p = params(i0=0.0)
        assert derive(p).c != 0.0
        i, s = classical_sis(p, np.array([0.0, 1.0, 50.0]))
        assert i.tolist() == [0.0, 0.0, 0.0] and s.tolist() == [1.0, 1.0, 1.0]
        assert classical_sis(p, 2.0) == (0.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            classical_sis(params(), -0.1)

    @pytest.mark.parametrize("t", [math.nan, np.array([0.0, 1.0, math.nan])], ids=["scalar", "array"])
    def test_nan_time_rejected(self, t):
        with pytest.raises(DomainError, match=r"t >= 0, got t=nan$"):
            classical_sis(params(), t)

    def test_infinite_time_is_the_limit(self):
        p = params()
        assert classical_sis(p, math.inf) == (derive(p).c, 1.0 - derive(p).c)
        p0 = ModelParams(alpha=1.0, i0=0.3, **P_SIGMA1)
        assert classical_sis(p0, math.inf) == (0.0, 1.0)

    def test_extinction_at_long_times_warns_nothing(self, capsys):
        # c < 0: e^{-b t} and its product overflow past t of about 1418,
        # where I is its limit 0.0; before that I is the formula's value
        p = ModelParams(beta=0.5, gamma=0.9, mu=0.1, alpha=1.0, i0=0.5)
        d = derive(p)
        assert d.c < 0
        t = np.arange(2001.0)
        argv = ["--beta", "0.5", "--gamma", "0.9", "--mu", "0.1", "--alpha", "1",
                "--i0", "0.5", "--T", "2000", "--dt", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, s = classical_sis(p, t)
            assert classical_sis(p, 2000.0) == (0.0, 1.0)
            assert cli.main(["solve", "--method", "classical", *argv]) == 0
            assert cli.main(["compare", "--methods", "classical,pece", *argv]) == 0
        assert capsys.readouterr().err == ""
        want = d.c / (1.0 + (d.c / p.i0 - 1.0) * np.exp(-d.b * t[:1400]))
        assert i[:1400].tobytes() == want.tobytes() and want.min() > 0.0
        assert i[1500:].tobytes() == np.zeros(501).tobytes()
        assert np.all(np.diff(i) <= 0.0) and s.tolist() == (1.0 - i).tolist()


class TestLogisticRhs:
    def test_equilibria(self):
        p = params()
        d = derive(p)
        f = logistic_rhs(p, d)
        assert abs(f(0.0)) < 1e-14
        assert abs(f(d.c)) < 1e-14

    def test_zero_capacity_equilibrium_only_at_zero(self):
        p = ModelParams(alpha=0.7, i0=0.5, **P_SIGMA1)
        f = logistic_rhs(p, derive(p))
        assert abs(f(0.0)) < 1e-14
        assert all(f(x) < 0 for x in (0.1, 0.5, 0.9))

    def test_midpoint_value(self):
        p = params()
        d = derive(p)
        f = logistic_rhs(p, d)
        # beta c^2 / 4 at I = c/2
        assert f(d.c / 2) == pytest.approx(0.7 * d.c**2 / 4.0, rel=1e-13)
        assert f(d.c / 2) == pytest.approx(0.10032, abs=5e-6)


class TestPopulation:
    # N(t) = N0 E_alpha((lam - mu) t^alpha) at the endemic mu = 0.12
    def test_constant_when_rates_balance(self):
        n = population_curve(0.6, 0.12, 0.12, 2.5, TimeGrid(50.0, 0.5))  # holds 0, 0.5, 3, 50
        assert np.all(n == 2.5)

    def test_exponential_at_alpha_one(self):
        n = population_curve(1.0, 0.12 + 0.1, 0.12, 1.0, TimeGrid(2.0, 0.5))
        assert n[-1] == pytest.approx(math.exp(0.2), rel=1e-10)

    def test_decreasing_when_lambda_below_mu(self):
        n = population_curve(0.6, 0.02, 0.12, 1.0, TimeGrid(10.0, 0.1))
        assert np.all(np.diff(n) < 0)

    @pytest.mark.parametrize("key", ["lambda", "mu", "n0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_is_named(self, key, value):
        args = {"lambda": 0.2, "mu": 0.12, "n0": 1.0, key: value}
        with pytest.raises(DomainError, match=f"^{key} must be finite, got {value}$"):
            population_curve(0.6, args["lambda"], args["mu"], args["n0"], TimeGrid(1.0, 0.5))

    def test_overflowing_rate_difference_is_named(self):
        with pytest.raises(DomainError, match=r"^lambda - mu must be finite, got inf$"):
            population_curve(0.6, 1e308, -1e308, 1.0, TimeGrid(1.0, 0.5))

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5, math.nan])
    def test_alpha_outside_the_domain_is_named(self, alpha):
        # a negative alpha used to reach 0.0 ** alpha, a ZeroDivisionError
        with pytest.raises(DomainError, match=r"^alpha must be in \(0, 1\]"):
            population_curve(alpha, 0.2, 0.12, 1.0, TimeGrid(1.0, 0.5))

    def test_overflow_names_the_first_node(self):
        # E_0.6(t^0.6) is finite, and N0 times it is past binary64 from t = 0.5
        # on; the error says so, and numpy warns nothing
        with warnings.catch_warnings(), pytest.raises(NumericOverflowError) as e:
            warnings.simplefilter("error")
            population_curve(0.6, 1.0, 0.0, 1e308, TimeGrid(1.0, 0.5))
        assert str(e.value) == (
            "N(t) = N0 E_alpha((lambda - mu) t^alpha) overflowed at t=0.5 "
            "(alpha=0.6, lambda - mu=1.0, n0=1e+308)"
        )
        assert population_curve(0.6, 1.0, 0.0, 1e300, TimeGrid(1.0, 0.5))[-1] < math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            population_curve(0.7, 0.12, 0.12, 0.0, TimeGrid(1.0, 0.5))
        # negative times cannot reach the curve: the grid refuses them
        with pytest.raises(ValidationError):
            TimeGrid(-1.0, 0.5)
