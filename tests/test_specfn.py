"""Special-function tests against high-precision and identity oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsis.errors import DomainError, NonConvergenceError
from fracsis.specfn import (
    EvalPolicy,
    beta,
    gamma,
    log_gamma,
    mittag_leffler,
    ml_asymptotics,
)

mpmath.mp.dps = 40


def per_term_lgamma_ml(alpha, z, policy=EvalPolicy()):
    """E_alpha(z) with one lgamma difference per term.

    A bit-exact reference for the cached-ratio loop of :func:`mittag_leffler`.
    """
    term = 1.0
    total = 1.0
    below = 0
    lg_prev = 0.0  # lgamma(1)
    for k in range(1, policy.max_terms):
        lg_next = math.lgamma(alpha * k + 1.0)
        term *= z * math.exp(lg_prev - lg_next)
        lg_prev = lg_next
        total += term
        if abs(term) < policy.abs_tol:
            below += 1
            if below >= 3:
                return total
        else:
            below = 0
    raise NonConvergenceError(f"not converged after {policy.max_terms} terms")


def outcome(fn, *args):
    """The value of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(10.0) == pytest.approx(362880.0, rel=1e-14)

    def test_against_high_precision_over_domain(self):
        # digit-table oracle: mpmath at 40 digits over (0, 170]
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(1e-3, 170.0, 200), [1e-6, 169.99, 170.0]])
        for x in xs:
            want = float(mpmath.gamma(mpmath.mpf(float(x))))
            assert gamma(float(x)) == pytest.approx(want, rel=1e-12)

    def test_recurrence_1000_random_points(self):
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.1, 80.0, 1000):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    def test_domain_and_overflow(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-3.5)
        with pytest.raises(OverflowError):
            gamma(1e4)


class TestLogGamma:
    def test_trivial_zeros(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_171_against_log_sum_oracle(self):
        # ln Gamma(171) = sum of ln k for k = 1..170, summed exactly
        want = math.fsum(math.log(k) for k in range(1, 171))
        got = log_gamma(171.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_matches_gamma_where_both_defined(self):
        for x in (0.3, 1.7, 12.5, 100.0):
            assert log_gamma(x) == pytest.approx(math.log(gamma(x)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(-1.0)


class TestBeta:
    def test_known_values(self):
        assert beta(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
        # Gamma(1.5) Gamma(2.5) / Gamma(4) = pi/16
        assert beta(1.5, 2.5) == pytest.approx(math.pi / 16.0, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_first_argument_one(self, alpha):
        assert beta(1.0, alpha + 1.0) == pytest.approx(1.0 / (alpha + 1.0), rel=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_bit_exact(self, x, y):
        assert beta(x, y) == beta(y, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.99, 1.0])
    def test_zero_argument_exact(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
        for z in np.linspace(-5.0, 5.0, 41):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(
                math.exp(z), abs=1e-10
            )

    def test_half_order_erfc_identity(self):
        # E_{1/2}(z) = e^{z^2} erfc(-z); erfc from mpmath as the oracle
        want = float(mpmath.e * mpmath.erfc(1))
        assert mittag_leffler(0.5, -1.0) == pytest.approx(want, abs=1e-13)

    def test_decreasing_for_negative_argument(self):
        for alpha in (0.3, 0.5, 0.8):
            ts = np.linspace(0.01, 20.0, 60)
            vals = [mittag_leffler(alpha, -float(t) ** alpha) for t in ts]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "policy",
        [EvalPolicy(), EvalPolicy(max_terms=5), EvalPolicy(abs_tol=1e-8, max_terms=60)],
        ids=["default", "max_terms=5", "loose"],
    )
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    def test_cached_ratios_match_per_term_lgamma(self, alpha, policy):
        zs = [-40.0, -12.0, -5.0, -1.0, -0.25, 0.0, 1e-3, 0.5, 3.0, 12.0]
        for z in zs:
            got = outcome(mittag_leffler, alpha, z, policy)
            assert got == outcome(per_term_lgamma_ml, alpha, z, policy), z

    def test_non_convergence_error(self):
        with pytest.raises(NonConvergenceError):
            mittag_leffler(0.5, 50.0, EvalPolicy(abs_tol=1e-14, max_terms=5))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0)

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            EvalPolicy(abs_tol=0.0)
        with pytest.raises(DomainError):
            EvalPolicy(max_terms=0)


class TestAsymptotics:
    def test_small_time_ratio_tends_to_one(self):
        for t in (1e-4, 1e-6):
            e0, _ = ml_asymptotics(0.5, -1.0, t)
            ml = mittag_leffler(0.5, -(t**0.5))
            assert ml / e0 == pytest.approx(1.0, abs=1e-3 if t > 1e-5 else 1e-5)

    def test_large_time_ratio_within_5_percent(self):
        # E_{1/2}(-1000) via the scaled-erfc oracle e^{z^2} erfc(z)
        _, einf = ml_asymptotics(0.5, -1.0, 1e6)
        ml = float(mpmath.exp(mpmath.mpf(1000) ** 2) * mpmath.erfc(1000))
        assert ml / einf == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_e0_formula_at_t_one(self, alpha):
        e0, _ = ml_asymptotics(alpha, -1.0, 1.0)
        assert e0 == pytest.approx(math.exp(-1.0 / math.gamma(1.0 + alpha)), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, 1.0, 1.0)  # lam > mu
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, -1.0, 0.0)  # t <= 0
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, 0.0, 1.0)  # lam == mu: einf undefined
