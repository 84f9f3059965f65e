"""Special-function tests against high-precision and identity oracles."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsis import specfn
from fracsis.errors import DomainError, NonConvergenceError
from fracsis.harness import population_curve
from fracsis.solvers import TimeGrid, node_powers
from fracsis.specfn import (
    _ABS_TOL,
    _MAX_TERMS,
    _WIDE,
    gamma_ratios,
    mittag_leffler,
    ml_asymptotics,
)

mpmath.mp.dps = 40


def per_term_lgamma_ml(alpha, z, max_terms=_MAX_TERMS):
    """E_alpha(z) with one lgamma difference per term, at most ``max_terms`` terms.

    A bit-exact reference for the cached-ratio loop of :func:`mittag_leffler`.
    """
    term = 1.0
    total = 1.0
    below = 0
    lg_prev = 0.0  # lgamma(1)
    for k in range(1, max_terms):
        lg_next = math.lgamma(alpha * k + 1.0)
        term *= z * math.exp(lg_prev - lg_next)
        lg_prev = lg_next
        total += term
        if abs(term) < _ABS_TOL:
            below += 1
            if below >= 3:
                return total
        else:
            below = 0
    raise NonConvergenceError(
        f"not converged after {max_terms} terms; last term {term:.3e}"
    )


def capped_ml(alpha, z, max_terms):
    """E_alpha(z) summed by the kernel of :func:`mittag_leffler`, cut at
    ``max_terms`` terms by the first ``max_terms - 1`` ratios."""
    table = specfn._ml_table(alpha)
    total, _, converged, last = specfn._sum_terms(
        np.array([z]), table._replace(r=table.r[: max_terms - 1])
    )
    if not converged[0]:
        raise NonConvergenceError(
            f"not converged after {max_terms} terms; last term {last[0]:.3e}"
        )
    return float(total[0])


@lru_cache(maxsize=None)
def talbot_ml(alpha, z):
    """E_alpha(z) at 40 digits as the inverse Laplace transform at t = 1 of
    s^(alpha-1) / (s^alpha - z), by mpmath's Talbot contour: an oracle for
    z < 0 that does not sum the cancelling series."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)

        def transform(s):
            return s ** (a - 1) / (s**a - x)

        return float(mpmath.invertlaplace(transform, 1, method="talbot"))


@pytest.fixture
def summed(monkeypatch):
    """The z that the kernel sums, call after call, once installed."""
    seen = []
    sum_terms = specfn._sum_terms

    def spy(x, *args):
        seen.extend(x.tolist())
        return sum_terms(x, *args)

    monkeypatch.setattr(specfn, "_sum_terms", spy)
    return seen


def outcome(fn, *args):
    """The value of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


class TestGammaRatios:
    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.7, 1.0])
    def test_one_read_only_table(self, alpha):
        r = gamma_ratios(alpha)
        assert r.shape == (_MAX_TERMS - 1,) and r.dtype == np.float64
        with pytest.raises(ValueError):
            r[0] = 1.0
        lg = [math.lgamma(alpha * k + 1.0) for k in range(_MAX_TERMS)]
        assert r.tolist() == [math.exp(lg[k - 1] - lg[k]) for k in range(1, _MAX_TERMS)]
        assert gamma_ratios(alpha) is r


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.99, 1.0])
    def test_zero_argument_exact(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    @pytest.mark.parametrize(
        "z, named",
        [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
         ([0.5, -1.0, math.nan, math.inf], "nan"), (np.full((2, 2), -math.inf), "-inf")],
        ids=["nan", "inf", "-inf", "first-of-array", "2d"],
    )
    def test_non_finite_z_refused_before_summing(self, z, named, monkeypatch):
        def no_sum(*args, **kwargs):
            raise AssertionError("summed a non-finite z")

        monkeypatch.setattr(specfn, "_sum_terms", no_sum)
        want = rf"^mittag_leffler requires a finite z, got z={named}$"
        with pytest.raises(DomainError, match=want):
            mittag_leffler(0.5, z)

    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
        for z in np.linspace(-5.0, 5.0, 41):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(
                math.exp(z), abs=1e-10
            )
        # on the negative axis E_1 is exp itself, however far out
        zs = -np.logspace(-12, 2.8, 40)
        assert mittag_leffler(1.0, zs).tobytes() == np.exp(zs).tobytes()

    def test_half_order_erfc_identity(self):
        # E_{1/2}(z) = e^{z^2} erfc(-z); erfc from mpmath as the oracle
        want = float(mpmath.e * mpmath.erfc(1))
        assert mittag_leffler(0.5, -1.0) == pytest.approx(want, abs=1e-13)
        for z in (-3.0, -8.0, -30.0):
            want = float(mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(-mpmath.mpf(z)))
            assert mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-14)

    def test_decreasing_for_negative_argument(self):
        for alpha in (0.3, 0.5, 0.8):
            ts = np.linspace(0.01, 20.0, 60)
            vals = [mittag_leffler(alpha, -float(t) ** alpha) for t in ts]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "max_terms", [None, 5, 1, 2],
        ids=["default", "max_terms=5", "max_terms=1", "max_terms=2"],
    )
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    def test_cached_ratios_match_per_term_lgamma(self, alpha, max_terms):
        # the kernel with a ratio table, capped or not, is the per-term loop
        # bit for bit at every z, and so is mittag_leffler at z >= 0; at
        # z < 0 it takes exp (alpha = 1) or the contour, within 1e-12 of a
        # Talbot inversion
        zs = [-40.0, -12.0, -5.0, -1.0, -0.25, 0.0, 1e-3, 0.5, 3.0, 12.0]
        for z in zs:
            if max_terms is None:
                got = outcome(mittag_leffler, alpha, z)
                if z < 0:
                    want = math.exp(z) if alpha == 1 else talbot_ml(alpha, z)
                    assert got == pytest.approx(want, rel=1e-12, abs=0), z
                    continue
                want = outcome(per_term_lgamma_ml, alpha, z)
            else:
                got = outcome(capped_ml, alpha, z, max_terms)
                want = outcome(per_term_lgamma_ml, alpha, z, max_terms)
            assert got == want, z

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_negative_axis_matches_talbot(self, alpha):
        # the contour, against a 40-digit Talbot inversion: 1e-12 relative
        # on [-50, 0), where the series cancelled (E_0.3(-3) was -23.4)
        zs = [-1e-12, -1e-6, -0.01, -0.5, -3.0, -12.0, -30.0, -50.0]
        got = mittag_leffler(alpha, np.array(zs))
        for z, v in zip(zs, got.tolist()):
            assert v == pytest.approx(talbot_ml(alpha, z), rel=1e-12, abs=0), z

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 0.95])
    def test_far_negative_axis(self, alpha):
        # out to z = -1e8 against the Talbot inversion; past -1e150, where
        # D^2 would overflow, against the tail -1/(z Gamma(1 - alpha)), whose
        # next term is 1e-150 smaller
        zs = [-1e3, -1e5, -1e8]
        for z, v in zip(zs, mittag_leffler(alpha, np.array(zs)).tolist()):
            assert v == pytest.approx(talbot_ml(alpha, z), rel=1e-12, abs=0), z
        zs = np.array([-1e150, -2e150, -1e200, -1e300, -1.7e308])
        want = -1.0 / zs / math.gamma(1 - alpha)
        assert mittag_leffler(alpha, zs) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.995, 0.999, 0.999999, 1 - 2.0**-40])
    def test_negative_axis_near_order_one(self, alpha):
        # for alpha in (0.99, 1) the tail -1/(z Gamma(1 - alpha)) vanishes
        # with 1 - alpha, and the contour's error is 1e-12 relative or
        # 1e-15 absolute, whichever is larger
        zs = [-1e-6, -0.5, -3.0, -12.0, -30.0, -50.0]
        for z, v in zip(zs, mittag_leffler(alpha, np.array(zs)).tolist()):
            want = talbot_ml(alpha, z)
            assert abs(v - want) <= max(1e-12 * abs(want), 1e-15), z

    def test_routes_split_by_sign(self, summed):
        # one call over z of both signs and zeros is the calls on each part:
        # z == 0 gives 1.0 exactly, and the series sees only the z > 0
        zs = np.array([0.7, -0.0, -2.5, 0.0, 3.0, -40.0, -1e-300, 5e-324])
        for alpha in (0.4, 1.0):
            summed.clear()
            got = mittag_leffler(alpha, zs)
            assert summed == [0.7, 3.0, 5e-324]
            assert got[[1, 3]].tolist() == [1.0, 1.0]
            assert got[[0, 4, 7]].tobytes() == mittag_leffler(alpha, zs[[0, 4, 7]]).tobytes()
            assert got[[2, 5, 6]].tobytes() == mittag_leffler(alpha, zs[[2, 5, 6]]).tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_array_matches_scalar_calls(self, alpha):
        # more than twice as many z as a row needs, spread so that their
        # stops differ: the rows and the block both run
        zs = np.concatenate([[0.0, -0.0], np.linspace(-3.0, 2.0, 2 * _WIDE + 45)])
        got = mittag_leffler(alpha, zs)
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
        want = [mittag_leffler(alpha, float(z)) for z in zs]
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("alpha, lo, hi", [(0.3, 2.2, 3.2), (0.5, 5.5, 9.5), (0.7, 15.0, 30.0)])
    def test_sums_past_256_terms_match_per_term_lgamma(self, alpha, lo, hi):
        # z whose sums stop on both sides of 256 terms, by rows and in the
        # block, and some that do not converge within _MAX_TERMS
        zs = np.linspace(lo, hi, 200)
        _, used, converged, _ = specfn._sum_terms(zs, specfn._ml_table(alpha))
        assert used[converged].min() < 256 < used[converged].max()
        assert not converged.all()
        want = [outcome(per_term_lgamma_ml, alpha, z) for z in zs.tolist()]
        ok = [type(v) is float for v in want]
        assert ok == converged.tolist()
        got = mittag_leffler(alpha, zs[converged])
        assert got.tobytes() == np.array([v for v, o in zip(want, ok) if o]).tobytes()

    def test_empty_array(self):
        got = mittag_leffler(0.5, np.array([]))
        assert isinstance(got, np.ndarray) and got.size == 0

    def test_array_names_first_unconverged_z(self):
        zs = np.array([-1.0, 80.0, -0.5, 90.0])
        with pytest.raises(NonConvergenceError) as scalar:
            mittag_leffler(0.5, 80.0)
        with pytest.raises(NonConvergenceError) as array:
            mittag_leffler(0.5, zs)
        assert "(alpha=0.5, z=80.0); last term" in str(array.value)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("bad", [3, 130, 258])
    def test_array_names_its_first_failure(self, bad, summed):
        # wherever the first unconverged z sits, the error names it as the
        # scalar call does; only the z > 0 are summed, and as the call raises
        # anyway, none after it
        zs = np.linspace(-1.0, 1.0, 773)
        zs[bad], zs[bad + 3] = 80.0, 90.0
        with pytest.raises(NonConvergenceError) as err:
            mittag_leffler(0.5, zs)
        assert summed == [z for z in zs[: bad + 1].tolist() if z > 0]
        with pytest.raises(NonConvergenceError) as scalar:
            mittag_leffler(0.5, 80.0)
        assert str(err.value) == str(scalar.value)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
    def test_thresholds_match_per_term_lgamma(self, alpha, summed):
        # z > 0 where a term of E_alpha reaches 1e-14, and within 3 ulp of
        # it: the stops read off the thresholds and those the rule finds
        # agree with the per-term loop.  The same z < 0 are never summed:
        # they take exp or the contour, every 50th checked against a Talbot
        # inversion
        lg = [math.lgamma(alpha * k + 1.0) for k in range(_MAX_TERMS)]
        zs = []
        for k in range(1, _MAX_TERMS, 5):
            z = math.exp((math.log(_ABS_TOL) + lg[k]) / k)
            zs += [z * (1 + j * 2.0**-52) for j in range(-3, 4)]
        want = [outcome(per_term_lgamma_ml, alpha, z) for z in zs]
        assert [outcome(mittag_leffler, alpha, z) for z in zs] == want
        ok = [type(v) is float for v in want]
        got = mittag_leffler(alpha, np.array(zs)[ok])
        assert got.tobytes() == np.array([v for v in want if type(v) is float]).tobytes()
        neg = -np.array(zs)
        summed.clear()
        got = mittag_leffler(alpha, neg)
        assert summed == [] and np.isfinite(got).all()
        for z, v in zip(neg[::50].tolist(), got[::50].tolist()):
            want = math.exp(z) if alpha == 1 else talbot_ml(alpha, z)
            assert v == pytest.approx(want, rel=1e-12, abs=0), z

    def test_non_convergence_error(self):
        with pytest.raises(NonConvergenceError, match=f"after {_MAX_TERMS} terms"):
            mittag_leffler(0.5, 50.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0)


class TestPopulationCurve:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("rate", [-5.0, -2.0, -0.7, 0.0, 1.0, 5.0])
    def test_matches_per_node_reference(self, alpha, rate):
        # N(t) = n0 E_alpha(rate t^alpha): for rate >= 0 node by node the
        # per-term series, or the error naming the first node whose series
        # does not converge; for rate < 0 node by node the scalar call, which
        # is n0 exp(z) at alpha = 1, and every 250th node within 1e-12 of a
        # Talbot inversion
        grid, n0, mu = TimeGrid(5.0, 0.005), 2.5, 0.3
        lam = mu + rate
        z = [(lam - mu) * t**alpha for t in grid.nodes().tolist()]
        if rate < 0:
            got = population_curve(alpha, lam, mu, n0, grid)
            want = np.array([n0 * mittag_leffler(alpha, v) for v in z])
            assert got.tobytes() == want.tobytes()
            if alpha == 1:
                assert got.tobytes() == (n0 * np.exp(z)).tobytes()
            for v, n in zip(z[250::250], got[250::250].tolist()):
                assert n == pytest.approx(n0 * talbot_ml(alpha, v), rel=1e-12, abs=0)
            return
        want = []
        for v in z:
            try:
                want.append(n0 * per_term_lgamma_ml(alpha, v))
            except NonConvergenceError as e:
                last = str(e).rsplit("; ", 1)[1]
                with pytest.raises(NonConvergenceError) as got:
                    population_curve(alpha, lam, mu, n0, grid)
                assert str(got.value).endswith(f"(alpha={alpha}, z={v}); {last}")
                return
        got = population_curve(alpha, lam, mu, n0, grid)
        assert got.tobytes() == np.array(want).tobytes()

    def test_cases_include_raises(self):
        # the cases above cover both outcomes: alpha = 0.3, rate = 5 raises,
        # and rate = -5, whose series cancels, no longer does
        grid = TimeGrid(5.0, 0.005)
        with pytest.raises(NonConvergenceError):
            population_curve(0.3, 0.3 + 5.0, 0.3, 2.5, grid)
        assert np.isfinite(population_curve(0.3, 0.3 - 5.0, 0.3, 2.5, grid)).all()

    @settings(max_examples=60, deadline=None)
    @given(
        # (0.99, 1) is left out: there the contour's error is 1e-15 absolute,
        # not relative, and the algebraic tail it resolves vanishes
        alpha=st.floats(0.01, 0.99) | st.just(1.0),
        rate=st.floats(-50.0, -1e-6),
        T=st.floats(0.1, 50.0),
        N=st.integers(2, 400),
    )
    def test_decay_keeps_its_proven_shape(self, alpha, rate, T, N):
        # lam < mu: N(0) = n0 exactly; N(t) = n0 E_alpha(-x), x = |rate|
        # t^alpha, is completely monotone in x, so with t^alpha concave it
        # falls and is convex in t, within 8 eps |N| of rounding; it lies
        # within Simon's bounds 1/(1 + Gamma(1 - alpha) x) <= E_alpha(-x)
        # <= 1/(1 + x/Gamma(1 + alpha)); and the array call is the scalar
        # calls, byte for byte
        n0, mu = 3.0, 0.5
        grid = TimeGrid(T, T / N)
        n = population_curve(alpha, mu + rate, mu, n0, grid)
        assert n[0] == n0 and np.isfinite(n).all()
        slack = 8 * np.finfo(float).eps * np.abs(n)
        assert np.all(np.diff(n) <= slack[1:])
        assert np.all(np.diff(n, 2) >= -slack[2:])
        z = ((mu + rate) - mu) * node_powers(alpha, grid)
        assert np.all(n <= n0 / (1 - z / math.gamma(1 + alpha)) * (1 + 1e-12))
        if alpha < 1:
            assert np.all(n >= n0 / (1 - math.gamma(1 - alpha) * z) * (1 - 1e-12))
        want = np.array([n0 * mittag_leffler(alpha, v) for v in z.tolist()])
        assert n.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_domain(self, alpha):
        # alpha = 1 too: the large-time companion divides by Gamma(0)
        want = rf"^ml_asymptotics requires alpha in \(0, 1\), got {alpha}$"
        with pytest.raises(DomainError, match=want):
            ml_asymptotics(alpha, -1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, 1.0, 1.0)  # lam > mu
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, -1.0, 0.0)  # t <= 0
        with pytest.raises(DomainError):
            ml_asymptotics(0.5, 0.0, 1.0)  # lam == mu: einf undefined

    @pytest.mark.parametrize(
        "rate, t", [(math.nan, 1.0), (-math.inf, 1.0), (math.inf, 1.0), (-1.0, math.inf),
                    (-1.0, math.nan)],
    )
    def test_non_finite_rate_or_t_refused(self, rate, t):
        with pytest.raises(DomainError, match="^ml_asymptotics requires a finite lam - mu and t"):
            ml_asymptotics(0.5, rate, t)
