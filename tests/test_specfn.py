"""Special-function tests against high-precision and identity oracles."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsis import specfn
from fracsis.errors import DomainError, NumericOverflowError
from fracsis.harness import population_curve
from fracsis.solvers import TimeGrid, node_powers
from fracsis.series import _ABS_TOL, _WIDE
from fracsis.specfn import mittag_leffler, ml_asymptotics

mpmath.mp.dps = 40

#: terms of the per-term series reference at most
REF_TERMS = 500
#: the real apex of the trapezoidal contour, s_0 = 0.1309 N
APEX = 0.1309 * specfn._CONTOUR_N


def per_term_lgamma_ml(alpha, z, max_terms=REF_TERMS):
    """E_alpha(z) by its series with one lgamma difference per term, to
    the package's stopping rule (three terms below 1e-14), or None if that
    has not fired within ``max_terms`` terms.

    For z > 0 every term is positive, so the sum does not cancel: within
    5e-15 relative of :func:`talbot_ml` where it converges.
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
    return None


def partial_sum(alpha, z, terms):
    """The first ``terms`` terms of E_alpha's series, formed as
    :func:`per_term_lgamma_ml` forms them."""
    term = total = 1.0
    for k in range(1, terms):
        term *= z * math.exp(math.lgamma(alpha * (k - 1) + 1.0) - math.lgamma(alpha * k + 1.0))
        total += term
    return total


@lru_cache(maxsize=None)
def talbot_ml(alpha, z):
    """E_alpha(z) at 40 digits, inf past binary64: the inverse Laplace
    transform at t = 1 of F(s) = s^(alpha-1) / (s^alpha - z) by mpmath's
    Talbot contour, an oracle that does not sum the cancelling series.  For
    z > 0, F less its pole's principal part 1/(alpha (s - p)),
    p = z^(1/alpha), plus the pole's residue e^p / alpha."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        p = x ** (1 / a)

        def transform(s):
            f = s ** (a - 1) / (s**a - x)
            return f - 1 / (a * (s - p)) if z > 0 else f

        e = mpmath.invertlaplace(transform, 1, method="talbot")
        return float(e + mpmath.exp(p) / a if z > 0 else e)


def positive_tol(alpha, z):
    """The claimed relative accuracy of E_alpha at z > 0: 1e-12 up to
    p = z^(1/alpha) = 50, and 4e-16 (1 + p) beyond."""
    p = z ** (1 / alpha)
    return 1e-12 if p <= 50 else 4e-16 * (1 + p)


def outcome(fn, *args):
    """The value of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


def last_finite_z(alpha):
    """The largest float z with a finite E_alpha(z), by bisection on the
    floats' bit patterns."""
    lo, hi = np.array([1.0, 1e300]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        z = float(np.int64(mid).view(np.float64))
        lo, hi = (mid, hi) if math.isfinite(mittag_leffler(alpha, z)) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


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

        monkeypatch.setattr(specfn, "_contour", no_sum)
        monkeypatch.setattr(specfn, "_residue_contour", no_sum)
        want = rf"^mittag_leffler requires a finite z, got z={named}$"
        with pytest.raises(DomainError, match=want):
            mittag_leffler(0.5, z)

    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
        for z in np.linspace(-5.0, 5.0, 41):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(
                math.exp(z), abs=1e-10
            )
        # on both half-axes E_1 is exp itself, however far out, up to inf
        # past binary64, alone or in an array
        zs = np.concatenate([-np.logspace(-12, 2.8, 40), [-5e-324, 0.0, 5e-324],
                             np.logspace(-12, 2.85, 40), [709.78, 709.79, 1e300]])
        with np.errstate(over="ignore"):
            want = np.exp(zs)
        assert mittag_leffler(1.0, zs).tobytes() == want.tobytes()
        assert np.array([mittag_leffler(1.0, z) for z in zs.tolist()]).tobytes() == want.tobytes()

    def test_half_order_erfc_identity(self):
        # E_{1/2}(z) = e^{z^2} erfc(-z); erfc from mpmath as the oracle
        want = float(mpmath.e * mpmath.erfc(1))
        assert mittag_leffler(0.5, -1.0) == pytest.approx(want, abs=1e-13)
        for z in (-3.0, -8.0, -30.0, 1.0, 3.0, 8.0):
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
        # at z > 0, where every term is positive, E_alpha is within 1e-12
        # of the per-term series where that converges, else within its
        # claimed accuracy of a Talbot inversion (inf past binary64), and
        # above each partial sum of the first max_terms terms; at z < 0 it
        # takes exp (alpha = 1) or the contour, within 1e-12 of a Talbot
        # inversion
        zs = [-40.0, -12.0, -5.0, -1.0, -0.25, 0.0, 1e-3, 0.5, 3.0, 12.0]
        for z in zs:
            got = mittag_leffler(alpha, z)
            if max_terms is not None:
                if z >= 0:
                    assert got >= partial_sum(alpha, z, max_terms) * (1 - 1e-12), z
                continue
            if z < 0:
                want = math.exp(z) if alpha == 1 else talbot_ml(alpha, z)
                assert got == pytest.approx(want, rel=1e-12, abs=0), z
                continue
            want = per_term_lgamma_ml(alpha, z)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-12, abs=0), z
            elif alpha < 1:
                want = talbot_ml(alpha, z)
                assert got == pytest.approx(want, rel=positive_tol(alpha, z), abs=0), z

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_negative_axis_matches_talbot(self, alpha):
        # the contour, against a 40-digit Talbot inversion: 1e-12 relative
        # on [-50, 0), where the series cancelled (E_0.3(-3) was -23.4)
        zs = [-1e-12, -1e-6, -0.01, -0.5, -3.0, -12.0, -30.0, -50.0]
        got = mittag_leffler(alpha, np.array(zs))
        for z, v in zip(zs, got.tolist()):
            assert v == pytest.approx(talbot_ml(alpha, z), rel=1e-12, abs=0), z

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                                       1 - 2.0**-40])
    def test_positive_axis_matches_talbot(self, alpha):
        # the residue and the midpoint contour against the Talbot inversion:
        # 1e-12 relative up to p = z^(1/alpha) = 50, where the series needed
        # up to 500 terms, and 4e-16 (1 + p) out to p = 700, where it could
        # not converge (E_0.5(20) is 1.0e174)
        ps = [1e-8, 1e-3, 0.5, 3.0, 12.0, 30.0, 50.0, 80.0, 200.0, 450.0, 700.0]
        zs = [p**alpha for p in ps]
        for z, v in zip(zs, mittag_leffler(alpha, np.array(zs)).tolist()):
            assert v == pytest.approx(talbot_ml(alpha, z), rel=positive_tol(alpha, z), abs=0), z

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.9, 0.99])
    def test_pole_at_the_trapezoidal_apex(self, alpha):
        # the pole p = z^(1/alpha) on and beside the trapezoidal rule's real
        # node, where subtracting it there would cancel: no node of the
        # midpoint rule is real
        at = APEX**alpha
        zs = [at] + [at * (1 + s * r) for r in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2) for s in (-1, 1)]
        for z, v in zip(zs, mittag_leffler(alpha, np.array(zs)).tolist()):
            assert v == pytest.approx(talbot_ml(alpha, z), rel=1e-12, abs=0), z
        assert mittag_leffler(alpha, at) == mittag_leffler(alpha, np.array([at, 1.0]))[0]

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5, 0.99, 1.0])
    def test_tiny_z(self, alpha):
        # subnormal and tiny z of either sign: E_alpha(z) = 1 + z/Gamma(1 + alpha)
        # + ..., so 1.0 to binary64, which the contours give within 8 eps:
        # no part of the z > 0 sum is of size 1/alpha there
        zs = [-1e-300, -5e-324, 5e-324, 1e-300, 1e-16]
        for v in [*mittag_leffler(alpha, np.array(zs)).tolist(),
                  *(mittag_leffler(alpha, z) for z in zs)]:
            assert abs(v - 1.0) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.9, 0.999, 1.0])
    def test_overflow_edge(self, alpha):
        # E_alpha is finite up to the last z whose E is within binary64,
        # there within its accuracy of the Talbot inversion, and inf from the
        # next float up, where the inversion is past binary64 within that
        # accuracy; never nan, out to z = 1e300
        z = last_finite_z(alpha)
        up = float(np.nextafter(z, math.inf))
        tol = positive_tol(alpha, z) if alpha < 1 else 4e-16 * (1 + z)
        big = np.finfo(float).max
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            for x in (z, up):
                p = mpmath.mpf(x) ** (1 / a)
                want = mpmath.exp(p) / a if alpha < 1 else mpmath.exp(p)
                if x == z:
                    assert abs(mittag_leffler(alpha, z) - want) <= tol * want
                else:
                    assert want >= big * (1 - tol)
        assert mittag_leffler(alpha, up) == math.inf
        got = mittag_leffler(alpha, np.array([z, up, 1e300, -1e300]))
        assert np.isfinite(got[[0, 3]]).all() and got[[1, 2]].tolist() == [math.inf] * 2

    def test_past_binary64_is_inf_not_nan(self):
        for alpha in (0.05, 0.5, 0.95):
            got = mittag_leffler(alpha, np.array([1e300, 1e150, 2e150, 1.7e308]))
            assert got.tolist() == [math.inf] * 4
        assert mittag_leffler(0.5, 1e300) == math.inf

    @pytest.mark.parametrize("alpha", [0.995, 0.999, 0.999999, 1 - 2.0**-40])
    def test_negative_axis_near_order_one(self, alpha):
        # for alpha in (0.99, 1) the tail -1/(z Gamma(1 - alpha)) vanishes
        # with 1 - alpha, and the contour's error is 1e-12 relative or
        # 1e-15 absolute, whichever is larger
        zs = [-1e-6, -0.5, -3.0, -12.0, -30.0, -50.0]
        for z, v in zip(zs, mittag_leffler(alpha, np.array(zs)).tolist()):
            want = talbot_ml(alpha, z)
            assert abs(v - want) <= max(1e-12 * abs(want), 1e-15), z

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

    def test_routes_split_by_sign(self, monkeypatch):
        # one call over z of both signs and zeros is the calls on each part:
        # z == 0 gives 1.0 exactly, the trapezoidal contour sees only the
        # z < 0 and the residue contour only the z > 0
        seen = {}
        for name in ("_contour", "_residue_contour"):
            def spy(alpha, z, route=getattr(specfn, name), name=name):
                seen.setdefault(name, []).extend(z.tolist())
                return route(alpha, z)

            monkeypatch.setattr(specfn, name, spy)
        zs = np.array([0.7, -0.0, -2.5, 0.0, 3.0, -40.0, -1e-300, 5e-324])
        got = mittag_leffler(0.4, zs)
        assert seen == {"_contour": [-2.5, -40.0, -1e-300], "_residue_contour": [0.7, 3.0, 5e-324]}
        for alpha in (0.4, 1.0):
            got = mittag_leffler(alpha, zs)
            assert got[[1, 3]].tolist() == [1.0, 1.0]
            assert got[[0, 4, 7]].tobytes() == mittag_leffler(alpha, zs[[0, 4, 7]]).tobytes()
            assert got[[2, 5, 6]].tobytes() == mittag_leffler(alpha, zs[[2, 5, 6]]).tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_array_matches_scalar_calls(self, alpha):
        # many z of both signs, each alone and among the others: every
        # contour sums each z's column over its nodes in one order
        zs = np.concatenate([[0.0, -0.0], np.linspace(-3.0, 2.0, 2 * _WIDE + 45)])
        got = mittag_leffler(alpha, zs)
        assert isinstance(got, np.ndarray) and got.shape == zs.shape
        want = [mittag_leffler(alpha, float(z)) for z in zs]
        assert all(type(v) is float for v in want)
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("alpha, lo, hi", [(0.3, 2.2, 3.2), (0.5, 5.5, 9.5), (0.7, 15.0, 30.0)])
    def test_sums_past_256_terms_match_per_term_lgamma(self, alpha, lo, hi):
        # z whose series stop on both sides of 256 terms, and some whose
        # series did not stop within 500: within 1e-12 of the per-term
        # series where it stops, and of a Talbot inversion past it
        zs = np.linspace(lo, hi, 200)
        got = mittag_leffler(alpha, zs).tolist()
        want = [per_term_lgamma_ml(alpha, z) for z in zs.tolist()]
        assert None in want and want[0] is not None
        for z, v, w in zip(zs.tolist(), got, want):
            if w is not None:
                assert v == pytest.approx(w, rel=1e-12, abs=0), z
        for z, v, w in list(zip(zs.tolist(), got, want))[::25]:
            if w is None:
                assert v == pytest.approx(talbot_ml(alpha, z), rel=positive_tol(alpha, z), abs=0)

    def test_empty_array(self):
        got = mittag_leffler(0.5, np.array([]))
        assert isinstance(got, np.ndarray) and got.size == 0

    def test_array_names_first_unconverged_z(self):
        # the z whose series never stopped (80 and 90 at alpha = 0.5) are
        # past binary64: inf there, as alone, and the other z are unchanged
        zs = np.array([-1.0, 80.0, -0.5, 90.0])
        got = mittag_leffler(0.5, zs)
        assert mittag_leffler(0.5, 80.0) == math.inf
        assert got[[1, 3]].tolist() == [math.inf, math.inf]
        assert got[[0, 2]].tobytes() == mittag_leffler(0.5, zs[[0, 2]]).tobytes()

    @pytest.mark.parametrize("bad", [3, 130, 258])
    def test_array_names_its_first_failure(self, bad):
        # wherever the z past binary64 sit, the array call gives inf there
        # and the scalar calls' bits everywhere
        zs = np.linspace(-1.0, 1.0, 773)
        zs[bad], zs[bad + 3] = 80.0, 26.7
        got = mittag_leffler(0.5, zs)
        assert np.flatnonzero(np.isinf(got)).tolist() == [bad, bad + 3]
        assert got.tobytes() == np.array([mittag_leffler(0.5, z) for z in zs.tolist()]).tobytes()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
    def test_thresholds_match_per_term_lgamma(self, alpha):
        # z > 0 where a term of E_alpha's series reaches 1e-14, and within
        # 3 ulp of it, where the series' stop was decided within rounding:
        # within 1e-12 of the per-term series where it stops.  The same z
        # negated take exp or the contour, every 50th checked against a
        # Talbot inversion
        lg = [math.lgamma(alpha * k + 1.0) for k in range(REF_TERMS)]
        zs = []
        for k in range(1, REF_TERMS, 5):
            z = math.exp((math.log(_ABS_TOL) + lg[k]) / k)
            zs += [z * (1 + j * 2.0**-52) for j in range(-3, 4)]
        got = mittag_leffler(alpha, np.array(zs))
        assert got.tobytes() == np.array([mittag_leffler(alpha, z) for z in zs]).tobytes()
        checked = 0
        for z, v in zip(zs, got.tolist()):
            want = per_term_lgamma_ml(alpha, z)
            if want is not None:
                assert v == pytest.approx(want, rel=1e-12, abs=0), z
                checked += 1
        assert checked > 100
        neg = -np.array(zs)
        got = mittag_leffler(alpha, neg)
        assert np.isfinite(got).all()
        for z, v in zip(neg[::50].tolist(), got[::50].tolist()):
            want = math.exp(z) if alpha == 1 else talbot_ml(alpha, z)
            assert v == pytest.approx(want, rel=1e-12, abs=0), z

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.5, 1.0)


class TestPopulationCurve:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("rate", [-5.0, -2.0, -0.7, 0.0, 1.0, 5.0])
    def test_matches_per_node_reference(self, alpha, rate):
        # N(t) = n0 E_alpha(rate t^alpha), node by node the scalar call
        # (n0 exp(z) at alpha = 1), or the overflow error naming the first
        # node where that is inf; for rate >= 0 within 1e-12 of the per-term
        # series where it stops, and for rate < 0 every 250th node within
        # 1e-12 of a Talbot inversion
        grid, n0, mu = TimeGrid(5.0, 0.005), 2.5, 0.3
        lam = mu + rate
        t = grid.nodes().tolist()
        z = [(lam - mu) * v**alpha for v in t]
        with np.errstate(over="ignore"):
            want = np.array([n0 * mittag_leffler(alpha, v) for v in z])
        if not np.isfinite(want).all():
            first = t[int(np.isfinite(want).argmin())]
            with pytest.raises(NumericOverflowError, match=rf"overflowed at t={first} "):
                population_curve(alpha, lam, mu, n0, grid)
            return
        got = population_curve(alpha, lam, mu, n0, grid)
        assert got.tobytes() == want.tobytes()
        if alpha == 1:
            assert got.tobytes() == (n0 * np.exp(z)).tobytes()
        if rate < 0:
            for v, n in zip(z[250::250], got[250::250].tolist()):
                assert n == pytest.approx(n0 * talbot_ml(alpha, v), rel=1e-12, abs=0)
            return
        for v, n in zip(z, got.tolist()):
            ref = per_term_lgamma_ml(alpha, v)
            if ref is not None:
                assert n == pytest.approx(n0 * ref, rel=1e-12, abs=0), v

    def test_cases_include_raises(self):
        # the cases above cover both outcomes: alpha = 0.3, rate = 5 raises,
        # as N passes binary64 at t = 3.3, and rate = -5, whose series
        # cancels, does not
        grid = TimeGrid(5.0, 0.005)
        with pytest.raises(NumericOverflowError):
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

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.01, 0.99) | st.just(1.0),
        rate=st.floats(1e-6, 50.0),
        T=st.floats(0.1, 50.0),
        N=st.integers(2, 400),
    )
    def test_growth_keeps_its_proven_shape(self, alpha, rate, T, N):
        # lam > mu: N(0) = n0 exactly; N(t) = n0 E_alpha(x), x = rate
        # t^alpha, a series of positive terms in x, so it rises and is
        # convex in x, within 8 eps |N| of rounding; it lies above its first
        # three terms n0 (1 + x/Gamma(1 + alpha) + x^2/Gamma(1 + 2 alpha));
        # and the array call is the scalar calls, byte for byte
        n0, mu = 3.0, 0.5
        # capped where p = x^(1/alpha) reaches 600 at t = T, so that N
        # stays within binary64
        rate = min(rate, (600.0 / T) ** alpha)
        grid = TimeGrid(T, T / N)
        n = population_curve(alpha, mu + rate, mu, n0, grid)
        assert n[0] == n0 and np.isfinite(n).all()
        slack = 8 * np.finfo(float).eps * np.abs(n)
        assert np.all(np.diff(n) >= -slack[1:])
        x = ((mu + rate) - mu) * node_powers(alpha, grid)
        # slopes in x rise, each within the slack of its two ends
        dx, dn = np.diff(x), np.diff(n)
        slope, err = dn / dx, (slack[1:] + slack[:-1]) / dx
        assert np.all(np.diff(slope) >= -(err[1:] + err[:-1]))
        low = 1 + x / math.gamma(1 + alpha) + x * x / math.gamma(1 + 2 * alpha)
        assert np.all(n >= n0 * low * (1 - 1e-12))
        want = np.array([n0 * mittag_leffler(alpha, v) for v in x.tolist()])
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
