"""Coefficient recursions against exact-arithmetic and closed-form oracles."""

import math
import operator
from dataclasses import asdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fracsis import coeffs, specfn
from fracsis.coeffs import (
    MAX_ORDER,
    CoeffKind,
    CoeffTable,
    a_coeffs,
    carrying_capacity_hypothesis,
    empirical_radius,
    euler_alpha,
    radius_carrying_capacity,
    radius_zero_capacity,
)
from fracsis.errors import (
    DomainError,
    HypothesisError,
    InsufficientDataError,
    NumericOverflowError,
)
mpmath.mp.dps = 40

ALPHAS = (0.3, 0.5, 0.7, 0.99, 1.0)


def sigmoid_taylor_oracle(K):
    """Exact Taylor coefficients of s(t) with s' = s(1-s), s(0) = 1/2.

    Classical Cauchy-product recursion in rational arithmetic, independent
    of the fractional machinery under test.  Returns E_k = k! * c_k.
    """
    c = [Fraction(1, 2)]
    for n in range(K):
        conv = sum(c[i] * c[n - i] for i in range(n + 1))
        c.append((c[n] - conv) / (n + 1))
    return [math.factorial(k) * ck for k, ck in enumerate(c)]


def beta_form_recursion(alpha, K, c0, keep_linear):
    """The coefficient recursion with its weight in Beta-function form.

    R(i, j, k) = 1 / ((alpha k + 1) B(alpha i + 1, alpha j + 1)) is
    algebraically the Gamma ratio the package uses; computing it this
    way gives an independent cross-check of the tables.
    """
    lg = [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]
    vals = [c0]
    for k in range(K):
        conv = 0.0
        for i in range(k + 1):
            b = math.exp(lg[i] + lg[k - i] - math.lgamma(alpha * k + 2.0))
            conv += vals[i] * vals[k - i] / ((alpha * k + 1.0) * b)
        vals.append((vals[k] - conv) if keep_linear else -conv)
    return vals


def gamma_weight_recursion(alpha, K, c0, keep_linear):
    """The unnormalised c_k recursion with its per-pair Gamma-ratio weight.

    c_{k+1} = [c_k] - sum_i exp(lg_k - lg_i - lg_{k-i}) c_i c_{k-i}: an
    independent reference for ``CoeffTable.values``.  Returns the prefix
    before the first entry that overflows binary64, and the index of that
    entry (None if there is none).
    """
    lg = [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]
    vals = [c0]
    for k in range(K):
        conv = 0.0
        for i in range(k + 1):
            conv += math.exp(lg[k] - lg[i] - lg[k - i]) * vals[i] * vals[k - i]
        nxt = (vals[k] - conv) if keep_linear else -conv
        if not math.isfinite(nxt):
            return vals, k + 1
        vals.append(nxt)
    return vals, None


def mp_normalised_table(alpha, K, d0, keep_linear):
    """d_k = c_k / Gamma(alpha k + 1) by the same recursion at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        d = [mpmath.mpf(d0)]
        for k in range(K):
            r = mpmath.gamma(a * k + 1) / mpmath.gamma(a * k + a + 1)
            s = mpmath.fsum(d[i] * d[k - i] for i in range(k + 1))
            d.append(r * ((d[k] - s) if keep_linear else -s))
        return d


def lgamma_ratios(alpha, K):
    """Gamma(alpha k + 1) / Gamma(alpha k + alpha + 1), k < K, each from its
    two lgammas."""
    lg = [math.lgamma(alpha * k + 1.0) for k in range(K + 1)]
    return [math.exp(lg[k] - lg[k + 1]) for k in range(K)]


def generator_recursion(alpha, K, d0, keep_linear):
    """The d-form recursion with S_k as one fsum over every pair d_i d_{k-i}."""
    r = lgamma_ratios(alpha, K)
    d = [d0]
    for k in range(K):
        s = math.fsum(d[i] * d[k - i] for i in range(k + 1))
        d.append(r[k] * ((d[k] - s) if keep_linear else -s))
    return tuple(d)


def pairwise_recursion(alpha, K, d0, keep_linear):
    """The recursion with each symmetric pair d_i d_{k-i} formed by a Python
    multiply and listed twice for ``math.fsum``, plus the middle square."""
    r = lgamma_ratios(alpha, K)
    d = [d0]
    for k in range(K):
        h = (k + 1) // 2
        p = list(map(operator.mul, d[:h], d[k : k - h : -1]))
        s = math.fsum(p + p + [d[h] * d[h]] if k % 2 == 0 else p + p)
        d.append(r[k] * ((d[k] - s) if keep_linear else -s))
    return tuple(d)


def loop_square_recursion(x0, q, n):
    """The blocked kernel with each order's in-block pairs added in a Python
    loop: the blocks, convolutions and order of additions of
    ``coeffs._square_recursion``, as it was before its generated blocks
    (whose ``sum(map(mul, ...))`` added left to right from 0.0 before
    Python 3.12, as this loop does on every version)."""
    xs = [x0]
    x = np.zeros(n + 1)
    x[0] = x0
    m0 = 0
    while m0 < n:
        b = min(16, m0 + 1, n - m0)
        prefix = np.convolve(x[: m0 + b], x[: m0 + 1], "valid").tolist()
        new = []
        for k in range(b):
            t = 0.0
            for pair in map(operator.mul, xs, reversed(new)):
                t += pair
            new.append(-q[m0 + k] * (prefix[k] + (t + t)))
        xs += new
        x[m0 + 1 : m0 + b + 1] = new
        m0 += b
    return xs


def assert_near_reference(got, want, where):
    """Every entry of ``got`` a float within 1e-14 relative of ``want``,
    and zero exactly where ``want`` is: the tables sum each S_k in another
    order than the references' ``math.fsum``, and every pair of an S_k has
    one sign, so only the last bits may move."""
    assert len(got) == len(want), where
    for k, (g, w) in enumerate(zip(got, want)):
        assert type(g) is float, (where, k)
        assert (g == 0.0) == (w == 0.0), (where, k)
        assert abs(g - w) <= 1e-14 * abs(w), (where, k, g, w)


def assert_prefixes(alpha, a0, linear):
    """``_recurse`` to every order K is the order-MAX_ORDER table's first
    K + 1 entries, bit for bit."""
    full = np.array(coeffs._recurse(alpha, MAX_ORDER, a0, linear))
    for K in range(MAX_ORDER + 1):
        got = np.array(coeffs._recurse(alpha, K, a0, linear))
        assert got.tobytes() == full[: K + 1].tobytes(), (alpha, a0, linear, K)


def max_relative_error(got, want):
    """The largest |g - w| / |w| over the non-zero entries of ``want``."""
    return max(abs(g - w) / abs(w) for g, w in zip(got, want) if w != 0)


def loop_radius(table, b_scale):
    """The root test of ``empirical_radius`` as one uncached loop."""
    d, K = table.d, table.order
    lo = min(K // 2, K + 1 - 20)
    best = -math.inf
    for k in range(max(lo, 1), K + 1):
        if d[k] != 0.0:
            best = max(best, math.log(abs(d[k])) / k)
    try:
        radius = math.exp(-(best + math.log(b_scale)) / table.alpha)
    except OverflowError:
        radius = math.inf
    return radius, K + 1 - lo


def decay_taylor_oracle(K):
    """Taylor coefficients of w(t) = 1/(t+2): w^(k)(0) = (-1)^k k!/2^(k+1)."""
    return [Fraction((-1) ** k * math.factorial(k), 2 ** (k + 1)) for k in range(K + 1)]


class TestEulerAlpha:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_first_two_entries(self, alpha):
        t = euler_alpha(alpha, 1)
        assert t.values[0] == 0.5
        assert t.values[1] == pytest.approx(0.25, abs=1e-15)

    def test_alpha_one_matches_sigmoid_oracle(self):
        got = euler_alpha(1.0, 9).values
        want = sigmoid_taylor_oracle(9)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g == pytest.approx(float(w), abs=1e-10), f"k={k}"

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_even_indices_vanish(self, alpha):
        t = euler_alpha(alpha, 21)
        for k in range(1, 11):
            assert abs(t.values[2 * k]) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_e3_closed_form(self, alpha):
        # hand derivation from the recursion, checked against the
        # exact-rational oracle at alpha = 1 (E_3 = -1/8)
        t = euler_alpha(alpha, 3)
        want = -(1.0 / 16.0) * math.gamma(2 * alpha + 1) / math.gamma(alpha + 1) ** 2
        assert t.values[3] == pytest.approx(want, abs=1e-10)

    def test_forms_agree(self):
        # odd entries match relatively; the structurally-zero even entries
        # are compared against the size of their odd neighbours (the
        # beta form leaves ~1e-13-scaled rounding residue there)
        for alpha in (0.3, 0.7, 1.0):
            g = euler_alpha(alpha, 40).values
            b = beta_form_recursion(alpha, 40, 0.5, True)
            for k in range(1, 41, 2):
                assert g[k] == pytest.approx(b[k], rel=1e-12)
            for k in range(2, 41, 2):
                scale = max(1.0, abs(g[k - 1]))
                assert abs(g[k]) <= 1e-11 * scale
                assert abs(b[k]) <= 1e-11 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_alpha(0.0, 5)
        with pytest.raises(DomainError):
            euler_alpha(1.2, 5)
        with pytest.raises(DomainError):
            euler_alpha(0.5, 500)
        with pytest.raises(DomainError):
            euler_alpha(0.5, -1)


class TestACoeffs:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_first_two_entries(self, alpha):
        t = a_coeffs(alpha, 1)
        assert t.values[0] == 0.5
        assert t.values[1] == pytest.approx(-0.25, abs=1e-15)

    def test_order_zero(self):
        assert a_coeffs(0.7, 0).values == (0.5,)

    def test_classical_limit_matches_decay_oracle(self):
        want = decay_taylor_oracle(8)
        exact = a_coeffs(1.0, 8).values
        near = a_coeffs(1.0 - 1e-9, 8).values
        for k in range(9):
            assert exact[k] == pytest.approx(float(want[k]), abs=1e-12), f"k={k}"
            assert near[k] == pytest.approx(float(want[k]), rel=1e-7, abs=1e-8), f"k={k}"

    def test_approach_to_classical_limit(self):
        # tables at alpha = 1 - eps approach the alpha = 1 table as eps -> 0
        want = np.array(a_coeffs(1.0, 8).values)
        devs = [
            np.max(np.abs(np.array(a_coeffs(1.0 - eps, 8).values) - want))
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_forms_agree_to_1e12_relative(self):
        for alpha in (0.3, 0.5, 0.7):
            g = a_coeffs(alpha, 40).values
            b = beta_form_recursion(alpha, 40, 0.5, False)
            for x, y in zip(g, b):
                assert x == pytest.approx(y, rel=1e-12)

    def test_custom_initial_datum(self):
        t = a_coeffs(0.5, 3, a0=0.25)
        assert t.values[0] == 0.25
        assert t.values[1] == pytest.approx(-0.0625, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 1.2])
    def test_alpha_domain(self, alpha):
        want = rf"^a_coeffs requires alpha in \(0, 1\], got {alpha}$"
        with pytest.raises(DomainError, match=want):
            a_coeffs(alpha, 5)

    def test_domain(self):
        with pytest.raises(DomainError):
            a_coeffs(0.5, 5, a0=0.0)
        with pytest.raises(DomainError):
            a_coeffs(0.5, 5, a0=1.0)


class TestRadii:
    def test_carrying_capacity_alpha_one(self):
        # Gamma(2) Gamma(4) / Gamma(3) = 3 so r = sqrt(3)/b
        assert radius_carrying_capacity(1.0, 0.525) == pytest.approx(
            math.sqrt(3.0) / 0.525, rel=1e-12
        )
        assert radius_carrying_capacity(1.0, 1.0 - 1e-9) == pytest.approx(
            math.sqrt(3.0), rel=1e-6
        )

    def test_against_high_precision_formula(self):
        al, b = mpmath.mpf("0.7"), mpmath.mpf("0.525")
        want = float(
            (1 / b ** (1 / al))
            * (mpmath.gamma(al + 1) * mpmath.gamma(3 * al + 1) / mpmath.gamma(2 * al + 1))
            ** (1 / (2 * al))
        )
        assert radius_carrying_capacity(0.7, 0.525) == pytest.approx(want, rel=1e-10)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            radius_carrying_capacity(0.7, 1.0)
        with pytest.raises(HypothesisError):
            radius_carrying_capacity(0.5, 1.3)
        with pytest.raises(HypothesisError):
            radius_carrying_capacity(0.5, -0.2)

    def test_hypothesis_is_b_below_one(self):
        # for alpha in (0, 1], b^(1/alpha) < 1 holds exactly when b < 1
        rng = np.random.default_rng(15)
        for _ in range(2000):
            alpha, b = float(rng.uniform(0.02, 1.0)), float(rng.uniform(-2.0, 3.0))
            b = float(rng.choice([b, 0.0, 1.0, np.nextafter(1.0, 0.0), 1e-300]))
            assert carrying_capacity_hypothesis(b) == (b > 0 and b ** (1.0 / alpha) < 1.0)
        assert carrying_capacity_hypothesis(0.5) and not carrying_capacity_hypothesis(2.0)

    def test_carrying_capacity_past_binary64_is_inf(self):
        assert radius_carrying_capacity(0.01, 1e-4) == math.inf
        assert radius_carrying_capacity(0.02, 1e-4) == pytest.approx(
            1e200 * math.exp(math.lgamma(1.02) + math.lgamma(1.06) - math.lgamma(1.04)) ** 25,
            rel=1e-10,
        )

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_domain(self, alpha):
        want = rf"^radius requires alpha in \(0, 1\], got {alpha}$"
        with pytest.raises(DomainError, match=want):
            radius_carrying_capacity(alpha, 0.5)
        with pytest.raises(DomainError, match=want):
            radius_zero_capacity(alpha)

    def test_zero_capacity_values(self):
        assert radius_zero_capacity(0.5) == pytest.approx(0.25, rel=1e-13)
        assert radius_zero_capacity(1.0) == pytest.approx(0.5, rel=1e-13)
        assert radius_zero_capacity(0.25) == pytest.approx(0.0625, rel=1e-13)


class TestEmpiricalRadius:
    def test_sigmoid_pole_radius(self):
        # at alpha = 1 with scale b the nearest sigmoid pole (+-i pi) puts
        # the radius at pi/b
        table = euler_alpha(1.0, 60)
        est = empirical_radius(table, 0.525)
        assert est.empirical == pytest.approx(math.pi / 0.525, rel=0.10)
        assert est.k_used >= 20

    def test_geometric_table(self):
        # d[k] = q^k makes the root-test ratio exactly q
        q = 0.35
        table = CoeffTable(1.0, CoeffKind.A_COEFF, tuple(q**k for k in range(41)))
        est = empirical_radius(table, 1.0)
        assert est.empirical == pytest.approx(1.0 / q, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_dominates_guaranteed_bound(self, alpha):
        est = empirical_radius(a_coeffs(alpha, 60), 1.0)
        assert est.empirical >= 0.95 * radius_zero_capacity(alpha)

    def test_radius_past_binary64_is_inf(self):
        # d[k] = q^k puts the radius at q^(-1/alpha): 1e400 at alpha = 0.01
        q = 1e-4
        d = tuple(q**k for k in range(41))
        assert empirical_radius(CoeffTable(0.01, CoeffKind.A_COEFF, d)).empirical == math.inf
        est = empirical_radius(CoeffTable(0.02, CoeffKind.A_COEFF, d))
        assert est.empirical == pytest.approx(1e200, rel=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            empirical_radius(a_coeffs(0.5, 12), 1.0)
        with pytest.raises(InsufficientDataError):  # again, from the cached root test
            empirical_radius(a_coeffs(0.5, 12), 1.0)

    def test_cached_root_test_is_the_loop_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(29)
        root_test, calls = coeffs._root_test, []

        def counted(d):
            calls.append(d)
            return root_test(d)

        monkeypatch.setattr(coeffs, "_root_test", counted)
        coeffs._table.cache_clear()  # no table object has its root test yet
        tables = [euler_alpha(0.7, 120), a_coeffs(0.3, MAX_ORDER), a_coeffs(0.99, 20)]
        for _ in range(25):  # 28 tables
            alpha = float(rng.uniform(0.05, 1.0))
            build = euler_alpha if rng.integers(2) else a_coeffs
            tables.append(build(alpha, int(rng.integers(40, MAX_ORDER + 1))))
        for table in tables + tables:  # computed at first use, then kept on the table
            for b in (1.0, float(rng.uniform(0.01, 0.99)), 1e-300):
                est = empirical_radius(table, b)
                assert (est.empirical, est.k_used) == loop_radius(table, b)
        assert len(calls) == len(tables)
        for table in tables:  # a hand-built table computes its own, the same triple
            twin = CoeffTable(table.alpha, table.kind, table.d)
            assert twin is not table and twin._root == table._root
        assert len(calls) == 2 * len(tables)

    def test_root_test_is_not_a_field(self):
        table = a_coeffs(0.6, 40)
        twin = CoeffTable(table.alpha, table.kind, table.d)
        empirical_radius(table)
        assert "_root" in vars(table) and "_root" not in vars(twin)
        assert table == twin and hash(table) == hash(twin) and repr(table) == repr(twin)
        assert asdict(table) == asdict(twin) == {"alpha": 0.6, "kind": CoeffKind.A_COEFF,
                                                 "d": table.d}

    def test_hash_is_kept_and_follows_equality(self):
        # the hash of the fields, computed once per table object, so a cache
        # keyed by the table does not hash its 201 entries on every lookup
        table = a_coeffs(0.6, MAX_ORDER)
        twin = CoeffTable(table.alpha, table.kind, table.d)
        assert hash(table) == hash((table.alpha, table.kind, table.d)) == hash(twin)
        assert vars(table)["_hash"] == hash(table)
        for other in (CoeffTable(0.7, table.kind, table.d),
                      CoeffTable(table.alpha, CoeffKind.EULER_ALPHA, table.d),
                      CoeffTable(table.alpha, table.kind, table.d[:-1])):
            assert other != table and len({table, twin, other}) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            empirical_radius(a_coeffs(0.5, 40), 0.0)


KINDS = [(euler_alpha, True), (a_coeffs, False)]
KIND_IDS = ["euler", "a"]


class TestNormalisedTables:
    @pytest.mark.parametrize("build, linear", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95, 0.99, 1.0])
    def test_mpmath_oracle_at_max_order(self, build, linear, alpha):
        got = build(alpha, MAX_ORDER).d
        want = mp_normalised_table(alpha, MAX_ORDER, 0.5, linear)
        for k, (g, w) in enumerate(zip(got, want)):
            if w == 0:
                assert g == 0.0, f"k={k}"
            else:
                assert abs(g - w) <= 1e-12 * abs(w), f"k={k}"
        # the error is the ratios' rounding, not the order of summation: no
        # more than that of the recursion with every S_k correctly rounded
        exact_sums = generator_recursion(alpha, MAX_ORDER, 0.5, linear)
        assert max_relative_error(got, want) <= 1.1 * max_relative_error(exact_sums, want)

    @pytest.mark.parametrize("build", [euler_alpha, a_coeffs], ids=KIND_IDS)
    def test_finite_for_every_alpha(self, build):
        # tables are prefixes of one another, so order MAX_ORDER covers all K
        for alpha in (0.01, 0.05) + tuple(np.linspace(0.1, 1.0, 19)):
            assert all(map(math.isfinite, build(float(alpha), MAX_ORDER).d)), alpha

    def test_values_refuse_overflow(self):
        table = a_coeffs(0.99, MAX_ORDER)
        with pytest.raises(NumericOverflowError, match=r"at index 199 \(alpha=0\.99\)$"):
            table.values

    @pytest.mark.parametrize("build, linear", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.95, 0.98, 0.99, 1.0])
    def test_values_match_gamma_weight_recursion(self, build, linear, alpha):
        want, overflow = gamma_weight_recursion(alpha, MAX_ORDER, 0.5, linear)
        if overflow is not None:
            with pytest.raises(NumericOverflowError, match=f"at index {overflow} "):
                build(alpha, MAX_ORDER).values
        got = build(alpha, len(want) - 1).values
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-13 * abs(w), f"k={k}"

    @pytest.mark.parametrize("K", [0, 1, 2, 3, MAX_ORDER])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.99, 1.0])
    def test_paired_convolution_matches_generator_form(self, alpha, K):
        want = generator_recursion(alpha, K, 0.5, True)
        assert_near_reference(euler_alpha(alpha, K).d, want, (alpha, K))
        for a0 in (0.5, 0.01, 0.25, 0.7, 0.999):
            want = generator_recursion(alpha, K, a0, False)
            assert_near_reference(a_coeffs(alpha, K, a0).d, want, (alpha, K, a0))


class TestTableCache:
    @pytest.mark.parametrize(
        "build, args",
        [
            (euler_alpha, (0.0, 120)),
            (euler_alpha, (0.7, MAX_ORDER + 1)),
            (a_coeffs, (0.7, -1)),
            (a_coeffs, (0.7, 120, 1.0)),
        ],
        ids=["euler-alpha-zero", "euler-past-max-order", "a-negative-order", "a-a0-one"],
    )
    def test_checks_run_on_warm_calls(self, build, args):
        euler_alpha(0.7, 120)
        a_coeffs(0.7, 120)
        with pytest.raises(DomainError):
            build(*args)

    @pytest.mark.parametrize("build", [euler_alpha, a_coeffs], ids=KIND_IDS)
    def test_repeated_call_returns_the_same_table(self, build):
        table = build(0.7, 120)
        assert build(0.7, 120) is table
        assert build(0.7, 121) is not table
        with pytest.raises(AttributeError):
            table.d = ()

    @pytest.mark.parametrize("build, linear", KINDS, ids=KIND_IDS)
    def test_cached_table_is_the_recursion_bit_for_bit(self, build, linear):
        build(0.7, 120)
        hits = coeffs._table.cache_info().hits
        got = build(0.7, 120).d
        assert coeffs._table.cache_info().hits == hits + 1
        want = coeffs._recurse(0.7, 120, 0.5, linear)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_blocked_kernel_is_the_pairwise_recursion_to_1e14(self):
        # random a0 for the A-table; the alpha-Euler table starts at 1/2
        rng = np.random.default_rng(23)
        draws = [(1.0, MAX_ORDER, 0.5, True), (1.0, MAX_ORDER, 0.5, False), (0.01, 0, 0.5, True)]
        for _ in range(240):
            linear = bool(rng.integers(2))
            a0 = 0.5 if linear else float(rng.uniform(0.001, 0.999))
            draws.append((float(rng.uniform(0.01, 1.0)), int(rng.integers(0, MAX_ORDER + 1)),
                          a0, linear))
        for alpha, K, a0, linear in draws:
            got = coeffs._recurse(alpha, K, a0, linear)
            assert_near_reference(got, pairwise_recursion(alpha, K, a0, linear), (alpha, K, a0))
            full = coeffs._recurse(alpha, MAX_ORDER, a0, linear)
            assert np.array(got).tobytes() == np.array(full[: K + 1]).tobytes(), (alpha, K, a0)
        for alpha, a0 in ((1.0, 0.5), (0.05, 0.999), (0.4711, 0.01), (0.93, 0.37)):
            assert_prefixes(alpha, a0, False)

    def test_generated_blocks_are_the_loop_bit_for_bit(self):
        # every n of the A-table's kernel call from a random a0, and the
        # alpha-Euler table's call on its odd entries
        rng = np.random.default_rng(31)
        for alpha in [1.0, 0.01, *rng.uniform(0.01, 1.0, 30).tolist()]:
            r = lgamma_ratios(alpha, MAX_ORDER)
            calls = [(float(rng.uniform(0.001, 0.999)), r[:n], n) for n in range(MAX_ORDER + 1)]
            calls.append((r[0] / 4, r[2::2], (MAX_ORDER - 1) // 2))
            for x0, q, n in calls:
                got = coeffs._square_recursion(x0, q, n)
                want = loop_square_recursion(x0, q, n)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (alpha, x0, n)

    def test_euler_tables_skip_only_zero_pairs(self):
        # the odd entries obey the A-table's recursion; every even entry
        # past d_0 is 0.0, as in the pairwise recursion over every pair
        rng = np.random.default_rng(29)
        for alpha in [1.0, *rng.uniform(0.01, 1.0, 400).tolist()]:
            got = coeffs._recurse(alpha, MAX_ORDER, 0.5, True)
            assert_near_reference(got, pairwise_recursion(alpha, MAX_ORDER, 0.5, True), alpha)
            assert not any(got[2::2][1:])
        for alpha in (1.0, 0.01, 0.2718, 0.75):
            assert_prefixes(alpha, 0.5, True)

    def test_a0_is_in_the_key(self):
        for a0 in (0.25, 0.5, 0.25):
            assert a_coeffs(0.5, 3, a0=a0).d == generator_recursion(0.5, 3, a0, False)
        assert a_coeffs(0.5, 3, a0=0.25).d != a_coeffs(0.5, 3).d

    def test_one_ratio_table_per_alpha(self):
        # both kinds at MAX_ORDER and their values read one log-Gamma tuple;
        # E_alpha, a contour on both half-axes, forms no log-Gammas
        coeffs._table.cache_clear()
        coeffs.log_gamma_orders.cache_clear()
        tables = euler_alpha(0.5123, MAX_ORDER), a_coeffs(0.5123, MAX_ORDER)
        for table in tables:
            table.values
        lg = coeffs.log_gamma_orders(0.5123, MAX_ORDER)
        assert type(lg) is tuple
        assert lg == tuple(math.lgamma(0.5123 * k + 1.0) for k in range(MAX_ORDER + 1))
        assert coeffs.log_gamma_orders.cache_info()[:2] == (4, 1)  # hits, misses
        assert specfn.mittag_leffler(0.5123, np.linspace(-30.0, 8.0, 50)).min() > 0
        assert coeffs.log_gamma_orders.cache_info()[:2] == (4, 1)

    def test_cache_is_bounded(self):
        maxsize = coeffs._table.cache_info().maxsize
        for alpha in np.linspace(0.1, 0.9, maxsize + 5):
            euler_alpha(float(alpha), 10)
        assert coeffs._table.cache_info().currsize <= maxsize
